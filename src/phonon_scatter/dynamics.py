"""Finite-lattice dynamics: direct stochastic splitting, its zero-temperature
law in closed form, and the spectral mild solution.

The infinite chain is truncated to a periodic ring of N sites (N a power of
two) with the thermostat at site 0; macroscopic positions are x = eps*y with
eps = 1/N on the centered window y in [-N/2, N/2).  Periodicity makes the
force convolution exact through length-N FFTs; a wraparound guard (enforced
by the experiment runners) keeps energy away from the seam opposite site 0
so the ring faithfully emulates the infinite chain.

One step of the direct integrator is

    half-kick   p <- p - (dt/2) (alpha * q)
    OU          p0 <- e^{-gamma dt} p0 + sqrt(T (1 - e^{-2 gamma dt})) xi
    drift       q <- q + dt p
    half-kick   p <- p - (dt/2) (alpha * q)

The Ornstein-Uhlenbeck substep is exact in distribution, so the thermostat
imposes no stability constraint; gamma = 0 reduces to plain velocity
Verlet.  Each step costs one rfft/irfft pair, and allocates nothing: the
spectrum and the kick are allocated once per call and filled through
`out=`.  The drift stages dt p in the kick, which is spent by then, and a
half-kick stages half the kick in the spectrum's floats, which are free
between an irfft and the next rfft.  The closing half-kick of one step and
the opening half-kick of the next share the same force, so between two
steps where nothing observes the state they are applied as one full kick;
they are split only where a record, a snapshot or the return needs the
synchronised state.  All state arrays may carry leading batch axes, which
is how Gibbs-start and snapshotted ensembles are integrated: the harness
hands each worker a row slice of the ensemble's output arrays, which it
integrates in place.  Noise is drawn in blocks of _NOISE_BLOCK = 256 steps,
0.8 MB for 400 paths, each freed before the next is drawn, and the Philox
streams make the draws independent of the block size.

Neither a ring at zero temperature nor an ensemble started at rest is
stepped.  `_RingLaw` holds the integrator's noise-free law per rfft mode:
a 2 x 2 rotation per step, the thermostat as a site-0 impulse, and one
fixed Toeplitz solve plus phase sums per block of 256 steps.
`run_zero_temperature` advances one ring by those blocks; it agrees with
`run_direct` to round-off (6e-14 relative on the benchmark's 61,440
steps).  `run_vacuum_ensemble` takes the impulse response g_j from the
same law: the chain is linear and the noise enters additively at site 0,
so each path's final state is its increments times g.  The rows' spectra
are real, so one matrix product per block and tile of 64 paths sums them
in mode space, in the first N+2 floats of each row of one complex array
that then holds q + ip, and `wave_field` turns it into psi in place.

The second, independent route (zero temperature only) evolves the wave
field spectrally: the free momentum history at site 0 is convolved with the
memory measure to give p0(t), and psi_hat(t,k) follows from the Duhamel
form e^{-i omega t}(psi_hat(0,k) - i gamma int_0^t e^{i omega s} p0(s) ds).
Both phase sums, over k for p0^0 and over s for psi_hat, are block phase
rotations on the kernel grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidRunError
from .lattice import CouplingKernel, DispersionRelation, hat_alpha
from .memory import (_MARCH_LEAF, MemoryKernel, _block_rotation, _leaf_inverse,
                     _trapezoid_convolve, _uniform_grid)

_STABILITY_MARGIN = 0.5
# steps of noise drawn per block: (256, n_paths) floats in run_direct, 0.8 MB
# for 400 paths; run_vacuum_ensemble draws a block one path tile at a time
_NOISE_BLOCK = 256
# rows per rfft/irfft pair in wave_field: a (64, N/2+1) spectrum at a time
_WAVE_ROWS = 64
# paths per matrix product and per noise draw in run_vacuum_ensemble: a
# (64, N + 2) product and a (256, 64) block of increments at a time
_PATH_TILE = 64
# modes per chunk of `_RingLaw.rows`: (256, 16) tables, 32 KB each
_ROW_MODES = 16


@dataclass
class ThermostatParams:
    """Friction and temperature of the point thermostat (both >= 0)."""

    gamma: float = 0.0
    temperature: float = 0.0

    def __post_init__(self):
        if self.gamma < 0 or self.temperature < 0:
            raise ConfigError("gamma and temperature must be non-negative")


class EnsembleNoise:
    """Per-path Brownian increments for a batch of trajectories.

    Path i uses the Philox key seed0 + i, so ensembles are reproducible and
    order-independent regardless of how they are chunked across workers.
    Blocks of shape (n_steps, n_paths) are drawn sequentially, and each path
    streams: `block(a)` then `block(b)` gives bitwise what one `block(a + b)`
    gives, so the block size never changes a trajectory.
    """

    def __init__(self, seed0: int, n_paths: int, dt: float):
        self.seed0 = int(seed0)
        self.n_paths = int(n_paths)
        self.dt = float(dt)
        self._rngs = [np.random.Generator(np.random.Philox(key=self.seed0 + i))
                      for i in range(self.n_paths)]

    def block(self, n_steps: int, paths: tuple[int, int] | None = None,
              out: np.ndarray | None = None) -> np.ndarray:
        """The next n_steps increments of the paths in range(*paths) (all
        paths by default), as an (n_steps, b - a) array, written into `out`
        when given.  Only those paths' streams advance, so drawing a block
        tile by tile gives bitwise the columns of one whole-block draw."""
        a, b = (0, self.n_paths) if paths is None else paths
        if out is None:
            out = np.empty((n_steps, b - a))
        s = np.sqrt(self.dt)
        for i, rng in enumerate(self._rngs[a:b]):
            out[:, i] = rng.standard_normal(n_steps)
        out *= s
        return out


@dataclass
class ChainState:
    """Momenta/positions of one ring."""

    N: int
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        if self.N & (self.N - 1):
            raise ConfigError("lattice size N must be a power of two")
        if self.p.shape[-1] != self.N or self.q.shape[-1] != self.N:
            raise ConfigError("state arrays must have trailing length N")


def site_coordinates(N: int) -> np.ndarray:
    """Signed lattice sites for array index j: 0,1,...,N/2-1,-N/2,...,-1."""
    y = np.arange(N)
    return np.where(y < N // 2, y, y - N)


def alpha_hat_rfft(kernel: CouplingKernel, N: int) -> np.ndarray:
    """hat_alpha sampled on the rfft frequencies j/N, j = 0..N/2."""
    return np.asarray(hat_alpha(kernel, np.arange(N // 2 + 1) / N))


def omega_full_grid(disp: DispersionRelation, N: int) -> np.ndarray:
    """omega on the full DFT grid j/N, j = 0..N-1 (periodic, even)."""
    return np.asarray(disp.omega(np.arange(N) / N))


@dataclass
class Trajectory:
    """Per-step records of a direct run (energies use sum |psi|^2 units)."""

    dt: float
    energies: np.ndarray        # length n_steps+1, before step j / final
    p0_at_ou: np.ndarray        # site-0 momentum entering the OU substep
    dw: np.ndarray              # Brownian increments consumed (0 if none)
    snapshots: list = field(default_factory=list)
    snapshot_times: list = field(default_factory=list)


def run_direct(p: np.ndarray, q: np.ndarray, kernel: CouplingKernel,
               disp: DispersionRelation, params: ThermostatParams, dt: float,
               n_steps: int, noise=None, record: bool = False,
               snapshot_every: int = 0, snapshot_fn=None):
    """Advance (p, q) in place by n_steps of the splitting integrator.

    `noise` may be None (required to be so unless gamma > 0 and T > 0), an
    EnsembleNoise matching the leading batch axis, or a pre-drawn increment
    array of shape (n_steps, ...batch).  Returns a Trajectory when `record`
    is set, else None.  `snapshot_fn(p, q)` output is collected every
    `snapshot_every` steps (and at the end).

    The two work arrays, the rfft spectrum and the kick -dt (alpha * q),
    belong to the call, so concurrent calls share nothing; the drift and
    the half-kicks stage their products in whichever of the two is free at
    that point.  Every step issues exactly one rfft and one irfft.  The
    two half-kicks around a step boundary are fused into one full kick
    unless the boundary is recorded, snapshotted or the end of the run.

    A noise source that does not fit the run (another dt, another number of
    paths, a pre-drawn array of another shape or with fewer than n_steps
    steps) raises ConfigError before the first step.
    """
    _check_step(dt, disp)
    N = p.shape[-1]
    # -dt folded into the force multiplier: the irfft yields the full kick
    kick_hat = -dt * alpha_hat_rfft(kernel, N)
    gamma, T = params.gamma, params.temperature
    a = np.exp(-gamma * dt)
    b = np.sqrt(T * (1.0 - a * a))
    needs_noise = gamma > 0.0 and T > 0.0
    if needs_noise and noise is None:
        raise ConfigError("gamma > 0 and T > 0 require a noise source")
    noise_scale = b / np.sqrt(dt)

    batch = p.shape[:-1]
    if noise is not None:
        _check_noise(noise, dt, n_steps, batch)
    collect = record or (snapshot_fn is not None and snapshot_every)
    snap_every = snapshot_every if snapshot_fn is not None else 0
    traj = None
    if collect:
        traj = Trajectory(
            dt=dt,
            energies=np.empty((n_steps + 1,) + batch) if record else None,
            p0_at_ou=np.empty((n_steps,) + batch) if record else None,
            dw=np.zeros((n_steps,) + batch) if record else None,
        )

    def draw(n0, count):
        if not needs_noise:
            return None
        if isinstance(noise, np.ndarray):
            block = noise[n0 : n0 + count]
        else:
            block = noise.block(count)
        # one increment per path, shaped like p0 (a (count, 1) block on a
        # single ring gives 0-d increments)
        return block.reshape((count,) + batch)

    spectrum = np.empty(batch + (N // 2 + 1,), dtype=complex)
    kick = np.empty_like(p)
    # the spectrum's first N floats per row, free between irfft and rfft
    half = spectrum.view(float)[..., :N]
    p0 = p[..., 0]

    def update_kick():
        np.fft.rfft(q, axis=-1, out=spectrum)
        np.multiply(spectrum, kick_hat, out=spectrum)
        np.fft.irfft(spectrum, n=N, axis=-1, out=kick)

    def half_kick():
        np.multiply(kick, 0.5, out=half)
        np.add(p, half, out=p)

    def energy():
        # sum p^2 + sum q (alpha * q), with alpha * q = -kick / dt
        return np.vecdot(p, p) - np.vecdot(q, kick) / dt

    update_kick()
    synced = True           # p carries the closing half-kick of the last step
    step = 0
    while step < n_steps:
        count = min(_NOISE_BLOCK, n_steps - step)
        dw_block = draw(step, count)
        for j in range(count):
            if record:
                traj.energies[step] = energy()
            if synced:
                half_kick()
            else:
                np.add(p, kick, out=p)
            if record:
                traj.p0_at_ou[step] = p0
            if gamma > 0.0:
                np.multiply(p0, a, out=p0)
            if needs_noise:
                dw = dw_block[j]
                p0 += noise_scale * dw
                if record:
                    traj.dw[step] = dw
            # the kick is spent until update_kick refills it
            np.multiply(p, dt, out=kick)
            np.add(q, kick, out=q)
            update_kick()
            step += 1
            snap = snap_every and (step % snap_every == 0 or step == n_steps)
            synced = record or snap or step == n_steps
            if synced:
                half_kick()
            if snap:
                traj.snapshots.append(snapshot_fn(p, q))
                traj.snapshot_times.append(step * dt)
        # the spent block (dw is a view of it) goes before the next is drawn
        dw_block = dw = None
    if record:
        traj.energies[n_steps] = energy()
    return traj


def _check_step(dt: float, disp: DispersionRelation) -> None:
    """ConfigError unless 0 < dt and dt * omega_max < _STABILITY_MARGIN."""
    if dt <= 0:
        raise ConfigError("dt must be positive")
    if dt * disp.omega_max >= _STABILITY_MARGIN:
        raise ConfigError(
            f"dt={dt} violates the stability margin dt*omega_max < {_STABILITY_MARGIN}"
        )


class _RingLaw:
    """The integrator's noise-free law on a ring of N sites, per rfft mode,
    built once per (kernel, gamma, dt, N): the one place that the routes
    which do not step read the stage order from.

    The frictionless step M = H D H is a real 2 x 2 matrix per mode, with
    H p = p - h q, h = dt alpha_k / 2, and D q = q + dt p.  Its trace gives
    cos theta = 1 - h dt, and M - cos theta = Nk = [[0, -beta], [dt, 0]]
    with beta dt = sin^2 theta, so M^j = cos(j theta) + s_j Nk,
    s_j = sin(j theta) / sin theta (j at the zero mode).  The thermostat
    is the site-0 impulse u_m = (e^{-gamma dt} - 1) v_m after the first
    half-kick, v_m the site-0 momentum there, so from Z the state after i
    steps is X_i = M^i Z + sum_{m<i} u_m M^{i-1-m} g, g = H D e = (cos
    theta, dt).  In a block of at most _MARCH_LEAF steps, v_m = [H M^m Z]_0
    + (a - 1) sum_{l<m} c_{m-1-l} v_l, c_j = [H M^j g]_0, is one
    lower-triangular Toeplitz system, the same for every block, whose
    inverse `_leaf_inverse` builds once.  Sums over a block's steps are
    phase sums over the modes: with B = 16 and j = bB + r they factor into
    four fixed (B, K) tables of cos(bB theta), s_{bB}, cos(r theta), s_r.
    """

    def __init__(self, kernel: CouplingKernel, gamma: float, dt: float, N: int):
        self.dt = dt
        alpha = np.maximum(alpha_hat_rfft(kernel, N), 0.0)
        self.h = h = 0.5 * dt * alpha
        self.cos1 = cos1 = 1.0 - h * dt
        self.beta = beta = h * (2.0 - h * dt)
        self.sin2 = beta * dt
        self.theta = theta = 2.0 * np.arcsin(0.5 * dt * np.sqrt(alpha))
        self.sin1 = np.sin(theta)
        self.moving = moving = self.sin1 > 0.0
        L = _MARCH_LEAF
        B = math.isqrt(L - 1) + 1
        # [t, b]: cos(b B theta) and s_{bB} (outer), cos(r theta) and s_r (inner)
        self.outer = np.empty((2, B, theta.size))
        self.inner = np.empty((2, B, theta.size))
        for table, stride in ((self.outer, B), (self.inner, 1)):
            j = np.arange(B)[:, None] * stride
            np.multiply(j, theta, out=table[1])
            np.cos(table[1], out=table[0])
            np.sin(table[1], out=table[1])
            np.divide(table[1], self.sin1, out=table[1], where=moving)
            table[1][:, ~moving] = j
        self._buf = np.empty((2, B, theta.size))
        self._sums = np.empty((2, 2, theta.size))
        self._head = np.empty((B, B))
        self._reversed_u = np.zeros((B, B))
        # site 0 is (1/N) sum over the full DFT: the rfft modes but 0 and N/2 twice
        self.weight = np.full(theta.size, 2.0 / N)
        self.weight[[0, -1]] = 1.0 / N
        kern = np.zeros(L)
        kern[1:] = self.site0_momenta(cos1, dt, L - 1)
        self.damp = np.exp(-gamma * dt) - 1.0
        self.inverse = _leaf_inverse(kern, self.damp, 1.0, L)

    def rotate(self, zp, zq, j: int):
        """M^j (zp, zq): cos(j theta) (zp, zq) + s_j Nk (zp, zq)."""
        theta = self.theta
        s = np.full(theta.size, float(j))
        np.divide(np.sin(j * theta), self.sin1, out=s, where=self.moving)
        c = np.cos(j * theta)
        return c * zp - s * self.beta * zq, c * zq + s * self.dt * zp

    def site0_momenta(self, cp, cq, count: int) -> np.ndarray:
        """[H M^m (cp, cq)]_0 for m < count: sum_k A_k cos(m theta) + B_k s_m."""
        a_k = self.weight * np.real(cp - self.h * cq)
        b_k = self.weight * np.real(-self.beta * cq - self.h * self.dt * cp)
        coef = np.array([[a_k, b_k], [b_k, -self.sin2 * a_k]])
        np.einsum("tbk,stk->sbk", self.outer, coef, out=self._buf)
        np.einsum("sbk,srk->br", self._buf, self.inner, out=self._head)
        return self._head.reshape(-1)[:count]

    def impulses(self, zp, zq, count: int) -> np.ndarray:
        """u_m for the next count steps from (zp, zq): one leaf solve."""
        u = self.inverse[:count, :count] @ self.site0_momenta(zp, zq, count)
        u *= self.damp
        return u

    def advance(self, zp, zq, count: int):
        """The state count steps after (zp, zq): M^count Z + cs g + ss Nk g,
        cs and ss the impulses' phase sums, two `einsum` products."""
        reversed_u, buf, sums = self._reversed_u, self._buf, self._sums
        u = self.impulses(zp, zq, count)
        reversed_u.reshape(-1)[:count] = u[::-1]
        reversed_u.reshape(-1)[count:] = 0.0
        # sums[t, s] = sum_{b, r} u~[b, r] outer[t, b] inner[s, r]
        np.einsum("br,srk->sbk", reversed_u, self.inner, out=buf)
        np.einsum("tbk,sbk->tsk", self.outer, buf, out=sums)
        cs, ss = sums[0, 0] - self.sin2 * sums[1, 1], sums[1, 0] + sums[0, 1]
        zp, zq = self.rotate(zp, zq, count)
        # cs g + ss Nk g, with Nk g = (-beta dt, dt cos1)
        zp += cs * self.cos1 - ss * self.beta * self.dt
        zq += (cs + ss * self.cos1) * self.dt
        return zp, zq

    def rows(self, zp, zq, count: int, out: np.ndarray) -> None:
        """X_i, i < count, from the real spectra (zp, zq) into out[i] =
        (p spectrum, q spectrum).  M^{-m} = cos(m theta) - s_m Nk, so
        X_i = M^{i-1} (M Z + U_c g - U_s Nk g) for i >= 1, with the running
        sums U_c = sum_{m<i} u_m cos(m theta) and U_s = sum_{m<i} u_m s_m:
        no Toeplitz matrix.  The tables come _ROW_MODES modes at a time.
        """
        u = self.impulses(zp, zq, count)[: count - 1, None]
        mzp, mzq = self.rotate(zp, zq, 1)
        K, B, dt = self.theta.size, self.outer.shape[1], self.dt
        out[0, :K], out[0, K:] = zp, zq
        for k0 in range(0, K, _ROW_MODES):
            k = slice(k0, min(k0 + _ROW_MODES, K))
            sin2, beta, cos1 = self.sin2[k], self.beta[k], self.cos1[k]
            (co, so), (ci, si) = self.outer[:, :, None, k], self.inner[:, None, :, k]
            # cos(j theta) and s_j for j = bB + r < count - 1
            c = (co * ci - sin2 * so * si).reshape(B * B, -1)[: count - 1]
            s = (so * ci + co * si).reshape(B * B, -1)[: count - 1]
            uc, us = np.cumsum(u * c, axis=0), np.cumsum(u * s, axis=0)
            # W = M Z + U_c g - U_s Nk g, with Nk g = (-beta dt, dt cos1)
            wp = mzp[k] + uc * cos1 + us * (beta * dt)
            wq = mzq[k] + (uc - us * cos1) * dt
            out[1:, k] = c * wp - s * (beta * wq)
            out[1:, K:][:, k] = c * wq + s * (dt * wp)


def run_zero_temperature(p: np.ndarray, q: np.ndarray, kernel: CouplingKernel,
                         disp: DispersionRelation, params: ThermostatParams,
                         dt: float, n_steps: int, snapshot_every: int = 0,
                         snapshot_fn=None) -> list:
    """Advance one ring (p, q) in place to the state that n_steps of
    `run_direct` reach at T = 0, without stepping it: `_RingLaw.advance`
    one block of at most _MARCH_LEAF steps at a time.  As there,
    `snapshot_fn(p, q)` is called on the state every `snapshot_every`
    steps (and at the end), written into p and q, and its outputs are
    returned as a list.  Agrees with `run_direct` to round-off.  Raises
    ConfigError for T > 0, a step outside the stability margin or a batch.
    """
    _check_step(dt, disp)
    if params.temperature != 0.0:
        raise ConfigError("run_zero_temperature needs temperature 0")
    if p.ndim != 1 or q.shape != p.shape:
        raise ConfigError("run_zero_temperature advances one ring")
    N = p.size
    law = _RingLaw(kernel, params.gamma, dt, N)
    every = snapshot_every if snapshot_fn is not None else 0
    stops = [*range(every, n_steps, every), n_steps] if every else [n_steps]
    zp, zq = np.fft.rfft(p), np.fft.rfft(q)
    snapshots = []
    pos = 0
    for stop in stops:
        while pos < stop:
            count = min(_MARCH_LEAF, stop - pos)
            zp, zq = law.advance(zp, zq, count)
            pos += count
        np.fft.irfft(zp, n=N, out=p)
        np.fft.irfft(zq, n=N, out=q)
        if every and stop:
            snapshots.append(snapshot_fn(p, q))
    return snapshots


def run_vacuum_ensemble(kernel: CouplingKernel, disp: DispersionRelation,
                        params: ThermostatParams, N: int, dt: float, n_steps: int,
                        n_paths: int, noise=None,
                        out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Final (p, q), each (n_paths, N), of rings started at rest and
    advanced n_steps by `run_direct` with `noise`, without stepping them.

    Path by path the state is sum_m dw_m g_{n-1-m}: g_0 is one step from
    rest with a unit increment, scale (cos theta, dt) per mode with scale =
    sqrt(T (1 - e^{-2 gamma dt}) / dt), and g_j follows by `_RingLaw`.  A
    first pass keeps the opening state of the rows of each noise block; the
    second walks the noise forward, expands each block's rows as real
    (count, N+2) spectra and adds its increments times them to the paths'
    spectra, one product per tile of _PATH_TILE paths, the tile's noise
    drawn into one reused buffer.

    The spectra are summed in the first N+2 floats of each row of one
    complex (n_paths, N) array, `out` when given (complex128, C-contiguous,
    or ConfigError), and an irfft pair per tile writes q + ip over them; p
    and q are returned as its .imag and .real views.  Beyond it the working
    memory is 0.8 MB for 800 paths on 256 sites.  `noise` is an
    EnsembleNoise (None unless gamma > 0 and T > 0: the rings stay at
    rest).  Agrees with a batch `run_direct` on the same noise to rounding.
    """
    if out is not None:
        _check_out(out, (n_paths, N))
    needs_noise = params.gamma > 0.0 and params.temperature > 0.0
    if needs_noise and not isinstance(noise, EnsembleNoise):
        raise ConfigError("gamma > 0 and T > 0 require an EnsembleNoise source")
    if noise is not None:
        _check_noise(noise, dt, n_steps, (n_paths,))
    _check_step(dt, disp)
    state = np.empty((n_paths, N), dtype=complex) if out is None else out
    state.fill(0.0)
    p_out, q_out = state.imag, state.real
    if not needs_noise:
        return p_out, q_out
    law = _RingLaw(kernel, params.gamma, dt, N)
    decay = np.exp(-params.gamma * dt)
    scale = np.sqrt(params.temperature * (1.0 - decay * decay)) / np.sqrt(dt)
    K = N // 2 + 1
    blocks = [(m0, min(m0 + _NOISE_BLOCK, n_steps))
              for m0 in range(0, n_steps, _NOISE_BLOCK)]
    # openings[i] opens the rows of blocks[-1 - i]: g_0, then block advances
    openings = [(scale * law.cos1, np.full(K, scale * dt))]
    for m0, m1 in reversed(blocks[1:]):
        openings.append(law.advance(*openings[-1], m1 - m0))

    # each path's (p, q) spectra, summed in the first 2K floats of its row
    spectra = state.view(float)[:, : 2 * K]
    # a block's rows, a tile product and a tile of noise share one
    # workspace, allocated and released in one piece
    L, width = min(_NOISE_BLOCK, n_steps), min(_PATH_TILE, n_paths)
    rows, tile, dw = np.split(np.empty(2 * K * (L + width) + L * width),
                              [2 * K * L, 2 * K * (L + width)])
    rows, tile, dw = rows.reshape(L, 2 * K), tile.reshape(width, 2 * K), dw.reshape(L, width)
    for m0, m1 in blocks:
        count = m1 - m0
        # rows[i] pairs with dw_{m0+i}: g_{n-1-m0-i}, the law's rows read backwards
        law.rows(*openings.pop(), count, out=rows[count - 1 :: -1])
        for a in range(0, n_paths, _PATH_TILE):
            b = min(a + _PATH_TILE, n_paths)
            tile_dw = noise.block(count, (a, b), out=dw[:count, : b - a])
            spectra[a:b] += np.matmul(tile_dw.T, rows[:count], out=tile[: b - a])
            if m1 == n_steps:
                # the tile's sums are complete: copied out before its irfft
                # pair writes q + ip over them
                tile[: b - a] = spectra[a:b]
                np.fft.irfft(tile[: b - a, :K], n=N, axis=-1, out=p_out[a:b])
                np.fft.irfft(tile[: b - a, K:], n=N, axis=-1, out=q_out[a:b])
    return p_out, q_out


def _check_out(out, shape: tuple) -> None:
    """ConfigError unless `out` is a writeable C-contiguous complex128 array
    of `shape`: the in-place sums and transforms need all four."""
    if not (isinstance(out, np.ndarray) and out.dtype == np.complex128
            and out.shape == tuple(shape) and out.flags.c_contiguous
            and out.flags.writeable):
        raise ConfigError(f"out must be a writeable C-contiguous complex128 array of "
                          f"shape {tuple(shape)}, got {getattr(out, 'dtype', type(out))} "
                          f"{np.shape(out)}")


def _check_noise(noise, dt: float, n_steps: int, batch: tuple) -> None:
    """ConfigError unless `noise` feeds n_steps steps of dt to a batch of
    rings of shape `batch` (a single ring may take (n_steps, 1) noise)."""
    paths = math.prod(batch)
    if isinstance(noise, EnsembleNoise):
        if noise.n_paths != paths or not math.isclose(noise.dt, dt, rel_tol=1e-12):
            raise ConfigError(
                f"noise source drawn for {noise.n_paths} paths at dt={noise.dt}, but "
                f"the run has {paths} paths (batch shape {batch}) at dt={dt}")
    elif isinstance(noise, np.ndarray):
        tails = (batch, (1,)) if batch == () else (batch,)
        if noise.ndim == 0 or noise.shape[0] < n_steps or noise.shape[1:] not in tails:
            raise ConfigError(f"pre-drawn noise must have shape {(n_steps,) + batch} "
                              f"(or more steps), got {noise.shape}")
    else:
        raise ConfigError(f"unsupported noise source {type(noise)!r}")


def wave_field(p: np.ndarray, q: np.ndarray, disp: DispersionRelation,
               out: np.ndarray | None = None) -> np.ndarray:
    """Complex wave field psi = Omega q + i p, whose DFT is
    psi_hat(k) = omega(k) q_hat(k) + i p_hat(k).

    omega is even and q real, so Omega q = irfft(omega rfft(q)) is real: one
    rfft/irfft pair on the grid {j/N}, j = 0..N/2, written straight into
    psi.real, and psi.imag is p exactly.  The pair runs on _WAVE_ROWS rows
    at a time, so the working memory beyond psi is one small spectrum.
    psi is written into `out` when given, a C-contiguous complex128 array
    shaped like p (or ConfigError).  That may be the array q + ip itself, with p and q its
    .imag and .real views, as `run_vacuum_ensemble` returns them: each tile
    of rows is transformed before its irfft overwrites it, so psi is built
    in place with nothing beyond the spectrum (0.13 MB at N = 256), where a
    new psi for the benchmark's 800 paths is 3.3 MB.  sum |psi_y|^2 equals
    twice the Hamiltonian exactly (the omega cross term cancels in the
    k-sum by evenness).
    """
    N = p.shape[-1]
    if out is not None:
        _check_out(out, np.shape(p))
    omega = disp.omega(np.arange(N // 2 + 1) / N)
    psi = np.empty(np.shape(p), dtype=complex) if out is None else out
    psi.imag = p
    q_rows, psi_rows = np.reshape(q, (-1, N)), psi.reshape(-1, N)
    for a in range(0, len(q_rows), _WAVE_ROWS):
        spectrum = np.fft.rfft(q_rows[a : a + _WAVE_ROWS], axis=-1)
        spectrum *= omega
        np.fft.irfft(spectrum, n=N, axis=-1, out=psi_rows[a : a + _WAVE_ROWS].real)
    return psi


def wave_field_hat(p: np.ndarray, q: np.ndarray, disp: DispersionRelation) -> np.ndarray:
    """DFT of the wave field on the full grid {j/N}.

    Two complex arrays shaped like p at any time: each FFT runs in place on
    a complex copy of its real input, as `np.fft.fft` would allocate anyway.
    """
    N = p.shape[-1]
    out = np.array(q, dtype=complex)
    np.fft.fft(out, axis=-1, out=out)
    out *= omega_full_grid(disp, N)
    ip = np.array(p, dtype=complex)
    np.fft.fft(ip, axis=-1, out=ip)
    ip *= 1j
    out += ip
    return out


def state_from_wave_field(psi: np.ndarray, disp: DispersionRelation) -> tuple[np.ndarray, np.ndarray]:
    """Invert psi -> (p, q): p = Im psi; q_hat is the even-Hermitian part of
    psi_hat divided by omega (DC forced to zero in the acoustic case, where
    omega(0) = 0 makes the mode unrepresentable; packets avoid DC content).
    """
    N = psi.shape[-1]
    psi_hat = np.fft.fft(psi, axis=-1)
    om = omega_full_grid(disp, N)
    reflect = np.conj(np.roll(psi_hat[..., ::-1], 1, axis=-1))  # psi_hat*(-k)
    q_hat = np.zeros_like(psi_hat)
    nz = om > 1e-14
    q_hat[..., nz] = 0.5 * (psi_hat[..., nz] + reflect[..., nz]) / om[nz]
    p = np.fft.ifft((psi_hat - reflect) / 2j, axis=-1)
    q = np.fft.ifft(q_hat, axis=-1)
    for x in (p, q):
        if not np.max(np.abs(x.imag)) < 1e-9 * max(1.0, np.max(np.abs(x.real))):
            raise InvalidRunError("wave field is not the image of a real (p, q)")
    return p.real.copy(), q.real.copy()


# -- spectral mild route (T = 0) ---------------------------------------------

def p0_free(psi0_hat: np.ndarray, disp: DispersionRelation, t: np.ndarray) -> np.ndarray:
    """Free-evolution momentum at site 0 on the uniform grid t = 0, dt, ...:
    p0^0(t) = (1/N) sum_j Im(psi_hat_j e^{-i omega_j t}), by block phase
    rotation."""
    N = psi0_hat.shape[-1]
    dt, n = _uniform_grid(t)
    return _block_rotation(omega_full_grid(disp, N), dt, n, psi0_hat).imag / N


def p0_volterra(psi0_hat: np.ndarray, mk: MemoryKernel,
                t_end: float) -> tuple[np.ndarray, np.ndarray]:
    """Site-0 momentum from the closed memory equation (deterministic branch).

    p0 = p0^0 + g_* * p0^0 on the kernel's grid up to t_end; the unit atom
    of the memory measure contributes the first term exactly.
    """
    n_t = mk._require_on_grid(float(t_end))
    t = mk.t_grid[: n_t + 1]
    p00 = p0_free(psi0_hat, mk.disp, t)
    p0 = p00 + _trapezoid_convolve(mk.gstar_samples[: n_t + 1], p00, mk.dt)
    return t, p0


def psi_spectral_mild(psi0_hat: np.ndarray, mk: MemoryKernel,
                      t_end: float) -> np.ndarray:
    """Wave field at time t_end from the Duhamel form (T = 0)

        psi_hat(t,k) = e^{-i omega t} (psi_hat(0,k)
                       - i gamma sum_m w_m e^{i omega s_m} p0(s_m)),

    with p0 from `p0_volterra` on the kernel grid s_m = m dt and trapezoid
    weights w_m; the sum over m is the transpose block phase rotation.
    gamma = 0 is the pure phase rotation; t_end = 0 the identity.
    """
    n_t = mk._require_on_grid(float(t_end))
    om = omega_full_grid(mk.disp, psi0_hat.shape[-1])
    out = psi0_hat
    if mk.gamma != 0.0 and n_t > 0:
        _, p0 = p0_volterra(psi0_hat, mk, t_end)
        w = np.full(n_t + 1, mk.dt)
        w[[0, -1]] *= 0.5
        out = psi0_hat - 1j * mk.gamma * _block_rotation(om, mk.dt, n_t, w * p0,
                                                         transpose=True)
    return np.exp(-1j * om * mk.t_grid[n_t]) * out


def dump_snapshots(path, snapshots, dt: float, times, seed: int,
                   kernel_name: str) -> None:
    """Write (p, q) snapshots as little-endian float64 binary plus a sidecar.

    The binary file holds the snapshots concatenated, each as an (N, 2)
    array with p in column 0 and q in column 1; `<path>.json` carries N,
    dt, the snapshot times, the seed, and the kernel preset name.
    """
    import json
    from pathlib import Path

    path = Path(path)
    snaps = [np.stack([np.asarray(p), np.asarray(q)], axis=-1) for p, q in snapshots]
    if not snaps:
        raise ConfigError("dump_snapshots needs at least one snapshot")
    N = snaps[0].shape[0]
    blob = np.concatenate([s.astype("<f8").reshape(-1) for s in snaps])
    blob.tofile(path)
    sidecar = {"N": int(N), "dt": float(dt), "times": [float(t) for t in times],
               "seed": int(seed), "kernel": kernel_name,
               "layout": "per snapshot: N rows of (p, q), little-endian float64"}
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_snapshots(path) -> tuple[list[tuple[np.ndarray, np.ndarray]], dict]:
    """Inverse of dump_snapshots: list of (p, q) arrays plus the sidecar.

    ConfigError unless the binary file holds exactly the len(times) * 2N
    floats its sidecar describes (a truncated or overlong file).
    """
    import json
    from pathlib import Path

    path = Path(path)
    meta = json.loads(Path(str(path) + ".json").read_text())
    N, count = meta["N"], len(meta["times"])
    per = N * 2
    size = path.stat().st_size
    if size != 8 * per * count:
        raise ConfigError(f"{path} holds {size} bytes, but its sidecar describes "
                          f"{count} snapshots of N={N}, {8 * per * count} bytes")
    blob = np.fromfile(path, dtype="<f8")
    out = []
    for i in range(count):
        s = blob[i * per : (i + 1) * per].reshape(N, 2)
        out.append((s[:, 0].copy(), s[:, 1].copy()))
    return out, meta


def energy_balance_residual(traj: Trajectory, params: ThermostatParams) -> float:
    """Normalized defect of the pathwise energy identity

        Delta sum|psi|^2 = (-2 gamma p0^2 + 2 gamma T) dt + 2 sqrt(2 gamma T) p0 dW

    accumulated over the recorded trajectory.  Zero for gamma = 0 up to
    integrator roundoff; O(dt) otherwise.
    """
    gamma, T = params.gamma, params.temperature
    if gamma > 0 and T > 0 and traj.dw is None:
        raise ConfigError("recorded noise increments required when T > 0")
    p0 = traj.p0_at_ou
    drift = np.sum((-2.0 * gamma * p0**2 + 2.0 * gamma * T) * traj.dt, axis=0)
    mart = 2.0 * np.sqrt(2.0 * gamma * T) * np.sum(p0 * traj.dw, axis=0)
    defect = traj.energies[-1] - traj.energies[0] - drift - mart
    scale = max(float(np.max(np.abs(traj.energies))), 1e-300)
    return float(np.max(np.abs(defect))) / scale
