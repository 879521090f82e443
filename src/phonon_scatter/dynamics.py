"""Finite-lattice dynamics: direct stochastic splitting and the spectral
mild solution.

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
is how ensembles are integrated: the harness hands each worker a row slice
of the ensemble's output arrays, which it integrates in place.  Noise is
drawn in blocks of _NOISE_BLOCK = 256 steps, 0.8 MB for 400 paths, each
freed before the next is drawn, and the Philox streams make the draws
independent of the block size.

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
from .memory import MemoryKernel, _block_rotation, _trapezoid_convolve, _uniform_grid

_STABILITY_MARGIN = 0.5
# steps of noise drawn per block: (256, n_paths) floats, 0.8 MB for 400 paths
_NOISE_BLOCK = 256
# rows per rfft/irfft pair in wave_field: a (64, N/2+1) spectrum at a time
_WAVE_ROWS = 64


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

    def block(self, n_steps: int) -> np.ndarray:
        out = np.empty((n_steps, self.n_paths))
        s = np.sqrt(self.dt)
        for i, rng in enumerate(self._rngs):
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

    def energy(self, kernel: CouplingKernel) -> float:
        """Total energy sum |psi_y|^2 = 2 H(p, q) of the periodic surrogate."""
        ah = alpha_hat_rfft(kernel, self.N)
        conv = np.fft.irfft(ah * np.fft.rfft(self.q, axis=-1), n=self.N, axis=-1)
        return float(np.sum(self.p**2, axis=-1) + np.sum(self.q * conv, axis=-1))


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
    if dt <= 0:
        raise ConfigError("dt must be positive")
    if dt * disp.omega_max >= _STABILITY_MARGIN:
        raise ConfigError(
            f"dt={dt} violates the stability margin dt*omega_max < {_STABILITY_MARGIN}"
        )
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


def wave_field(p: np.ndarray, q: np.ndarray, disp: DispersionRelation) -> np.ndarray:
    """Complex wave field psi = Omega q + i p, whose DFT is
    psi_hat(k) = omega(k) q_hat(k) + i p_hat(k).

    omega is even and q real, so Omega q = irfft(omega rfft(q)) is real: one
    rfft/irfft pair on the grid {j/N}, j = 0..N/2, written straight into
    psi.real, and psi.imag is p exactly.  The pair runs on _WAVE_ROWS rows
    at a time, so the working memory beyond psi is one small spectrum.
    sum |psi_y|^2 equals twice the Hamiltonian exactly (the omega cross
    term cancels in the k-sum by evenness).
    """
    N = p.shape[-1]
    omega = disp.omega(np.arange(N // 2 + 1) / N)
    psi = np.empty(np.shape(p), dtype=complex)
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
    """Inverse of dump_snapshots: list of (p, q) arrays plus the sidecar."""
    import json
    from pathlib import Path

    path = Path(path)
    meta = json.loads(Path(str(path) + ".json").read_text())
    N = meta["N"]
    blob = np.fromfile(path, dtype="<f8")
    per = N * 2
    out = []
    for i in range(blob.size // per):
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
