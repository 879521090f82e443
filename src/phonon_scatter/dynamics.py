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
Verlet.  Consecutive half-kicks are fused between steps, costing one FFT
pair per step.  All state arrays may carry leading batch axes, which is how
ensembles are integrated.

The second, independent route (zero temperature only) evolves the wave
field spectrally: the free momentum history at site 0 is convolved with the
memory measure to give p0(t), and psi_hat(t,k) follows from the Duhamel
form e^{-i omega t}(psi_hat(0,k) - i gamma int_0^t e^{i omega s} p0(s) ds).
Both phase sums, over k for p0^0 and over s for psi_hat, are block phase
rotations on the kernel grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidRunError
from .lattice import CouplingKernel, DispersionRelation, hat_alpha
from .memory import MemoryKernel, _block_rotation, _trapezoid_convolve, _uniform_grid

_STABILITY_MARGIN = 0.5
# steps of noise drawn per EnsembleNoise block
_NOISE_BLOCK = 4096


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
    Blocks of shape (n_steps, n_paths) are drawn sequentially.
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
    """
    if dt <= 0:
        raise ConfigError("dt must be positive")
    if dt * disp.omega_max >= _STABILITY_MARGIN:
        raise ConfigError(
            f"dt={dt} violates the stability margin dt*omega_max < {_STABILITY_MARGIN}"
        )
    N = p.shape[-1]
    ah = alpha_hat_rfft(kernel, N)
    gamma, T = params.gamma, params.temperature
    a = np.exp(-gamma * dt)
    b = np.sqrt(T * (1.0 - a * a))
    needs_noise = gamma > 0.0 and T > 0.0
    if needs_noise and noise is None:
        raise ConfigError("gamma > 0 and T > 0 require a noise source")
    sqrt_dt = np.sqrt(dt)

    batch = p.shape[:-1]
    collect = record or (snapshot_fn is not None and snapshot_every)
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
            return noise[n0 : n0 + count]
        if isinstance(noise, EnsembleNoise):
            return noise.block(count)
        raise ConfigError(f"unsupported noise source {type(noise)!r}")

    conv = np.fft.irfft(ah * np.fft.rfft(q, axis=-1), n=N, axis=-1)
    step = 0
    while step < n_steps:
        count = min(_NOISE_BLOCK, n_steps - step)
        dw_block = draw(step, count)
        for j in range(count):
            if record:
                traj.energies[step] = np.sum(p * p, axis=-1) + np.sum(q * conv, axis=-1)
            p -= (0.5 * dt) * conv
            p0 = p[..., 0]
            if record:
                traj.p0_at_ou[step] = p0
            if needs_noise:
                dw = dw_block[j]
                p[..., 0] = a * p0 + (b / sqrt_dt) * dw
                if record:
                    traj.dw[step] = dw
            elif gamma > 0.0:
                p[..., 0] = a * p0
            q += dt * p
            conv = np.fft.irfft(ah * np.fft.rfft(q, axis=-1), n=N, axis=-1)
            p -= (0.5 * dt) * conv
            step += 1
            if snapshot_fn is not None and snapshot_every and (
                step % snapshot_every == 0 or step == n_steps
            ):
                traj.snapshots.append(snapshot_fn(p, q))
                traj.snapshot_times.append(step * dt)
    if record:
        traj.energies[n_steps] = np.sum(p * p, axis=-1) + np.sum(q * conv, axis=-1)
    return traj


def wave_field(p: np.ndarray, q: np.ndarray, disp: DispersionRelation) -> np.ndarray:
    """Complex wave field psi with psi_hat(k) = omega(k) q_hat(k) + i p_hat(k).

    Computed spectrally on the discrete grid {j/N}; sum |psi_y|^2 equals
    twice the Hamiltonian exactly (the omega cross term cancels in the
    k-sum by evenness).
    """
    return np.fft.ifft(wave_field_hat(p, q, disp), axis=-1)


def wave_field_hat(p: np.ndarray, q: np.ndarray, disp: DispersionRelation) -> np.ndarray:
    """DFT of the wave field on the full grid {j/N}."""
    N = p.shape[-1]
    om = omega_full_grid(disp, N)
    return om * np.fft.fft(q, axis=-1) + 1j * np.fft.fft(p, axis=-1)


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
