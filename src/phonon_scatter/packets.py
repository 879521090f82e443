"""Initial measures: random-phase wave packets and Gibbs equilibrium states.

The canonical packet is

    psi_y = f(eps y - x_c) e^{2 pi i k_c y} e^{i Theta},

with f a smooth compactly supported envelope, eps = 1/N, and Theta a single
global phase, uniform on [0, 2 pi).  The global phase makes the non-
conjugate pair average <psi_hat(k) psi_hat(l)> vanish exactly (e^{2 i Theta}
averages to zero, already over the four-point set {0, pi/2, pi, 3 pi/2}),
while energies and the limit profile are phase-independent, so a zero-
temperature scattering run is deterministic given the seed.

Amplitudes are O(1) per site: that normalization makes the macroscopic
energy eps * sum_y |psi_y|^2 equal int |f|^2 dx to Riemann-sum accuracy
(the shipped envelopes have vanishing edge derivatives, so the defect is
far below 1e-6 at desk-scale N) and puts the packet on the same scale as
the equilibrium field, whose phase-space density reads the temperature
directly.  The packet's initial density concentrates at (x - x_c) in the
envelope support and k = k_c; its eta-transform inherits the envelope's
Fourier decay (cosine-squared envelope: |W0_hat(eta)| ~ eta^{-5}).

Theta is drawn from `init_rng(seed)`, a pure-Python Philox4x64-10 stream
(Salmon et al., SC'11) whose uniform draws are bitwise those of
np.random.Generator(np.random.Philox(key)) on the same key, so the packet
path never imports numpy.random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ChainState, site_coordinates, state_from_wave_field
from .errors import ConfigError
from .lattice import DispersionRelation, panel_integrate


class Envelope:
    """A named smooth bump on [-width, width] with unit peak."""

    def __init__(self, name: str, width: float):
        if width <= 0:
            raise ConfigError("envelope width must be positive")
        if name not in ("cosine", "smooth"):
            raise ConfigError(f"unknown envelope {name!r}")
        self.name = name
        self.width = float(width)

    def profile(self, x) -> np.ndarray:
        s = np.asarray(x, dtype=float) / self.width
        inside = np.abs(s) < 1.0
        if self.name == "cosine":
            return np.where(inside, np.cos(0.5 * np.pi * np.clip(s, -1, 1)) ** 2, 0.0)
        out = np.zeros_like(s)
        arg = 1.0 - np.minimum(s[inside] ** 2, 1.0 - 1e-300)
        out[inside] = np.exp(1.0 - 1.0 / arg)
        return out

    def l2_squared(self) -> float:
        """int |f(x)|^2 dx; closed form for the cosine bump (3w/4), Gauss-
        Legendre panels for the smooth bump (flat to all orders at +-w)."""
        if self.name == "cosine":
            return 0.75 * self.width
        return float(panel_integrate(lambda x: self.profile(x) ** 2,
                                     -self.width, self.width, base=self.width / 16))


@dataclass(frozen=True)
class WavePacketSpec:
    """Macroscopic packet parameters (eps = 1/N is supplied at sampling)."""

    x_center: float
    k_center: float
    width: float
    envelope: str = "cosine"
    phase_random: bool = True

    def envelope_obj(self) -> Envelope:
        return Envelope(self.envelope, self.width)


def sample_initial(spec: WavePacketSpec, N: int, disp: DispersionRelation,
                   rng: PhiloxStream | None = None,
                   delta_excl: float = 0.02) -> ChainState:
    """Realize the packet on an N-site ring as a (p, q) state.

    A phase_random packet takes Theta = rng.uniform(0, 2 pi): one draw from
    `init_rng`'s stream, or from any numpy Generator.

    Preconditions: the envelope support must fit inside the macroscopic
    window [-1/2, 1/2) with margin, k_center must keep clear of the
    zero-velocity set, and an acoustic chain cannot carry packet content at
    k = 0 (the position mode is unrepresentable there).
    """
    env = spec.envelope_obj()
    if abs(spec.x_center) + spec.width >= 0.5 - 1.0 / N:
        raise ConfigError("packet support does not fit in the macroscopic window")
    if disp.distance_to_stationary(spec.k_center) <= delta_excl:
        raise ConfigError(
            f"k_center={spec.k_center} lies within {delta_excl} of the zero-velocity set"
        )
    if disp.kind == "acoustic" and abs(spec.k_center) <= delta_excl:
        raise ConfigError("acoustic chain: packet k_center too close to the k=0 mode")
    eps = 1.0 / N
    y = site_coordinates(N)
    theta = 0.0
    if spec.phase_random:
        if rng is None:
            raise ConfigError("phase_random packets need an rng")
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
    psi = (env.profile(eps * y - spec.x_center)
           * np.exp(2j * np.pi * spec.k_center * y + 1j * theta))
    p, q = state_from_wave_field(psi, disp)
    return ChainState(N, p, q)


def gibbs_state(N: int, disp: DispersionRelation, temperature: float,
                rng: np.random.Generator, batch: int | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Sample (p, q) from the Gibbs measure at the given temperature.

    Momenta are i.i.d. N(0, T) in real space; positions are filtered white
    noise with E|q_hat(k)|^2 = N T / omega^2(k) mode by mode.  The acoustic
    zero mode is pinned to zero (it carries no potential energy).  With
    `batch` set, returns arrays of shape (batch, N).
    """
    if temperature < 0:
        raise ConfigError("temperature must be >= 0")
    shape = (N,) if batch is None else (batch, N)
    sqT = math.sqrt(temperature)
    p = rng.standard_normal(shape) * sqT
    om = np.asarray(disp.omega(np.arange(N) / N))
    filt = np.zeros(N)
    nz = om > 1e-14
    filt[nz] = sqT / om[nz]
    xi = rng.standard_normal(shape)
    q = np.fft.ifft(np.fft.fft(xi, axis=-1) * filt, axis=-1).real.copy()
    return p, q


_MASK = (1 << 64) - 1
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


class PhiloxStream:
    """Philox4x64-10 on a 128-bit key, drawing uniforms as numpy does.

    The 256-bit counter goes up by one before each block of four words, a
    block's words are used in order, and a uniform on [low, high) is
    low + (high - low) (word >> 11) 2^-53: draw after draw the bits of
    np.random.Generator(np.random.Philox(key=key)).uniform(low, high).
    """

    def __init__(self, key: int):
        self._key, self._counter, self._block = (key & _MASK, key >> 64), 0, []

    def _next64(self) -> int:
        if not self._block:
            self._counter += 1
            c = self._counter
            x0, x1, x2, x3 = c & _MASK, (c >> 64) & _MASK, (c >> 128) & _MASK, c >> 192
            k0, k1 = self._key
            for _ in range(10):
                a, b = _PHILOX_M[0] * x0, _PHILOX_M[1] * x2
                x0, x1, x2, x3 = (b >> 64) ^ x1 ^ k0, b & _MASK, (a >> 64) ^ x3 ^ k1, a & _MASK
                k0, k1 = (k0 + _PHILOX_W[0]) & _MASK, (k1 + _PHILOX_W[1]) & _MASK
            self._block = [x3, x2, x1, x0]
        return self._block.pop()

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return low + (high - low) * ((self._next64() >> 11) * 2.0 ** -53)


def init_rng(seed0: int) -> PhiloxStream:
    """Initial-condition stream on the key 2^64 + seed0, disjoint from the
    per-path noise keys seed0 + i; seed0 must lie in [0, 2^64)."""
    if not 0 <= seed0 <= _MASK:
        raise ConfigError(f"seed must be an int in [0, 2**64), got {seed0!r}")
    return PhiloxStream((1 << 64) + int(seed0))


def path_init_rng(seed0: int, path_id: int) -> np.random.Generator:
    """Per-path initial-condition stream (disjoint from noise and init keys)."""
    return np.random.Generator(np.random.Philox(key=(2 << 64) + int(seed0) + int(path_id)))


def gibbs_ensemble(N: int, disp: DispersionRelation, temperature: float,
                   seed0: int, path_ids: range) -> tuple[np.ndarray, np.ndarray]:
    """Independent Gibbs samples, one per path id.

    Each row is drawn from its own counter-based stream keyed by the global
    path id, so the ensemble is identical however it is chunked across
    workers.
    """
    p = np.empty((len(path_ids), N))
    q = np.empty((len(path_ids), N))
    for row, pid in enumerate(path_ids):
        p[row], q[row] = gibbs_state(N, disp, temperature,
                                     path_init_rng(seed0, pid))
    return p, q
