"""Thermostat memory objects: J(t), its Laplace transform, and the resolvent.

The pinned site feeds back on itself through the chain with the memory
function J(t) = int_T cos(omega(k) t) dk.  Its Laplace transform
J_tilde(lambda) = int_T lambda / (lambda^2 + omega^2(k)) dk defines the
resolvent g_tilde(lambda) = 1 / (1 + gamma J_tilde(lambda)), which is the
Laplace transform of the measure g(dt) = delta_0(dt) + g_*(t) dt.  The
density g_* solves the Volterra equation

    g_*(t) + gamma (J * g_*)(t) = -gamma J(t),

marched here with a product-trapezoidal rule (second order in dt); an
independent convolution-series evaluator sum_n (-gamma)^n J^{*n}(t) is kept
as a test oracle.  The atom + density split is exact: the Dirac mass is
never discretized onto the time grid.

J is sampled on a uniform grid m dt, m = 0..n, by block phase rotation
(`_block_rotation`): with B ~ sqrt(n+1) and m = bB + r the phase
e^{-i omega (bB + r) dt} factors into an outer and an inner table, so a
phase sum over the whole grid is a product of two small matrices.  The
dynamics module uses the same helper for the free momentum p0^0 and for
the mild solution.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DomainError, HorizonError, InvalidRunError
from .lattice import DispersionRelation, panel_integrate

# width of the resolvent panels next to the resonant wavenumber or a band
# edge; the Lorentzian there has width ~eps/omega', far wider for eps >= 1e-4
_RESOLVENT_PANEL_BASE = 1e-6


def _uniform_grid(t) -> tuple[float, int]:
    """(dt, n) of the grid t = 0, dt, ..., n dt, checked to round-off."""
    t = np.asarray(t, dtype=float)
    n = t.size - 1
    dt = float(t[-1]) / n if t.ndim == 1 and n > 0 else 0.0
    if t.ndim != 1 or t.size == 0 or not dt >= 0 or not np.all(
            np.abs(t - dt * np.arange(n + 1)) <= 1e-12 * max(float(t[-1]), 1.0)):
        raise DomainError("time must be a scalar t >= 0 or an ascending uniform "
                          "grid 0, dt, ..., n dt")
    return dt, n


def _block_rotation(om, dt: float, n: int, c, transpose: bool = False) -> np.ndarray:
    """Phase sums on the grid m dt, m = 0..n, by block phase rotation.

    Forward: S_m = sum_k c_k e^{-i om_k m dt} for m = 0..n.  Transpose:
    A_k = sum_m c_m e^{+i om_k m dt}.  With B ~ sqrt(n+1) and m = bB + r,
    e^{-i om m dt} = outer[b, k] inner[k, r], so both sums are matrix
    products of two tables of (n+1)/B and B phases per om_k, not n+1.
    """
    om = np.asarray(om, dtype=float)
    B = math.isqrt(n) + 1
    nb = -(-(n + 1) // B)
    outer = np.exp(-1j * np.multiply.outer(np.arange(nb) * (B * dt), om))
    inner = np.exp(-1j * np.multiply.outer(om, np.arange(B) * dt))
    if not transpose:
        return ((outer * c) @ inner).reshape(-1)[: n + 1]
    blocks = np.zeros(nb * B, dtype=complex)
    blocks[: n + 1] = c
    return np.sum(np.conj(outer) * (blocks.reshape(nb, B) @ np.conj(inner).T), axis=0)


def j_eval(disp: DispersionRelation, t) -> np.ndarray | float:
    """Memory function J(t) = int_T cos(omega(k) t) dk.

    `t` is a scalar t >= 0 or an ascending uniform grid 0, dt, ..., n dt
    (checked to round-off; anything else raises DomainError).  Trapezoid
    quadrature on the smooth periodic integrand, with max(2048,
    8 ceil(t_max omega_max)) nodes on [0, 1/2] so the phase resolution
    holds out to the last time; the grid is summed by block phase rotation.
    """
    scalar = np.ndim(t) == 0
    grid = np.array([0.0, t], dtype=float) if scalar else t
    dt, n = _uniform_grid(grid)
    n_k = max(2048, 8 * math.ceil(n * dt * disp.omega_max))
    w = np.full(n_k + 1, 1.0 / n_k)  # spacing 0.5/n_k, doubled for the two half-bands
    w[[0, -1]] *= 0.5
    out = _block_rotation(disp.omega(np.linspace(0.0, 0.5, n_k + 1)), dt, n, w).real
    return float(out[-1]) if scalar else out


def j_laplace_batch(disp: DispersionRelation, eps, u: float,
                    pole: float | None = None) -> np.ndarray:
    """J_tilde(eps_i - i u) = int_T lambda/(lambda^2+omega^2) dk for every
    eps_i > 0, in one panel quadrature.

    `pole` is the resonant wavenumber l0 in [0, 1/2] with omega(l0) = |u|,
    where the integrand is a Lorentzian of width ~eps/omega'(l0); the panels
    are graded toward it from both sides.  Without a pole (|u| outside the
    band) they are graded toward the band edges 0 and 1/2 instead.  All eps
    share the nodes, so the sharpest Lorentzian sets the refinement.
    """
    lam = np.asarray(eps, dtype=float) - 1j * u
    base = _RESOLVENT_PANEL_BASE

    def integrand(ell):
        w2 = disp.omega(ell) ** 2
        return lam[:, None] / (lam[:, None] ** 2 + w2)

    if pole is None:
        half = panel_integrate(integrand, 0.0, 0.5, hot_a=True, hot_b=True, base=base)
    else:
        half = (panel_integrate(integrand, 0.0, pole, hot_b=True, base=base)
                + panel_integrate(integrand, pole, 0.5, hot_a=True, base=base))
    return 2.0 * half


def j_laplace(disp: DispersionRelation, lam: complex) -> complex:
    """Laplace transform J_tilde(lambda) = int_T lambda/(lambda^2+omega^2) dk.

    Defined for Re lambda > 0 (boundary values toward the imaginary axis are
    the business of the interface-scattering module, which calls
    `j_laplace_batch` with the resonant wavenumber it already knows).  When
    |Im lambda| falls inside the band the integrand is sharply peaked at the
    resonant wavenumber, found here by the inverse branch, and the panels
    are graded toward it.
    """
    lam = complex(lam)
    if lam.real <= 0.0:
        raise DomainError("J_tilde requires Re lambda > 0")
    u = -lam.imag  # lambda = eps - i u resonates where omega(l) = |u|
    pole = None
    if disp.omega_min < abs(u) < disp.omega_max:
        pole = disp.inverse_branch(abs(u))
    return complex(j_laplace_batch(disp, [lam.real], u, pole)[0])


class MemoryKernel:
    """Sampled J and Volterra resolvent density g_* on a uniform time grid.

    Construction marches the Volterra equation once; the object is immutable
    afterwards and cheap to share.  gamma = 0 is allowed (g_* = 0); the
    memory measure is then the unit atom alone.
    """

    def __init__(self, disp: DispersionRelation, gamma: float, dt: float = 1e-3,
                 horizon: float = 50.0):
        if gamma < 0:
            raise ConfigError("gamma must be >= 0")
        if dt <= 0 or horizon < dt:
            raise ConfigError("need dt > 0 and horizon >= dt")
        self.disp = disp
        self.gamma = float(gamma)
        self.dt = float(dt)
        self.n_steps = int(round(horizon / dt))
        self.horizon = self.n_steps * self.dt
        self.t_grid = np.arange(self.n_steps + 1) * self.dt
        self.j_samples = j_eval(disp, self.t_grid)
        self.gstar_samples = self._march_volterra(self.j_samples, self.gamma, self.dt)
        if not (abs(self.j_samples[0] - 1.0) < 1e-12
                and np.max(np.abs(self.j_samples)) <= 1.0 + 1e-9):
            raise InvalidRunError("memory function violates J(0) = 1, |J| <= 1")

    @staticmethod
    def _march_volterra(j: np.ndarray, gamma: float, dt: float) -> np.ndarray:
        """Product-trapezoid march of g_* + gamma J*g_* = -gamma J."""
        n = j.size
        g = np.zeros(n)
        g[0] = -gamma
        if gamma == 0.0:
            return g
        diag = 1.0 + 0.5 * gamma * dt * j[0]
        for m in range(1, n):
            # trapezoid for int_0^{t_m} J(t_m - s) g(s) ds with g(t_m) unknown
            conv = 0.5 * j[m] * g[0] + np.dot(j[m - 1 : 0 : -1], g[1:m])
            g[m] = (-gamma * j[m] - gamma * dt * conv) / diag
        return g

    # -- evaluators ---------------------------------------------------------

    def j_laplace(self, lam: complex) -> complex:
        return j_laplace(self.disp, lam)

    def g_tilde(self, lam: complex) -> complex:
        """Resolvent (1 + gamma J_tilde(lambda))^{-1}; |g_tilde| <= 1 on C_+."""
        return 1.0 / (1.0 + self.gamma * self.j_laplace(lam))

    def _require_on_grid(self, t: float) -> int:
        if t < 0:
            raise DomainError("time must be >= 0")
        if t > self.horizon + 1e-12:
            raise HorizonError(
                f"t={t} beyond horizon {self.horizon}; rebuild the kernel with a larger horizon"
            )
        return min(int(round(t / self.dt)), self.n_steps)

    def g_star(self, t) -> np.ndarray | float:
        """Linear interpolation of the marched density."""
        tarr = np.asarray(t, dtype=float)
        if np.any(tarr < 0):
            raise DomainError("g_* requires t >= 0")
        if np.any(tarr > self.horizon + 1e-12):
            raise HorizonError("g_* evaluated beyond the horizon")
        out = np.interp(tarr, self.t_grid, self.gstar_samples)
        return float(out) if tarr.ndim == 0 else out

    def volterra_residual(self) -> float:
        """Max |g_* + gamma J*g_* + gamma J| over the grid (trapezoid conv)."""
        conv = _trapezoid_convolve(self.j_samples, self.gstar_samples, self.dt)
        return float(np.max(np.abs(self.gstar_samples + self.gamma * conv
                                   + self.gamma * self.j_samples)))

    def phase_integral(self, k, n_t: int | None = None) -> np.ndarray:
        """Phi(t, k) = 1 + int_0^t e^{i omega(k) tau} g_*(tau) dtau on the grid.

        Returned as an array of shape (len(k_arr), n_t+1); Phi(t, k) -> nu(k)
        as t grows.  Cumulative trapezoid of the sampled density plus the
        unit atom at tau = 0.
        """
        karr = np.atleast_1d(np.asarray(k, dtype=float))
        n_t = self.n_steps if n_t is None else min(n_t, self.n_steps)
        t = self.t_grid[: n_t + 1]
        out = np.empty((karr.size, n_t + 1), dtype=complex)
        chunk = max(1, int(4e6 // (n_t + 1)))
        for s in range(0, karr.size, chunk):
            om = np.asarray(self.disp.omega(karr[s : s + chunk]))
            f = np.exp(1j * np.multiply.outer(om, t)) * self.gstar_samples[: n_t + 1]
            c = np.empty_like(f)
            c[:, 0] = 0.0
            np.cumsum(0.5 * (f[:, 1:] + f[:, :-1]) * self.dt, axis=1, out=c[:, 1:])
            out[s : s + chunk] = 1.0 + c
        return out

    def phi(self, t: float, k) -> np.ndarray | complex:
        """Convolution kernel phi(t,k) = e^{-i omega(k) t} Phi(t, k).

        phi(0, k) = 1 (only the unit atom contributes); for gamma = 0 it is
        the pure phase e^{-i omega(k) t}.  t must lie within the horizon.
        """
        idx = self._require_on_grid(float(t))
        karr = np.asarray(k, dtype=float)
        scalar = karr.ndim == 0
        karr = np.atleast_1d(karr)
        phase_rows = self.phase_integral(karr, n_t=idx)[:, -1]
        om = np.asarray(self.disp.omega(karr))
        out = np.exp(-1j * om * float(t)) * phase_rows
        return complex(out[0]) if scalar else out


def _trapezoid_convolve(f: np.ndarray, g: np.ndarray, dt: float) -> np.ndarray:
    """(f * g)(t_j) = int_0^{t_j} f(t_j - s) g(s) ds, trapezoid weights."""
    n = f.size
    full = np.convolve(f, g)[:n]
    full -= 0.5 * (f[0] * g + g[0] * f)
    full[0] = 0.0
    return full * dt


def g_star_series_curve(disp: DispersionRelation, gamma: float, t_end: float,
                        dt: float, n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convolution-series oracle sum_{n=1}^{n_max} (-gamma)^n J^{*n} on a grid.

    Returns (t_grid, series values, truncation bounds).  The bound is the
    tail estimate (gamma t)^{n_max+1} e^{gamma t} / (n_max+1)!.  Quadratic
    cost in the grid size; test oracle only, the production path is the
    Volterra march.
    """
    if n_max < 1:
        raise ConfigError("n_max must be >= 1")
    n = int(round(t_end / dt))
    t = np.arange(n + 1) * dt
    j = j_eval(disp, t)
    power = j.copy()
    total = (-gamma) * power
    sign = -gamma
    for _ in range(2, n_max + 1):
        power = _trapezoid_convolve(j, power, dt)
        sign *= -gamma
        total += sign * power
    bound = (gamma * t) ** (n_max + 1) * np.exp(gamma * t) / math.factorial(n_max + 1)
    return t, total, bound


def g_star_series(disp: DispersionRelation, gamma: float, t: float,
                  n_max: int, dt: float = 1e-3) -> tuple[float, float]:
    """Series value at one time plus its truncation bound."""
    if t < 0:
        raise DomainError("t must be >= 0")
    if t == 0.0:
        return -gamma, 0.0
    grid, vals, bounds = g_star_series_curve(disp, gamma, t, dt, n_max)
    return float(vals[-1]), float(bounds[-1])
