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
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DomainError, HorizonError, InvalidRunError
from .lattice import DispersionRelation, panel_integrate

_BASE_NODES = 2048
_NODES_PER_TIME = 64
# the kernel-grid sampler only needs a few nodes per k-oscillation for the
# (spectrally accurate) periodic trapezoid rule; accuracy is pinned by tests
_GRID_NODES_PER_TIME = 8
# width of the resolvent panels next to the resonant wavenumber or a band
# edge; the Lorentzian there has width ~eps/omega', far wider for eps >= 1e-4
_RESOLVENT_PANEL_BASE = 1e-6


def _j_quadrature_nodes(disp: DispersionRelation, t_max: float,
                        per_time: int = _NODES_PER_TIME) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid nodes/weights on [0, 1/2]; count grows with t to hold phase
    resolution constant (the integrand oscillates ~ t * omega_max)."""
    n = max(_BASE_NODES, per_time * math.ceil(max(t_max, 0.0) * disp.omega_max))
    k = np.linspace(0.0, 0.5, n + 1)
    w = np.full(n + 1, 1.0 / n)  # spacing 0.5/n, doubled for the two half-bands
    w[0] *= 0.5
    w[-1] *= 0.5
    return k, w


def j_eval(disp: DispersionRelation, t,
           per_time: int = _NODES_PER_TIME) -> np.ndarray | float:
    """Memory function J(t) = int_T cos(omega(k) t) dk, t >= 0.

    Trapezoid quadrature on the (smooth, periodic) integrand; node count
    scales with t so the relative error stays below 1e-10 out to t ~ 1e3.
    """
    tarr = np.asarray(t, dtype=float)
    if np.any(tarr < 0):
        raise DomainError("J(t) requires t >= 0")
    scalar = tarr.ndim == 0
    tarr = np.atleast_1d(tarr)
    out = np.empty_like(tarr)
    # process in ascending-t blocks sized so the (t, k) cosine table stays
    # bounded while the node count tracks each block's own time range
    order = np.argsort(tarr)
    s = 0
    while s < tarr.size:
        t_here = float(tarr[order[s]])
        n_nodes = max(_BASE_NODES,
                      per_time * math.ceil(max(t_here, 1.0) * disp.omega_max))
        block = max(64, int(2e7) // n_nodes)
        idx = order[s : s + block]
        ts = tarr[idx]
        k, w = _j_quadrature_nodes(disp, float(ts[-1]), per_time)
        om = disp.omega(k)
        out[idx] = np.cos(np.multiply.outer(ts, om)) @ w
        s += block
    return float(out[0]) if scalar else out


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
        self.j_samples = j_eval(disp, self.t_grid, per_time=_GRID_NODES_PER_TIME)
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
