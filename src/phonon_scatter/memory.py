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

Every discrete convolution goes through one FFT primitive
(`_fft_convolve`).  The march sums each step's history divide-and-conquer
(Hairer, Lubich and Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985): the
left half of a block is solved first and its whole contribution to the
right half is added by one FFT convolution, so n steps cost O(n log^2 n)
instead of O(n^2).  Every short block (leaf) solves the same
lower-triangular Toeplitz system, whose inverse is lower-triangular
Toeplitz too: its first column is marched once per kernel
(`_leaf_inverse`, which the dynamics module's zero-temperature route
shares), and each leaf is then one matrix-vector product with that
inverse.  The equations solved are the step loop's; only the order of the
arithmetic differs, so the density agrees with the step loop to round-off,
not bitwise.

J is sampled on a uniform grid m dt, m = 0..n, by block phase rotation
(`_block_rotation`): with B ~ sqrt(n+1) and m = bB + r the phase
e^{-i omega (bB + r) dt} factors into an outer and an inner table, so a
phase sum over the whole grid is a product of two small matrices.  The
tables are built for a chunk of about _PHASE_CHUNK / B frequencies at a
time, so a phase sum over n_omega frequencies works in O(chunk (B + n/B))
= O(_PHASE_CHUNK) memory plus its result, where whole tables took
O(n_omega sqrt(n)): 233 MB for J at n = 100,000.  `phase_integral` uses
the same chunk.  The dynamics module uses the same helper for the free
momentum p0^0 and for the mild solution.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DomainError, HorizonError, InvalidRunError
from .lattice import DispersionRelation, panel_integrate

# width of the resolvent panels next to the resonant wavenumber or a band
# edge; the Lorentzian there has width ~eps/omega', far wider for eps >= 1e-4
_RESOLVENT_PANEL_BASE = 1e-6

# blocks of the divide-and-conquer march this short are solved directly,
# by one product with the inverse of the leaf system
_MARCH_LEAF = 256

# phases per table in one chunk of frequencies (of `_block_rotation` and
# `MemoryKernel.phase_integral`): each temporary stays near 0.5 MB, whatever
# the grid or the number of frequencies
_PHASE_CHUNK = 1 << 15


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

    The tables are built for a chunk of about _PHASE_CHUNK / B frequencies
    at a time: the forward sum accumulates each chunk's product into one
    (n+1)/B x B array, the transpose writes each chunk's entries of A.
    Working memory is O(chunk (B + n/B)) plus the result, where whole
    tables took O(n_omega sqrt(n)).
    """
    om = np.asarray(om, dtype=float)
    c = np.asarray(c)
    B = math.isqrt(n) + 1
    nb = -(-(n + 1) // B)
    outer_t = np.arange(nb) * (B * dt)
    inner_t = np.arange(B) * dt
    chunk = max(1, _PHASE_CHUNK // max(B, nb))
    if not transpose:
        acc = np.zeros((nb, B), dtype=complex)
        for s in range(0, om.size, chunk):
            w = om[s : s + chunk]
            outer = np.exp(-1j * np.multiply.outer(outer_t, w))
            outer *= c[s : s + chunk]
            acc += outer @ np.exp(-1j * np.multiply.outer(w, inner_t))
        return acc.reshape(-1)[: n + 1]
    blocks = np.zeros(nb * B, dtype=complex)
    blocks[: n + 1] = c
    blocks = blocks.reshape(nb, B)
    out = np.empty(om.size, dtype=complex)
    for s in range(0, om.size, chunk):
        w = om[s : s + chunk]
        outer = np.exp(1j * np.multiply.outer(outer_t, w))
        outer *= blocks @ np.exp(1j * np.multiply.outer(inner_t, w))
        np.sum(outer, axis=0, out=out[s : s + chunk])
    return out


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
        """Product-trapezoid march of g_* + gamma J*g_* = -gamma J.

        Step m solves (1 + gamma dt J_0 / 2) g_m = -gamma J_m - gamma dt h_m
        with the history h_m = J_m g_0 / 2 + sum_{0<i<m} J_{m-i} g_i.  The
        history is summed divide-and-conquer: solve the left half of a block,
        add its part of h on the right half with one `_fft_convolve`, then
        solve the right half.  O(n log^2 n) for n steps instead of the step
        loop's O(n^2).

        A block [a, hi) of at most _MARCH_LEAF steps, with the history from
        before a already in h, is the lower-triangular Toeplitz system
        (diag I + gamma dt L) g = r, L[m, i] = J_{m-i} for i < m, whose
        inverse `_leaf_inverse` builds once; each leaf is one matvec.
        """
        n = j.size
        g = np.zeros(n)
        g[0] = -gamma
        if gamma == 0.0:
            return g
        diag = 1.0 + 0.5 * gamma * dt * j[0]
        hist = 0.5 * j * g[0]
        inverse = _leaf_inverse(j, -gamma * dt, diag, min(_MARCH_LEAF, n))

        def solve(a: int, hi: int) -> None:
            if hi - a <= _MARCH_LEAF:
                rhs = -gamma * j[a:hi] - gamma * dt * hist[a:hi]
                g[a:hi] = inverse[: hi - a, : hi - a] @ rhs
                return
            mid = (a + hi) // 2
            solve(a, mid)
            hist[mid:hi] += _fft_convolve(g[a:mid], j[: hi - a], hi - a)[mid - a :]
            solve(mid, hi)

        solve(1, n)
        return g

    # -- evaluators ---------------------------------------------------------

    def j_laplace(self, lam: complex) -> complex:
        return j_laplace(self.disp, lam)

    def g_tilde(self, lam: complex) -> complex:
        """Resolvent (1 + gamma J_tilde(lambda))^{-1}; |g_tilde| <= 1 on C_+."""
        return 1.0 / (1.0 + self.gamma * self.j_laplace(lam))

    def _require_on_grid(self, t: float) -> int:
        """Index n of the grid time n dt equal to t to round-off (the rule
        of `_uniform_grid`); a time between grid points raises."""
        if t < 0:
            raise DomainError("time must be >= 0")
        if t > self.horizon + 1e-12:
            raise HorizonError(
                f"t={t} beyond horizon {self.horizon}; rebuild the kernel with a larger horizon"
            )
        n = min(int(round(t / self.dt)), self.n_steps)
        if abs(t - self.t_grid[n]) > 1e-12 * max(t, 1.0):
            raise DomainError(f"t={t} is not on the kernel's time grid of step {self.dt}")
        return n

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

    def phase_integral(self, k) -> np.ndarray:
        """Phi(t, k) = 1 + int_0^t e^{i omega(k) tau} g_*(tau) dtau on the grid.

        Returned as an array of shape (len(k_arr), n_steps+1); Phi(t, k) ->
        nu(k) as t grows.  Cumulative trapezoid of the sampled density plus
        the unit atom at tau = 0.
        """
        karr = np.atleast_1d(np.asarray(k, dtype=float))
        out = np.empty((karr.size, self.t_grid.size), dtype=complex)
        chunk = max(1, _PHASE_CHUNK // self.t_grid.size)
        for s in range(0, karr.size, chunk):
            om = np.asarray(self.disp.omega(karr[s : s + chunk]))
            f = np.exp(1j * np.multiply.outer(om, self.t_grid))
            f *= self.gstar_samples
            # each chunk's cumulative trapezoid is built in its rows of out
            rows = out[s : s + chunk]
            rows[:, 0] = 0.0
            tail = rows[:, 1:]
            np.add(f[:, 1:], f[:, :-1], out=tail)
            tail *= 0.5
            tail *= self.dt
            np.cumsum(tail, axis=1, out=tail)
            rows += 1.0
        return out


def _leaf_inverse(kern: np.ndarray, scale: float, diag: float, size: int) -> np.ndarray:
    """Inverse of the size x size lower-triangular Toeplitz system with
    diagonal `diag` and entry -scale kern[m - i] at row m, column i < m.

    The inverse is lower-triangular Toeplitz too, with first column x, the
    step loop's answer to a unit impulse: x_0 = 1/diag and
    x_m = scale sum_{0<i<=m} kern[i] x_{m-i} / diag.  Row m of the inverse
    is x_m, x_{m-1}, ..., x_0, 0, ...: a window sliding backwards over x
    reversed and zero-padded, returned as a view, so the matrix costs
    2 size floats, not size^2.  A leading block of it is the inverse of
    the shorter system.
    """
    x = np.zeros(size)
    x[0] = 1.0 / diag
    for m in range(1, size):
        x[m] = scale * np.dot(kern[m:0:-1], x[:m]) / diag
    padded = np.concatenate([x[::-1], np.zeros(size - 1)])
    return np.lib.stride_tricks.sliding_window_view(padded, size)[::-1]


def _fft_convolve(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """First n terms of the linear convolution of the real sequences a and b,
    by one rfft/irfft pair at a power-of-two length >= len(a) + len(b) - 1."""
    size = 1 << (a.size + b.size - 2).bit_length()
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]


def _trapezoid_convolve(f: np.ndarray, g: np.ndarray, dt: float) -> np.ndarray:
    """(f * g)(t_j) = int_0^{t_j} f(t_j - s) g(s) ds, trapezoid weights, for
    real samples f, g of equal length on the grid t_j = j dt: the discrete
    convolution by `_fft_convolve` less half of each end point."""
    n = f.size
    full = _fft_convolve(f, g, n)
    full -= 0.5 * (f[0] * g + g[0] * f)
    full[0] = 0.0
    return full * dt


def g_star_series_curve(disp: DispersionRelation, gamma: float, t_end: float,
                        dt: float, n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convolution-series oracle sum_{n=1}^{n_max} (-gamma)^n J^{*n} on a grid.

    Returns (t_grid, series values, truncation bounds).  The bound is the
    tail estimate (gamma t)^{n_max+1} e^{gamma t} / (n_max+1)!.  n_max - 1
    FFT convolutions of the whole grid; test oracle only, the production
    path is the Volterra march.
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
