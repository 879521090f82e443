"""Interface response nu(k) and the thermostat scattering coefficients.

Two independent routes to the same boundary value are implemented.

The direct route writes nu(k) = 1 / (1 + i gamma (G(u) + H(u))) at u =
omega(k), with

    G(u) = (1/2) int_T dl / (u + omega(l))            (smooth),
    H(u) = (1/2) PV int_T dl / (u - omega(l)) - i pi / omega'(l0),

where l0 = |k| in (0, 1/2) is the pole, the positive-branch wavenumber of
u (known from k, so omega is never inverted).  The principal value is taken
in the wavenumber variable, so the only singularities are the two simple
poles +-l0; square-root band-edge weights never appear.  On a symmetric
window around the pole the integrand is folded into cancelled pairs
f(l0+s) + f(l0-s), which extend continuously with value
omega''(l0)/omega'(l0)^2 at s = 0.  Every integral is the Gauss-Legendre
panel quadrature of the lattice module.

The oracle route evaluates the resolvent g_tilde(eps - i omega(k)) at a
decreasing list of eps > 0, all eps in one panel quadrature graded toward
l0, and extrapolates eps -> 0 (Fatou boundary value).

From nu the coefficients follow:

    wp  = gamma nu / (2 |v|),      absorb = gamma |nu|^2 / |v|,
    p+  = |1 - wp|^2,              p-     = |wp|^2,

with v the group velocity; p+ + p- + absorb = 1 identically.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, SingularZoneError, TableConstructionError
from .lattice import DispersionRelation, panel_integrate
from .memory import j_laplace_batch

_SUM_IDENTITY_TOL = 1e-8
_RENU_IDENTITY_TOL = 1e-6
_GRID_SYMMETRY_TOL = 1e-14
# the PV window spans 4 cells of a 0.5/_PV_NODES grid around the pole
_PV_NODES = 2048
# |omega'| below which nu_pv refuses a wavenumber as inside the singular zone
_VELOCITY_FLOOR = 1e-3


def _resonant_wavenumber(k: float) -> float:
    """|k| with k wrapped to the torus: the l0 in [0, 1/2] with omega(l0) =
    omega(k), by evenness and periodicity."""
    return abs(k - round(k))


def _smooth_half_integral(disp: DispersionRelation, u: float) -> float:
    """G(u) = int_0^{1/2} dl / (u + omega(l)); peaked near l=0 when the band
    touches zero, hence the graded left edge."""
    f = lambda l: 1.0 / (u + disp.omega(l))
    return float(panel_integrate(f, 0.0, 0.5, hot_a=True, hot_b=True, base=2e-4))


def _pv_half_integral(disp: DispersionRelation, u: float, l0: float) -> float:
    """PV int_0^{1/2} dl/(u - omega(l)) with the window scheme, for the pole
    l0 in (0, 1/2) with omega(l0) = u."""
    cell = 0.5 / _PV_NODES
    h = min(4.0 * cell, 0.45 * l0, 0.45 * (0.5 - l0))
    if h < 16 * np.finfo(float).eps:
        raise SingularZoneError(
            f"PV window cannot fit inside (0, 1/2) for u={u} (pole at l0={l0})"
        )
    f = lambda l: 1.0 / (u - disp.omega(l))
    # symmetric window: fold into pairs whose 1/s parts cancel analytically
    pair = lambda s: f(l0 + s) + f(l0 - s)
    window = float(panel_integrate(pair, 0.0, h, base=h / 8))
    outer = float(
        panel_integrate(f, 0.0, l0 - h, hot_a=True, hot_b=True, base=min(2e-4, h / 4))
        + panel_integrate(f, l0 + h, 0.5, hot_a=True, hot_b=True, base=min(2e-4, h / 4))
    )
    return window + outer


def nu_pv(disp: DispersionRelation, gamma: float, k: float) -> complex:
    """Interface response by the principal-value route.

    Requires omega'(k) != 0; near the zero-velocity set the -i pi/|omega'|
    part blows up and |nu| -> 0, so callers work on a grid with an exclusion
    zone.  The pole of the PV integrand is l0 = |k| (k wrapped to the
    torus), so no inverse of omega is needed.  gamma = 0 returns 1 exactly.
    """
    k = float(k)
    if gamma == 0.0:
        return 1.0 + 0.0j
    l0 = _resonant_wavenumber(k)
    dp = disp.omega_prime(l0)
    if abs(dp) < _VELOCITY_FLOOR:
        raise SingularZoneError(f"omega'(k) ~ 0 at k={k}; inside the singular zone")
    u = float(disp.omega(l0))
    if not (disp.omega_min < u < disp.omega_max):
        raise SingularZoneError(f"omega(k)={u} sits at a band edge")
    G = _smooth_half_integral(disp, u)
    H_re = _pv_half_integral(disp, u, l0)
    denom = 1.0 + 1j * gamma * (G + H_re) + np.pi * gamma / abs(dp)
    out = 1.0 / denom
    if not (np.isfinite(out.real) and np.isfinite(out.imag)):
        raise DomainError(f"nu_pv is not finite at k={k} (G={G}, H={H_re})")
    return out


def nu_laplace_limit(disp: DispersionRelation, gamma: float, k: float,
                     eps_list=(1e-2, 1e-3, 1e-4)) -> complex:
    """Interface response as the extrapolated resolvent boundary value.

    Evaluates g_tilde(eps - i omega(k)) for each eps and Richardson/Neville
    extrapolates the sequence to eps = 0.  Independent oracle for nu_pv:
    it never touches the principal-value machinery (no window, no fold);
    it shares only the panel quadrature and the resonant wavenumber |k|.
    """
    eps = np.asarray(eps_list, dtype=float)
    if eps.ndim != 1 or eps.size < 1 or np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
        raise ConfigError("eps_list must be a decreasing list of positive reals")
    if gamma == 0.0:
        return 1.0 + 0.0j
    l0 = _resonant_wavenumber(float(k))
    om = float(disp.omega(l0))
    jt = j_laplace_batch(disp, eps, om, pole=l0)
    vals = 1.0 / (1.0 + gamma * jt)
    # Neville tableau at eps = 0
    tab = vals.astype(complex)
    x = eps.copy()
    for m in range(1, eps.size):
        tab = (x[m:] * tab[:-1] - x[: eps.size - m] * tab[1:]) / (x[m:] - x[: eps.size - m])
    return complex(tab[0])


@dataclass(frozen=True)
class Coefficients:
    wp: complex
    absorb: float
    p_plus: float
    p_minus: float


def coefficients(disp: DispersionRelation, gamma: float, k: float,
                 nu: complex) -> Coefficients:
    """Production/transmission/reflection factors at wavenumber k.

    gamma = 0 gives full transmission (0, 0, 1, 0).  Raises inside the
    singular zone where the group velocity vanishes.
    """
    if gamma == 0.0:
        return Coefficients(0.0 + 0.0j, 0.0, 1.0, 0.0)
    v = disp.group_velocity(k)
    if v == 0.0:
        raise SingularZoneError(f"group velocity vanishes at k={k}")
    wp = gamma * nu / (2.0 * abs(v))
    absorb = gamma * abs(nu) ** 2 / abs(v)
    return Coefficients(wp, float(absorb), float(abs(1.0 - wp) ** 2), float(abs(wp) ** 2))


@dataclass(frozen=True)
class ScatteringTable:
    """nu and the scattering coefficients on a symmetric k-grid.

    The grid excludes a zone of half-width delta_excl around the
    zero-velocity set.  Construction validates the two coefficient
    identities and evenness; max residuals are recorded.
    """

    gamma: float
    delta_excl: float
    k_grid: np.ndarray
    nu: np.ndarray
    wp: np.ndarray
    absorb: np.ndarray
    p_plus: np.ndarray
    p_minus: np.ndarray
    identity_residual: np.ndarray
    max_sum_residual: float
    max_renu_residual: float
    omega_prime: np.ndarray

    def export_csv(self, path) -> None:
        path = Path(path)
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["k", "re_nu", "im_nu", "absorb", "p_plus", "p_minus",
                        "identity_residual"])
            for i, k in enumerate(self.k_grid):
                w.writerow([f"{k:.12g}", f"{self.nu[i].real:.15g}",
                            f"{self.nu[i].imag:.15g}", f"{self.absorb[i]:.15g}",
                            f"{self.p_plus[i]:.15g}", f"{self.p_minus[i]:.15g}",
                            f"{self.identity_residual[i]:.6g}"])

    # coefficients are even in k; interpolate on |k|
    def _interp(self, values: np.ndarray, k) -> np.ndarray | float:
        pos = self.k_grid > 0
        out = np.interp(np.abs(k), self.k_grid[pos], values[pos])
        return out

    def p_plus_at(self, k):
        return self._interp(self.p_plus, k)

    def p_minus_at(self, k):
        return self._interp(self.p_minus, k)

    def absorb_at(self, k):
        return self._interp(self.absorb, k)

    def covers(self, k, margin: float = 0.0) -> bool:
        pos = self.k_grid[self.k_grid > 0]
        return bool(pos.min() + margin <= abs(k) <= pos.max() - margin)


def table_grid(disp: DispersionRelation, n_k: int, delta_excl: float) -> np.ndarray:
    """Cell centers of an n_k-point subdivision of the torus, ascending, with
    the exclusion zone around the zero-velocity set (and, for an acoustic
    chain, around the cone point k = 0) removed.  Negation-symmetric."""
    if n_k < 64:
        raise ConfigError("n_k must be >= 64")
    if not (0.0 < delta_excl < 0.25):
        raise ConfigError("delta_excl must lie in (0, 1/4)")
    base = (np.arange(n_k) + 0.5) / n_k - 0.5
    keep = disp.distance_to_stationary(base) > delta_excl
    if disp.kind == "acoustic":
        # the cone point is not stationary but nu is undefined at omega=0
        keep &= np.abs(base) > delta_excl
    return base[keep]


def build_table(disp: DispersionRelation, gamma: float, n_k: int = 512,
                delta_excl: float = 0.02) -> ScatteringTable:
    """Fill a ScatteringTable over `table_grid` via the PV route.

    nu and the coefficients are even in k, so they are computed on k > 0
    and mirrored onto k < 0; the grid's negation symmetry is checked first.
    Any identity violation above tolerance aborts construction, naming the
    offending wavenumber.
    """
    k_grid = table_grid(disp, n_k, delta_excl)
    half = k_grid.size // 2
    k_pos = k_grid[half:]
    if k_grid.size % 2 or \
            np.max(np.abs(k_grid[:half] + k_pos[::-1]), initial=0.0) > _GRID_SYMMETRY_TOL:
        raise TableConstructionError(
            "k-grid is not symmetric under k -> -k; the mirrored table would be wrong"
        )
    nu = np.empty(k_pos.size, dtype=complex)
    wp = np.empty(k_pos.size, dtype=complex)
    absorb = np.empty(k_pos.size)
    p_plus = np.empty(k_pos.size)
    p_minus = np.empty(k_pos.size)
    for i, k in enumerate(k_pos):
        nu[i] = nu_pv(disp, gamma, float(k))
        c = coefficients(disp, gamma, float(k), nu[i])
        wp[i], absorb[i], p_plus[i], p_minus[i] = c.wp, c.absorb, c.p_plus, c.p_minus
    nu, wp, absorb, p_plus, p_minus = (np.concatenate([half[::-1], half])
                                       for half in (nu, wp, absorb, p_plus, p_minus))
    omp = np.asarray(disp.omega_prime(k_grid))
    sum_res = np.abs(p_plus + p_minus + absorb - 1.0)
    if gamma == 0.0:
        renu_res = np.zeros(k_grid.size)
    else:
        renu_res = np.abs(nu.real - (1.0 + np.pi * gamma / np.abs(omp)) * np.abs(nu) ** 2)
    if np.any(absorb < -1e-12) or np.any(absorb > 1.0 + 1e-12):
        bad = k_grid[int(np.argmax(np.abs(absorb - 0.5)))]
        raise TableConstructionError(f"absorption outside [0,1] at k={bad}")
    if sum_res.max(initial=0.0) > _SUM_IDENTITY_TOL:
        bad = k_grid[int(np.argmax(sum_res))]
        raise TableConstructionError(
            f"p+ + p- + absorb != 1 (residual {sum_res.max():.3e}) at k={bad}"
        )
    if renu_res.max(initial=0.0) > _RENU_IDENTITY_TOL:
        bad = k_grid[int(np.argmax(renu_res))]
        raise TableConstructionError(
            f"Re nu identity violated (residual {renu_res.max():.3e}) at k={bad}"
        )
    return ScatteringTable(
        gamma=float(gamma), delta_excl=float(delta_excl), k_grid=k_grid, nu=nu,
        wp=wp, absorb=absorb, p_plus=p_plus, p_minus=p_minus,
        identity_residual=sum_res, max_sum_residual=float(sum_res.max(initial=0.0)),
        max_renu_residual=float(renu_res.max(initial=0.0)), omega_prime=omp,
    )
