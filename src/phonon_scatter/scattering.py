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
window |l - l0| < h the integrand is folded into cancelled pairs
f(l0+s) + f(l0-s), which extend continuously with value
omega''(l0)/omega'(l0)^2 at s = 0.  Outside it each side is integrated in
the log distance from the pole, d = |l - l0| = h R^y with y in (0, 1) and
R = l0/h on the left, (1/2 - l0)/h on the right; dl = d ln R dy turns the
1/d growth into a smooth integrand on fixed panels in y.  Every integral is
the Gauss-Legendre panel quadrature of the lattice module, on nodes that
depend on the wavenumber alone, so arrays give scalar calls' values bitwise.

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
# uniform Gauss-Legendre panels on the PV window and on each outer integral
_PV_PANELS = 8
# wavenumbers nu_pv evaluates together; bounds its temporaries
_PV_BLOCK = 32
# |omega'| below which nu_pv refuses a wavenumber as inside the singular zone
_VELOCITY_FLOOR = 1e-3
# the decreasing eps > 0 at which nu_laplace_limit evaluates the resolvent
_EPS_LADDER = (1e-2, 1e-3, 1e-4)


def _resonant_wavenumber(k):
    """|k| with k wrapped to the torus: the l0 in [0, 1/2] with omega(l0) =
    omega(k), by evenness and periodicity."""
    return np.abs(k - np.round(k))


def _refuse(k: np.ndarray, bad: np.ndarray, error: type, what: str) -> None:
    """Raise `error` naming the first wavenumber flagged in `bad`."""
    if np.any(bad):
        raise error(f"{what} at k={k[np.argmax(bad)]}")


def _pv_half_integral(disp: DispersionRelation, u: np.ndarray, l0: np.ndarray,
                      h: np.ndarray) -> np.ndarray:
    """PV int_0^{1/2} dl/(u - omega(l)) for each pole l0 in (0, 1/2) with
    omega(l0) = u, by the window scheme with window half-width h."""
    u, l0, h = u[:, None], l0[:, None], h[:, None]
    f = lambda l: 1.0 / (u - disp.omega(l))
    # symmetric window, in x = s/h: fold into pairs whose 1/s parts cancel
    pair = lambda x: f(l0 + h * x) + f(l0 - h * x)
    window = h[:, 0] * panel_integrate(pair, 0.0, 1.0, base=1.0 / _PV_PANELS)
    # outside it, d = |l - l0| = h R^y for y in (0, 1) on either side, so the
    # 1/d growth toward the pole becomes the smooth d f(l) ln R
    log_l, log_r = np.log(l0 / h), np.log((0.5 - l0) / h)

    def outer(y):
        d_l, d_r = h * np.exp(log_l * y), h * np.exp(log_r * y)
        return f(l0 - d_l) * d_l * log_l + f(l0 + d_r) * d_r * log_r

    return window + panel_integrate(outer, 0.0, 1.0, base=1.0 / _PV_PANELS)


def nu_pv(disp: DispersionRelation, gamma: float, k):
    """Interface response by the principal-value route, at a wavenumber (a
    complex comes back) or element-wise over a 1-d array of them.

    Requires omega'(k) != 0; near the zero-velocity set the -i pi/|omega'|
    part blows up and |nu| -> 0, so callers work on a grid with an exclusion
    zone.  The pole of the PV integrand is l0 = |k| (k wrapped to the
    torus), so no inverse of omega is needed.  gamma = 0 returns 1 exactly.
    Each wavenumber's quadrature nodes depend on it alone, so an array gives
    bitwise the values of scalar calls.
    """
    karr = np.asarray(k, dtype=float)
    ks = np.atleast_1d(karr)
    out = np.ones(ks.size, dtype=complex)
    if gamma != 0.0:
        l0 = _resonant_wavenumber(ks)
        dp, u = np.abs(disp.omega_prime(l0)), disp.omega(l0)
        h = np.minimum(np.minimum(4.0 * 0.5 / _PV_NODES, 0.45 * l0), 0.45 * (0.5 - l0))
        _refuse(ks, dp < _VELOCITY_FLOOR, SingularZoneError, "omega'(k) ~ 0 (singular zone)")
        _refuse(ks, ~((disp.omega_min < u) & (u < disp.omega_max)), SingularZoneError,
                "omega(k) sits at a band edge")
        _refuse(ks, h < 16 * np.finfo(float).eps, SingularZoneError,
                "the PV window cannot fit inside (0, 1/2)")
        for s in range(0, ks.size, _PV_BLOCK):
            b = slice(s, s + _PV_BLOCK)
            # G(u): peaked near l = 0 when the band touches zero, hence graded
            G = panel_integrate(lambda l: 1.0 / (u[b, None] + disp.omega(l)), 0.0, 0.5,
                                hot_a=True, hot_b=True, base=2e-4)
            H_re = _pv_half_integral(disp, u[b], l0[b], h[b])
            out[b] = 1.0 / (1.0 + 1j * gamma * (G + H_re) + np.pi * gamma / dp[b])
        _refuse(ks, ~np.isfinite(out), DomainError, "nu_pv is not finite")
    return complex(out[0]) if karr.ndim == 0 else out


def nu_laplace_limit(disp: DispersionRelation, gamma: float, k: float) -> complex:
    """Interface response as the extrapolated resolvent boundary value.

    Evaluates g_tilde(eps - i omega(k)) at each eps of _EPS_LADDER and
    Richardson/Neville extrapolates the sequence to eps = 0.  Independent
    oracle for nu_pv: it never touches the principal-value machinery (no
    window, no fold); it shares only the panel quadrature and the resonant
    wavenumber |k|.
    """
    eps = np.array(_EPS_LADDER)
    if gamma == 0.0:
        return 1.0 + 0.0j
    l0 = _resonant_wavenumber(float(k))
    om = float(disp.omega(l0))
    jt = j_laplace_batch(disp, eps, om, pole=l0)
    vals = 1.0 / (1.0 + gamma * jt)
    # Neville tableau at eps = 0
    tab = vals.astype(complex)
    for m in range(1, eps.size):
        tab = (eps[m:] * tab[:-1] - eps[:-m] * tab[1:]) / (eps[m:] - eps[:-m])
    return complex(tab[0])


@dataclass(frozen=True)
class Coefficients:
    wp: complex | np.ndarray
    absorb: float | np.ndarray
    p_plus: float | np.ndarray
    p_minus: float | np.ndarray


def coefficients(disp: DispersionRelation, gamma: float, k, nu) -> Coefficients:
    """Production/transmission/reflection factors at a wavenumber k, or
    element-wise over a 1-d array of them (then nu is the matching array).
    A scalar goes through the same array code as an array.

    gamma = 0 gives full transmission (0, 0, 1, 0).  Raises inside the
    singular zone where the group velocity vanishes.
    """
    karr = np.asarray(k, dtype=float)
    ks, nus = np.atleast_1d(karr), np.atleast_1d(np.asarray(nu, dtype=complex))
    if gamma == 0.0:
        wp, absorb = np.zeros(ks.size, dtype=complex), np.zeros(ks.size)
    else:
        v = np.abs(disp.group_velocity(ks))
        _refuse(ks, v == 0.0, SingularZoneError, "group velocity vanishes")
        wp = gamma * nus / (2.0 * v)
        absorb = gamma * np.abs(nus) ** 2 / v
    p_plus, p_minus = np.abs(1.0 - wp) ** 2, np.abs(wp) ** 2
    if karr.ndim == 0:
        return Coefficients(complex(wp[0]), float(absorb[0]), float(p_plus[0]),
                            float(p_minus[0]))
    return Coefficients(wp, absorb, p_plus, p_minus)


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
    absorb: np.ndarray
    p_plus: np.ndarray
    p_minus: np.ndarray
    identity_residual: np.ndarray
    max_sum_residual: float
    max_renu_residual: float

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

    def covers(self, k) -> bool:
        pos = self.k_grid[self.k_grid > 0]
        return bool(pos.min() <= abs(k) <= pos.max())


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
    offending wavenumber.  A negative gamma is a ConfigError.
    """
    if gamma < 0:
        raise ConfigError("gamma must be >= 0")
    k_grid = table_grid(disp, n_k, delta_excl)
    half = k_grid.size // 2
    k_pos = k_grid[half:]
    if k_grid.size % 2 or \
            np.max(np.abs(k_grid[:half] + k_pos[::-1]), initial=0.0) > _GRID_SYMMETRY_TOL:
        raise TableConstructionError(
            "k-grid is not symmetric under k -> -k; the mirrored table would be wrong"
        )
    nu = nu_pv(disp, gamma, k_pos)
    c = coefficients(disp, gamma, k_pos, nu)
    nu, absorb, p_plus, p_minus = (np.concatenate([a[::-1], a])
                                   for a in (nu, c.absorb, c.p_plus, c.p_minus))
    sum_res = np.abs(p_plus + p_minus + absorb - 1.0)
    if gamma == 0.0:
        renu_res = np.zeros(k_grid.size)
    else:
        omp = np.abs(disp.omega_prime(k_grid))
        renu_res = np.abs(nu.real - (1.0 + np.pi * gamma / omp) * np.abs(nu) ** 2)
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
        absorb=absorb, p_plus=p_plus, p_minus=p_minus,
        identity_residual=sum_res, max_sum_residual=float(sum_res.max(initial=0.0)),
        max_renu_residual=float(renu_res.max(initial=0.0)),
    )
