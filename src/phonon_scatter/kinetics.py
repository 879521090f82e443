"""Closed-form macroscopic limit: ballistic transport with an interface.

Away from the interface the phase-space energy density W(t, x, k) is simply
advected at the group velocity v(k).  A characteristic that crosses x = 0
is transmitted with probability p+(k), reflected (k -> -k) with probability
p-(k), or absorbed; the interface also creates density at rate absorb(k)*T.
The solution with initial profile W0 is

    W(t,x,k) = W0(x - v t, k)                  outside the wedge [0, v t],
             = absorb(k) T
               + p+(k) W0(x - v t, k)
               + p-(k) W0(-x + v t, -k)        inside the wedge,

where the wedge is [v t, 0] when v < 0.  The outgoing/incoming boundary
relations at x = 0 and the homogeneous transport equation off the interface
are satisfied identically; with W0 = T the solution is the constant T
(equilibrium), by the coefficient sum rule.

In Laplace-Fourier variables (lambda in t, eta in x) the same solution reads

    w_hat(lambda, eta, k) =
        T |v| absorb(k) / (lambda (lambda + i omega' eta))
      + W0_hat(eta, k) / (lambda + i omega' eta)
      + |v| (p+(k) - 1) / (lambda + i omega' eta)
          * int W0_hat(eta', k) / (lambda + i omega' eta') deta'
      + |v| p-(k) / (lambda + i omega' eta)
          * int W0_hat(eta', -k) / (lambda - i omega' eta') deta',

with omega' eta = 2 pi v eta.  `laplace_fourier_limit` evaluates this form,
and `laplace_fourier_numeric` transforms `limit_wigner` by panel quadrature
in t and x, so each is an oracle for the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, SingularZoneError
from .lattice import DispersionRelation, panel_integrate
from .scattering import ScatteringTable

# central-difference step of transport_residual
_FD_STEP = 5e-5
# laplace_fourier_numeric: the t range, the half-width of the advected
# profile's support, and the panel widths in t, in the wedge variable s and
# in the profile variable u
_LF_T_MAX = 16.0
_LF_SPAN = 1.5
_LF_T_PANEL = 0.25
_LF_S_PANEL = 1.0 / 32
_LF_U_PANEL = 1.0 / 32


class CosineBumpSquaredProfile:
    """Spatial profile a * cos^4(pi (x - x0) / (2 w)) on |x - x0| <= w.

    This is exactly the energy profile |f|^2 of a cosine-squared packet
    envelope.  Its Fourier transform is a five-term sinc combination (a
    fourth finite difference), decaying like eta^{-5}:

        A_hat(eta) = a e^{-2 pi i eta x0} (w/8) [ 6 sinc(2 eta w)
                     + 4 sinc(2 eta w - 1) + 4 sinc(2 eta w + 1)
                     + sinc(2 eta w - 2) + sinc(2 eta w + 2) ].
    """

    def __init__(self, center: float, width: float, amplitude: float = 1.0):
        if width <= 0:
            raise ConfigError("profile width must be positive")
        self.center = float(center)
        self.width = float(width)
        self.amplitude = float(amplitude)

    def __call__(self, x) -> np.ndarray:
        s = (np.asarray(x, dtype=float) - self.center) / self.width
        return self.amplitude * np.where(
            np.abs(s) < 1.0, np.cos(0.5 * np.pi * np.clip(s, -1, 1)) ** 4, 0.0
        )

    def hat(self, eta) -> np.ndarray:
        z = 2.0 * np.asarray(eta, dtype=float) * self.width
        combo = (6.0 * np.sinc(z) + 4.0 * np.sinc(z - 1.0) + 4.0 * np.sinc(z + 1.0)
                 + np.sinc(z - 2.0) + np.sinc(z + 2.0))
        phase = np.exp(-2j * np.pi * np.asarray(eta, dtype=float) * self.center)
        return self.amplitude * (self.width / 8.0) * combo * phase


@dataclass(frozen=True)
class SeparableInitialData:
    """W0(x, k) = A(x) B(k) with A carrying an analytic Fourier transform."""

    spatial: CosineBumpSquaredProfile
    spectral: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x, k) -> np.ndarray:
        return self.spatial(x) * np.asarray(self.spectral(np.asarray(k, dtype=float)))

    def hat(self, eta, k) -> np.ndarray:
        return self.spatial.hat(eta) * np.asarray(self.spectral(np.asarray(k, dtype=float)))


def equilibrium_initial_data(temperature: float) -> Callable:
    """W0 identically equal to the thermostat temperature."""

    def w0(x, k):
        shape = np.broadcast_shapes(np.shape(x), np.shape(k))
        return np.full(shape, float(temperature))

    return w0


@dataclass(frozen=True)
class LimitSolution:
    """Macroscopic solution bundle: initial data, coefficients, temperature.

    `w0_hat(eta, k)` is the analytic Fourier transform of the initial data
    in x (needed only by the Laplace-Fourier evaluator); `eta_window` is the
    truncation half-width of the eta' resolvent integrals, sized to the
    profile's spectral decay.
    """

    w0: Callable
    table: ScatteringTable
    temperature: float
    disp: DispersionRelation
    w0_hat: Callable | None = None
    eta_window: float = 400.0

    @classmethod
    def from_separable(cls, data: SeparableInitialData, table: ScatteringTable,
                       temperature: float, disp: DispersionRelation) -> "LimitSolution":
        return cls(w0=data, table=table, temperature=temperature, disp=disp,
                   w0_hat=data.hat,
                   eta_window=max(400.0, 80.0 / data.spatial.width))

    def _coeffs(self, k: float) -> tuple[float, float, float]:
        if not self.table.covers(k):
            raise SingularZoneError(
                f"k={k} outside the tabulated band (exclusion zone "
                f"{self.table.delta_excl})"
            )
        return (float(self.table.p_plus_at(k)), float(self.table.p_minus_at(k)),
                float(self.table.absorb_at(k)))


def limit_wigner(sol: LimitSolution, t: float, x, k: float,
                 side: int = 0) -> np.ndarray | float:
    """Evaluate W(t, x, k); `side` = +-1 resolves x = 0 as a one-sided limit.

    At t = 0 the wedge is empty and W = W0 everywhere.  Non-negative initial
    data yields a non-negative solution (all four contributions are
    non-negative).
    """
    p_plus, p_minus, absorb = sol._coeffs(k)
    v = float(sol.disp.group_velocity(k))
    edge = v * t
    if side:
        on_wedge_side = (side > 0) if v > 0 else (side < 0)
        inside = np.array([on_wedge_side and abs(edge) > 0.0])
        xarr = np.zeros(1)
        scalar = True
    else:
        xarr = np.asarray(x, dtype=float)
        scalar = xarr.ndim == 0
        xarr = np.atleast_1d(xarr)
        if v >= 0:
            inside = (xarr > 0) & (xarr < edge)
        else:
            inside = (xarr > edge) & (xarr < 0)
    ballistic = np.asarray(sol.w0(xarr - edge, k), dtype=float)
    out = np.where(inside,
                   absorb * sol.temperature
                   + p_plus * ballistic
                   + p_minus * np.asarray(sol.w0(-xarr + edge, -k), dtype=float),
                   ballistic)
    return float(out[0]) if scalar else out


def boundary_residual(sol: LimitSolution, t: float, k: float) -> float:
    """Max defect of the interface relations at x = 0.

    For 0 < k < 1/2:  W(0+, k) = p- W(0+, -k) + p+ W(0-, k) + absorb T,
    and the mirrored relation for -k uses the 0- limits.  The closed form
    satisfies both identically; the residual is numerical roundoff.
    """
    if not (0.0 < k < 0.5):
        raise DomainError("boundary residual defined for 0 < k < 1/2")
    if t <= 0:
        raise DomainError("boundary residual needs t > 0")
    p_plus, p_minus, absorb = sol._coeffs(k)
    gT = absorb * sol.temperature

    def wp(kk):
        return limit_wigner(sol, t, 0.0, kk, side=+1)

    def wm(kk):
        return limit_wigner(sol, t, 0.0, kk, side=-1)

    res_pos = abs(wp(k) - p_minus * wp(-k) - p_plus * wm(k) - gT)
    res_neg = abs(wm(-k) - p_minus * wm(k) - p_plus * wp(-k) - gT)
    return max(res_pos, res_neg)


def transport_residual(sol: LimitSolution, t: float, x: float, k: float) -> float:
    """Central-difference defect of d_t W + v d_x W = 0 away from x = 0."""
    h = _FD_STEP
    if abs(x) <= 2 * h:
        raise DomainError("transport residual is an off-interface check")
    v = float(sol.disp.group_velocity(k))
    dt_w = (limit_wigner(sol, t + h, x, k) - limit_wigner(sol, t - h, x, k)) / (2 * h)
    dx_w = (limit_wigner(sol, t, x + h, k) - limit_wigner(sol, t, x - h, k)) / (2 * h)
    scale = max(abs(dt_w), abs(v * dx_w), 1e-300)
    return abs(dt_w + v * dx_w) / scale


def _resolvent_integral(sol: LimitSolution, lam: float, k_fixed: float,
                        omega_prime: float, sign: float) -> complex:
    """int W0_hat(eta', k_fixed) / (lambda + sign * i omega' eta') deta'.

    Composite Gauss panels of width 0.2; the integrand decays like eta^{-6}
    (profile eta^{-5} times the resolvent), so a width ~ O(100/w) window
    suffices far beyond the 1e-3 consistency tolerance.
    """
    if sol.w0_hat is None:
        raise ConfigError("initial data without an analytic Fourier transform")
    H = float(sol.eta_window)
    return complex(panel_integrate(
        lambda eta: sol.w0_hat(eta, k_fixed) / (lam + sign * 1j * omega_prime * eta),
        -H, H, base=0.2))


def laplace_fourier_limit(sol: LimitSolution, lam: float, eta: float,
                          k: float) -> complex:
    """The limit solution in Laplace (t) / Fourier (x) variables."""
    if lam <= 0:
        raise DomainError("Laplace variable must satisfy lambda > 0")
    p_plus, p_minus, absorb = sol._coeffs(k)
    omp = float(sol.disp.omega_prime(k))
    v_abs = abs(omp) / (2.0 * np.pi)
    denom = lam + 1j * omp * eta
    term_prod = sol.temperature * v_abs * absorb / (lam * denom)
    if sol.w0_hat is None:
        return complex(term_prod)
    term_ball = sol.w0_hat(np.array([eta]), k)[0] / denom
    i_plus = _resolvent_integral(sol, lam, k, omp, +1.0)
    i_minus = _resolvent_integral(sol, lam, -k, omp, -1.0)
    term_trans = v_abs * (p_plus - 1.0) / denom * i_plus
    term_refl = v_abs * p_minus / denom * i_minus
    return complex(term_prod + term_ball + term_trans + term_refl)


def laplace_fourier_numeric(sol: LimitSolution, lam: float, eta: float,
                            k: float) -> complex:
    """Brute-force Laplace-in-t, Fourier-in-x transform of limit_wigner.

    The solution splits into the advected profile W0(x - v t, k) and the
    part on the wedge between 0 and v t.  The profile's x-transform is
    e^{-2 pi i eta v t} times that of W0, one panel integral over its
    co-moving support |u| <= _LF_SPAN.  The wedge is mapped to s in [0, 1]
    by x = v t s, so the indicator jumps sit on panel ends at every t, and
    the t and s integrals are one tensor product of Gauss-Legendre panels.
    The e^{-lambda _LF_T_MAX} truncation tail bounds the error.
    """
    p_plus, p_minus, absorb = sol._coeffs(k)
    v = float(sol.disp.group_velocity(k))
    w0_hat = panel_integrate(
        lambda u: np.exp(-2j * np.pi * eta * u) * np.asarray(sol.w0(u, k), dtype=float),
        -_LF_SPAN, _LF_SPAN, base=_LF_U_PANEL)

    def wedge(t):
        edge = v * t[:, None]
        g = lambda s: np.exp(-2j * np.pi * eta * edge * s) * (
            absorb * sol.temperature
            + (p_plus - 1.0) * np.asarray(sol.w0(edge * (s - 1.0), k), dtype=float)
            + p_minus * np.asarray(sol.w0(edge * (1.0 - s), -k), dtype=float))
        return abs(v) * t * panel_integrate(g, 0.0, 1.0, base=_LF_S_PANEL)

    def laplace(t):
        return np.exp(-lam * t) * (np.exp(-2j * np.pi * eta * v * t) * w0_hat + wedge(t))

    return complex(panel_integrate(laplace, 0.0, _LF_T_MAX, base=_LF_T_PANEL))
