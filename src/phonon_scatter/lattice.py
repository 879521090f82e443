"""Coupling kernels and the lattice dispersion relation.

A chain of unit-mass oscillators is defined by real, even, exponentially
decaying coupling coefficients alpha_y.  Their Fourier transform
hat_alpha(k) = sum_y alpha_y e^{-2 pi i k y} must be positive away from
k = 0; the dispersion relation is omega(k) = sqrt(hat_alpha(k)) on the
unit torus T = [-1/2, 1/2).  Two cases are supported:

* optical (pinned):   hat_alpha(0) > 0, omega is smooth and gapped;
* acoustic (unpinned): hat_alpha(0) = 0 with hat_alpha''(0) > 0, so
  hat_alpha(k) = sin^2(pi k) * a0(k) with a0 smooth and positive, and
  omega has a conical point at k = 0 with one-sided slope sqrt(a0(0))*pi.

omega is required to be even and increasing on [0, 1/2]; its inverse on
that interval is the "positive branch", the resonant wavenumber of a
frequency.  All evaluators are exact closed forms (finite cosine sums), so no
interpolation error enters downstream computations.

The module also holds the package's one quadrature primitive,
`panel_integrate`: composite 16-point Gauss-Legendre over panels refined
geometrically toward chosen endpoints.  The interface integrals, the
resolvent transform and the envelope norms all use it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError

VALIDATION_GRID = 10_000
VALIDATION_TOL = 1e-12
# below this |k| the acoustic derivative uses its one-sided limit
_ACOUSTIC_K_SWITCH = 1e-7
# 16-point Gauss-Legendre rule on [-1, 1], numpy's leggauss(16) to the bit:
# its nodes are odd and its weights even, so the upper half fixes both, and
# numpy.polynomial stays off the import path
_GL_HALF_NODES = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
                  0.6178762444026438, 0.755404408355003, 0.8656312023878318,
                  0.9445750230732326, 0.9894009349916499)
_GL_HALF_WEIGHTS = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
                    0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
                    0.062253523938647456, 0.027152459411754176)
_GL_NODES = np.concatenate([-np.array(_GL_HALF_NODES[::-1]), _GL_HALF_NODES])
_GL_WEIGHTS = np.concatenate([_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS])
# inverse_branch: points per multisection pass, and passes; six passes of
# 256 cells leave a bracket of 0.5/256**6 ~ 1.8e-15 for the Newton polish
_SECTION_POINTS = 257
_SECTION_PASSES = 6
# growth factor of the panel widths away from a hot endpoint
_GRADING_RATIO = 1.6


def _graded_edges(a: float, b: float, hot_a: bool, hot_b: bool,
                 base: float) -> np.ndarray:
    """Panel edges on [a, b], geometrically refined toward hot endpoints.

    Panels next to a hot endpoint start at width `base` and grow by
    _GRADING_RATIO up to the midpoint; with no hot endpoint the panels are
    uniform of width `base`.
    """
    if b <= a:
        return np.array([a, b])
    length = b - a
    left: list[float] = []
    if hot_a:
        s, h = 0.0, min(base, length / 4)
        while s + h < length / 2:
            left.append(s + h)
            s += h
            h *= _GRADING_RATIO
    right: list[float] = []
    if hot_b:
        s, h = 0.0, min(base, length / 4)
        while s + h < length / 2:
            right.append(length - (s + h))
            s += h
            h *= _GRADING_RATIO
    interior = (np.arange(base, length, base)
                if not (hot_a or hot_b) else np.empty(0))
    edges = np.sort(np.concatenate([
        np.array([a, b]), a + np.array(left, dtype=float),
        a + np.array(right, dtype=float), a + interior]))
    # np.unique would do the same, but it imports numpy.ma (0.75 MB of RSS)
    keep = np.ones(edges.size, dtype=bool)
    keep[1:] = edges[1:] != edges[:-1]
    return edges[keep]


def panel_integrate(f, a: float, b: float, hot_a: bool = False,
                    hot_b: bool = False, base: float = 1e-3):
    """Composite Gauss-Legendre of f over graded panels on [a, b].

    f is called once on the 1-d array of all nodes and returns values of
    shape (..., n_nodes); the result has shape (...).  The weighted sum is a
    numpy reduction, not a BLAS product, so it does not depend on the BLAS
    thread count.
    """
    edges = _graded_edges(a, b, hot_a, hot_b, base)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES).ravel()
    weights = (half[:, None] * _GL_WEIGHTS).ravel()
    return np.sum(f(nodes) * weights, axis=-1)


@dataclass(frozen=True)
class CouplingKernel:
    """Finite-support coupling coefficients alpha_y with a decay certificate.

    `coefficients` maps y >= 0 to alpha_y (negative y follow by evenness);
    `decay_constant` is a C with |alpha_y| <= C e^{-|y|/C}, checked at
    construction together with evenness, positivity of hat_alpha away from
    zero, and the pinning dichotomy.
    """

    coefficients: dict[int, float]
    decay_constant: float
    name: str = "custom"
    # (y >= 1, alpha_y) and alpha_0, cached for the cosine sums
    _ys: np.ndarray = field(init=False, repr=False, compare=False)
    _alpha: np.ndarray = field(init=False, repr=False, compare=False)
    _alpha0: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = dict(self.coefficients)
        if not coeffs:
            raise ConfigError("coupling kernel has no coefficients")
        folded: dict[int, float] = {}
        for y, a in coeffs.items():
            y = int(y)
            a = float(a)
            ay = abs(y)
            if ay in folded and abs(folded[ay] - a) > VALIDATION_TOL:
                raise ConfigError(
                    f"coupling coefficients not even: alpha_{ay} != alpha_{-ay}"
                )
            folded[ay] = a
        object.__setattr__(self, "coefficients", folded)
        pos = sorted(y for y in folded if y > 0)
        object.__setattr__(self, "_ys", np.array(pos, dtype=float))
        object.__setattr__(self, "_alpha", np.array([folded[y] for y in pos]))
        object.__setattr__(self, "_alpha0", folded.get(0, 0.0))
        C = float(self.decay_constant)
        if C <= 0:
            raise ConfigError("decay_constant must be positive")
        for y, a in folded.items():
            if abs(a) > C * math.exp(-y / C) + VALIDATION_TOL:
                raise ConfigError(
                    f"alpha_{y}={a} violates the decay bound C e^(-|y|/C) with C={C}"
                )
        self._validate_band()

    # -- structure helpers -------------------------------------------------

    @property
    def support_radius(self) -> int:
        return max(self.coefficients)

    def _validate_band(self):
        grid = np.linspace(0.0, 0.5, VALIDATION_GRID // 2 + 1)
        vals = hat_alpha(self, grid)
        if np.min(vals[1:]) <= 0.0:
            k_bad = grid[1:][np.argmin(vals[1:])]
            raise ConfigError(f"hat_alpha(k) <= 0 at k={k_bad:.6f}")
        a0 = vals[0]
        if a0 < -VALIDATION_TOL:
            raise ConfigError("hat_alpha(0) < 0")
        if a0 <= VALIDATION_TOL and self.hat_alpha_second_zero() <= 0.0:
            raise ConfigError(
                "pinning dichotomy violated: hat_alpha(0)=0 but hat_alpha''(0) <= 0"
            )
        om = np.sqrt(np.clip(vals, 0.0, None))
        # a support-radius-0 kernel (isolated oscillators) has a flat band;
        # the monotonicity requirement applies to genuine chains only
        if self.support_radius > 0 and np.any(np.diff(om) <= 0.0):
            k_bad = grid[np.argmin(np.diff(om) > 0.0)]
            raise ConfigError(f"omega not increasing on [0,1/2] near k={k_bad:.6f}")

    def hat_alpha_second_zero(self) -> float:
        """hat_alpha''(0) = -8 pi^2 sum_{y>=1} y^2 alpha_y."""
        return float(-8.0 * np.pi**2 * np.sum(self._ys**2 * self._alpha))


def hat_alpha(kernel: CouplingKernel, k) -> np.ndarray | float:
    """Fourier transform sum_y alpha_y e^{-2 pi i k y} of the coupling.

    Evenness makes the sum the real cosine series
    alpha_0 + 2 sum_{y>=1} alpha_y cos(2 pi k y).
    """
    karr = np.asarray(k, dtype=float)
    out = np.full(karr.shape, kernel._alpha0)
    for y, a in zip(kernel._ys, kernel._alpha):
        out += 2.0 * a * np.cos(2.0 * np.pi * y * karr)
    return out if out.shape else float(out)


def _hat_alpha_prime(kernel: CouplingKernel, k) -> np.ndarray | float:
    """d/dk hat_alpha = -4 pi sum_{y>=1} y alpha_y sin(2 pi k y).

    Exactly 0 on the half-integers k, where every sin(2 pi k y) vanishes but
    its float64 value (sin of a rounded multiple of pi) does not.
    """
    karr = np.asarray(k, dtype=float)
    out = np.zeros(karr.shape)
    for y, a in zip(kernel._ys, kernel._alpha):
        out -= 4.0 * np.pi * y * a * np.sin(2.0 * np.pi * y * karr)
    out[np.remainder(2.0 * karr, 1.0) == 0.0] = 0.0
    return out if out.shape else float(out)


class DispersionRelation:
    """omega(k) = sqrt(hat_alpha(k)) with derivatives and inverse branch.

    Immutable after construction; shareable across threads.  `kind` is
    "acoustic" or "optical"; `stationary_set` lists the k in {0, 1/2} where
    omega'(k) = 0 (the acoustic cone point k=0 has nonzero one-sided slopes
    and is not stationary).
    """

    def __init__(self, kernel: CouplingKernel):
        self.kernel = kernel
        a0 = hat_alpha(kernel, 0.0)
        self.kind = "acoustic" if a0 <= VALIDATION_TOL else "optical"
        self.omega_min = float(math.sqrt(max(a0, 0.0)))
        self.omega_max = float(math.sqrt(hat_alpha(kernel, 0.5)))
        self.stationary_set = (0.5,) if self.kind == "acoustic" else (0.0, 0.5)
        # one-sided slope at the acoustic cone: omega'(0+) = sqrt(a''(0)/2)
        self._cone_slope = (
            math.sqrt(kernel.hat_alpha_second_zero() / 2.0)
            if self.kind == "acoustic"
            else 0.0
        )

    # -- evaluators --------------------------------------------------------

    def omega(self, k) -> np.ndarray | float:
        val = hat_alpha(self.kernel, k)
        return np.sqrt(np.clip(val, 0.0, None)) if np.ndim(val) else math.sqrt(max(val, 0.0))

    def omega_prime(self, k) -> np.ndarray | float:
        """omega'(k) = hat_alpha'(k) / (2 omega(k)).

        At the acoustic cone the analytic form degenerates; the one-sided
        limit sgn(k) * sqrt(hat_alpha''(0)/2) is returned there (the k -> 0+
        value at k = 0 exactly).  Stationary points return 0 exactly because
        `_hat_alpha_prime` is exactly 0 on the half-integers.
        """
        karr = np.asarray(k, dtype=float)
        scalar = karr.ndim == 0
        karr = np.atleast_1d(karr)
        out = np.empty_like(karr)
        near_cone = (np.abs(karr) < _ACOUSTIC_K_SWITCH) & (self.kind == "acoustic")
        reg = ~near_cone
        if np.any(reg):
            om = np.sqrt(np.clip(hat_alpha(self.kernel, karr[reg]), 0.0, None))
            ap = _hat_alpha_prime(self.kernel, karr[reg])
            safe = om > 0
            res = np.zeros_like(om)
            res[safe] = np.atleast_1d(ap)[safe] / (2.0 * om[safe])
            out[reg] = res
        if np.any(near_cone):
            sgn = np.where(karr[near_cone] < 0, -1.0, 1.0)
            out[near_cone] = sgn * self._cone_slope
        return float(out[0]) if scalar else out

    def group_velocity(self, k) -> np.ndarray | float:
        """Macroscopic phonon speed omega'(k) / (2 pi)."""
        return self.omega_prime(k) / (2.0 * np.pi)

    def inverse_branch(self, w: float) -> float:
        """Positive inverse branch: the k in [0, 1/2] with omega(k) = w.

        Multisection on the monotone branch (each pass evaluates omega on a
        uniform grid over the current bracket and keeps the cell where
        omega crosses w) followed by Newton polish; |omega(k) - w| < 1e-12
        away from an acoustic band bottom, degrading there to the float64
        conditioning limit of the cosine sum behind hat_alpha.  The negative
        branch is the negation.  Raises DomainError outside
        [omega_min, omega_max], or if the polished root misses that bound.
        """
        w = float(w)
        if not (self.omega_min <= w <= self.omega_max):
            raise DomainError(
                f"frequency {w} outside the band [{self.omega_min}, {self.omega_max}]"
            )
        if w == self.omega_min:
            return 0.0
        if w == self.omega_max:
            return 0.5
        lo, hi = 0.0, 0.5
        for _ in range(_SECTION_PASSES):
            grid = np.linspace(lo, hi, _SECTION_POINTS)
            # binary search keeps omega(grid[i-1]) < w <= omega(grid[i]),
            # a sign change even where round-off breaks monotonicity
            i = int(np.searchsorted(self.omega(grid), w))
            i = min(max(i, 1), _SECTION_POINTS - 1)
            lo, hi = float(grid[i - 1]), float(grid[i])
        k = 0.5 * (lo + hi)
        for _ in range(2):
            dp = self.omega_prime(k)
            if abs(dp) < 1e-3:
                break
            step = (self.omega(k) - w) / dp
            k_new = min(max(k - step, 0.0), 0.5)
            if abs(self.omega(k_new) - w) < abs(self.omega(k) - w):
                k = k_new
        alpha_scale = sum(abs(a) for a in self.kernel.coefficients.values()) * 2.0
        cond_floor = 8.0 * np.finfo(float).eps * alpha_scale / max(w, 1e-300)
        residual = abs(self.omega(k) - w)
        if not residual < max(1e-12 * max(1.0, w), cond_floor):
            raise DomainError(
                f"inverse branch at w={w} missed: |omega(k) - w| = {residual:.3e}"
            )
        return float(k)

    def distance_to_stationary(self, k) -> np.ndarray | float:
        """Torus distance from k to the zero-velocity set."""
        karr = np.asarray(k, dtype=float)
        karr = karr - np.round(karr)  # wrap to [-1/2, 1/2]
        out = np.min(
            np.stack([np.abs(np.abs(karr) - s) for s in self.stationary_set]), axis=0
        )
        return out if out.shape else float(out)


# -- presets ----------------------------------------------------------------

def nn_unpinned() -> CouplingKernel:
    """Nearest-neighbour unpinned chain: omega(k) = 2 |sin(pi k)| (acoustic)."""
    return CouplingKernel({0: 2.0, 1: -1.0}, decay_constant=3.0, name="nn_unpinned")


def nn_pinned(mass: float = 1.0) -> CouplingKernel:
    """Pinned nearest-neighbour chain: omega(k) = sqrt(m^2 + 4 sin^2(pi k))."""
    if mass <= 0:
        raise ConfigError("pinning mass must be positive")
    return CouplingKernel(
        {0: 2.0 + mass**2, 1: -1.0},
        decay_constant=max(3.0, 2.0 + mass**2),
        name=f"nn_pinned({mass:g})",
    )


_PINNED_RE = re.compile(r"^nn_pinned\(\s*([0-9.eE+-]+)\s*\)$")


def kernel_from_spec(spec) -> CouplingKernel:
    """Build a kernel from a preset name or an explicit (y, alpha_y) list.

    Accepted forms: "nn_unpinned", "nn_pinned(m)", or an object with exactly
    the keys of {"coefficients": [[y, alpha], ...], "decay_constant": C}.
    """
    if isinstance(spec, CouplingKernel):
        return spec
    if isinstance(spec, str):
        if spec == "nn_unpinned":
            return nn_unpinned()
        m = _PINNED_RE.match(spec)
        if m:
            return nn_pinned(float(m.group(1)))
        raise ConfigError(f"unknown kernel preset {spec!r}")
    if isinstance(spec, dict):
        if set(spec) != {"coefficients", "decay_constant"}:
            raise ConfigError("kernel spec must have exactly the keys 'coefficients' "
                              f"and 'decay_constant', got {list(spec)}")
        pairs, decay = spec["coefficients"], spec["decay_constant"]
        try:
            coefficients = {int(y): float(a) for y, a in pairs}
            decay = float(decay)
        except (TypeError, ValueError) as exc:
            raise ConfigError("kernel spec needs 'coefficients' as [y, alpha] pairs "
                              f"of numbers and a numeric 'decay_constant': {exc}") from exc
        return CouplingKernel(coefficients, decay)
    raise ConfigError(f"cannot interpret kernel spec {spec!r}")
