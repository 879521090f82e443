"""Wigner-distribution estimation and energy bookkeeping on the lattice.

The rescaled two-point estimator on an N-site ring is

    W_hat(eta, k_j) = (eps/2) <psi_hat*(k_j - m/N) psi_hat(k_j + m/N)>,

for even integers eta = 2m: the shifts are exact grid moves, so no
interpolation enters and Hermitian symmetry W_hat(-eta, k) = W_hat(eta, k)*
holds sample by sample.  The eta = 0 row is the spectral energy density;
its k-sum times 1/N is (eps/2) times the mean discrete energy.

Spatially resolved quantities (scattering fractions, production plateaus)
use smooth flat-top masks: sharp cutoffs leak spectrally, so both the
k-space restriction (half-width 16/N, flat inside 8/N) and the spatial
windows are raised-cosine tapered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidRunError
from .lattice import DispersionRelation
from .scattering import ScatteringTable

from .dynamics import site_coordinates

# energy fraction allowed to remain inside the interface window
_INTERFACE_TOLERANCE = 0.01


@dataclass(frozen=True)
class WignerEstimate:
    eps: float
    eta: np.ndarray           # even integers
    k_grid: np.ndarray        # j/N wrapped to [-1/2, 1/2)
    values: np.ndarray        # (n_eta, N) complex
    stderr: np.ndarray        # (n_eta, N) real
    n_samples: int

    def row(self, eta: int) -> np.ndarray:
        idx = np.where(self.eta == eta)[0]
        if idx.size == 0:
            raise ConfigError(f"eta={eta} not on the estimate's grid")
        return self.values[idx[0]]

    def row_stderr(self, eta: int) -> np.ndarray:
        idx = np.where(self.eta == eta)[0]
        if idx.size == 0:
            raise ConfigError(f"eta={eta} not on the estimate's grid")
        return self.stderr[idx[0]]

    def export_csv(self, path, limit=None) -> None:
        """Write (eta, k, Re, Im, stderr) rows; an optional `limit(k)` column
        puts the macroscopic prediction on the same grid for plotting."""
        import csv
        from pathlib import Path

        with Path(path).open("w", newline="") as fh:
            w = csv.writer(fh)
            header = ["eta", "k", "re", "im", "stderr"]
            if limit is not None:
                header.append("limit")
            w.writerow(header)
            for i, eta in enumerate(self.eta):
                for j, k in enumerate(self.k_grid):
                    row = [int(eta), f"{k:.10g}", f"{self.values[i, j].real:.10g}",
                           f"{self.values[i, j].imag:.10g}",
                           f"{self.stderr[i, j]:.4g}"]
                    if limit is not None:
                        row.append(f"{limit(float(k)):.10g}")
                    w.writerow(row)


def wavenumber_grid(N: int) -> np.ndarray:
    """k_j = j/N wrapped to [-1/2, 1/2)."""
    k = np.arange(N) / N
    return np.where(k < 0.5, k, k - 1.0)


def wigner_estimate(psi_hat_samples: np.ndarray, eps: float,
                    eta_max: int) -> WignerEstimate:
    """Monte-Carlo Wigner transform from an (M, N) array of wave-field DFTs.

    eta_max must be an even integer at most N/4 (shift grid
    representability); the standard error combines the real and imaginary
    scatter of the per-sample products.
    """
    psi = np.atleast_2d(psi_hat_samples)
    M, N = psi.shape
    if eta_max % 2 or eta_max < 0:
        raise ConfigError("eta_max must be a non-negative even integer")
    if eta_max > N // 4:
        raise ConfigError("eta_max must not exceed N/4")
    etas = np.arange(-eta_max, eta_max + 1, 2)
    values = np.empty((etas.size, N), dtype=complex)
    stderr = np.empty((etas.size, N))
    # compute eta >= 0; negative rows are conjugates by the index swap, so
    # the Hermitian symmetry is exact by construction, sample by sample
    for i, eta in enumerate(etas):
        if eta < 0:
            continue
        m = int(eta) // 2
        prod = np.conj(np.roll(psi, m, axis=1)) * np.roll(psi, -m, axis=1)
        prod *= 0.5 * eps
        values[i] = prod.mean(axis=0)
        if eta == 0:
            values[i] = values[i].real  # |psi_hat|^2 row is real identically
        if M > 1:
            var = prod.real.var(axis=0, ddof=1) + prod.imag.var(axis=0, ddof=1)
            stderr[i] = np.sqrt(var / M)
        else:
            stderr[i] = 0.0
    neg = etas < 0
    values[neg] = np.conj(values[::-1][neg])
    stderr[neg] = stderr[::-1][neg]
    return WignerEstimate(eps=eps, eta=etas, k_grid=wavenumber_grid(N),
                          values=values, stderr=stderr, n_samples=M)


def pair_test_function(W: WignerEstimate, g_hat) -> complex:
    """Discrete pairing sum_{eta,k} W_hat(eta,k) G_hat*(eta,k) * (2/N).

    `g_hat` is either an (n_eta, N) array sampled on the estimate's grid or
    a callable g_hat(eta, k) -> matrix.  The eta spacing is 2 and the k
    weight 1/N, hence the 2/N quadrature weight.
    """
    N = W.k_grid.size
    if callable(g_hat):
        g = np.asarray(g_hat(W.eta, W.k_grid))
    else:
        g = np.asarray(g_hat)
    if g.shape != W.values.shape:
        raise ConfigError("test function sampled on the wrong grid")
    return complex(np.sum(W.values * np.conj(g)) * 2.0 / N)


def torus_distance(a, b) -> np.ndarray:
    d = np.abs(np.asarray(a) - b)
    return np.minimum(d, 1.0 - d)


def flat_top_mask(k: np.ndarray, center: float, half_width: float,
                  flat_fraction: float = 0.5) -> np.ndarray:
    """Raised-cosine mask: 1 inside flat_fraction*half_width of the center,
    cosine rolloff to 0 at half_width (distances on the torus)."""
    d = torus_distance(k, center)
    inner = flat_fraction * half_width
    out = np.zeros_like(d)
    out[d <= inner] = 1.0
    roll = (d > inner) & (d < half_width)
    out[roll] = np.cos(0.5 * np.pi * (d[roll] - inner) / (half_width - inner)) ** 2
    return out


def spatial_window(x: np.ndarray, lo: float, hi: float, taper: float) -> np.ndarray:
    """Flat window on [lo+taper, hi-taper] with cosine ramps of width taper."""
    out = np.zeros_like(x)
    core = (x >= lo + taper) & (x <= hi - taper)
    out[core] = 1.0
    up = (x > lo) & (x < lo + taper)
    out[up] = np.sin(0.5 * np.pi * (x[up] - lo) / taper) ** 2
    dn = (x > hi - taper) & (x < hi)
    out[dn] = np.sin(0.5 * np.pi * (hi - x[dn]) / taper) ** 2
    return out


@dataclass(frozen=True)
class ScatteringFractions:
    transmitted: float
    reflected: float
    absorbed: float
    residual_interface: float     # energy fraction still inside |x| < window


def scattering_fractions(psi: np.ndarray, disp: DispersionRelation,
                         k_center: float, initial_energy: float,
                         window_halfwidth: float = 0.1,
                         mask_halfwidth: float | None = None) -> ScatteringFractions:
    """Split the final wave field's energy into transmitted / reflected /
    absorbed fractions of the initial energy.

    The field is first restricted spectrally with smooth masks around
    +-k_center (half-width 16/N by default), then summed over the spatial
    half-lines beyond the interface window.  Absorption is the complement.
    Raises InvalidRunError when more than _INTERFACE_TOLERANCE of the
    energy is still within the window (the packet has not fully crossed).
    """
    N = psi.shape[-1]
    if mask_halfwidth is None:
        mask_halfwidth = 16.0 / N
    eps = 1.0 / N
    x = eps * site_coordinates(N)
    k = wavenumber_grid(N)
    psi_hat = np.fft.fft(psi)
    e_total = eps * np.sum(np.abs(psi) ** 2)

    residual = eps * np.sum(
        np.abs(psi[np.abs(x) < window_halfwidth]) ** 2) / initial_energy
    if residual > _INTERFACE_TOLERANCE:
        raise InvalidRunError(
            f"{residual:.1%} of the initial energy still inside |x| < "
            f"{window_halfwidth}; increase t_macro"
        )

    def masked_energy(k0: float, side: int) -> float:
        mask = flat_top_mask(k, k0, mask_halfwidth)
        field = np.fft.ifft(mask * psi_hat)
        sel = x > window_halfwidth if side > 0 else x < -window_halfwidth
        return eps * float(np.sum(np.abs(field[sel]) ** 2))

    sign = 1.0 if disp.group_velocity(k_center) > 0 else -1.0
    e_trans = masked_energy(k_center, +1 if sign > 0 else -1)
    e_refl = masked_energy(-k_center, -1 if sign > 0 else +1)
    ft = e_trans / initial_energy
    fr = e_refl / initial_energy
    return ScatteringFractions(ft, fr, 1.0 - ft - fr, residual)


@dataclass(frozen=True)
class ProductionBin:
    k_lo: float
    k_hi: float
    k_mid: float
    estimate: float
    stderr: float
    prediction: float


def windowed_k_density(psi_samples: np.ndarray, chi: np.ndarray,
                       mask: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of the smoothed Wigner pairing

        (eps/2) < (1/N) sum_j mask(k_j) |DFT(chi^{1/2} psi)(k_j)|^2 >,

    normalized by (int chi dx)(int mask dk) so a field at local equilibrium
    density W returns W.  chi is sampled per site, mask per k node.

    Only the sites S with chi > 0 and the modes J with mask > 0 enter, so
    the DFT is restricted to that support: u_hat = (psi[:, S] chi[S]^{1/2})
    @ exp(-2 pi i S (x) J / N), one (M x |S|)(|S| x |J|) product costing
    O(M |S| |J|) in place of M full FFTs.  An empty support raises
    ConfigError.
    """
    M, N = psi_samples.shape
    eps = 1.0 / N
    sites, modes = np.flatnonzero(chi > 0), np.flatnonzero(mask > 0)
    if sites.size == 0:
        raise ConfigError("windowed_k_density: the spatial window chi covers no site")
    if modes.size == 0:
        raise ConfigError("windowed_k_density: the k mask covers no k node")
    # exact phases: the exponent S*J is reduced mod N before the table lookup
    roots = np.exp(-2j * np.pi * np.arange(N) / N)
    u = psi_samples[:, sites]
    u *= np.sqrt(chi[sites])
    power = np.abs(u @ roots[np.outer(sites, modes) % N])
    np.square(power, out=power)
    per_sample = (0.5 * eps / N) * (power @ mask[modes])
    norm = (eps * chi.sum()) * (mask.sum() / N)
    vals = per_sample / norm
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(M)) if M > 1 else 0.0


def production_windows(N: int, disp: DispersionRelation, t_macro: float,
                       k_band: tuple[float, float] = (0.15, 0.35), n_bins: int = 8,
                       wedge: tuple[float, float] = (0.1, 0.9)) -> list[tuple]:
    """The k-bins of a production profile with their windows on an N ring.

    Bin b spans [lo, hi] of k_band cut into n_bins; its spatial window chi
    covers the wedge x in [wedge_lo * v t, wedge_hi * v t], v the group
    velocity at the bin center, and its k mask is a flat-top around the
    center.  Returns (lo, hi, mid, chi, mask) per bin.  A bin whose mask
    holds no k node, or whose window holds no site, would read 0/0: it
    raises ConfigError naming the keys that set it.
    """
    x = site_coordinates(N) / N
    k = wavenumber_grid(N)
    edges = np.linspace(k_band[0], k_band[1], n_bins + 1)
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        mask = flat_top_mask(k, mid, half_width=0.5 * (hi - lo), flat_fraction=0.6)
        if not np.any(mask > 0):
            raise ConfigError(
                f"n_bins={n_bins} leaves the bin [{lo:.5f}, {hi:.5f}] of k_band without "
                f"a k node of the N={N} grid (spacing {1.0 / N:.5f}); use fewer bins "
                f"or a larger N")
        v = abs(disp.group_velocity(mid))
        x_lo, x_hi = wedge[0] * v * t_macro, wedge[1] * v * t_macro
        taper = 0.15 * (x_hi - x_lo)
        chi = spatial_window(x, x_lo, x_hi, taper)
        if not np.any(chi > 0):
            raise ConfigError(
                f"the wedge [{x_lo:.5f}, {x_hi:.5f}] of the bin [{lo:.5f}, {hi:.5f}] "
                f"holds no site of the N={N} ring (spacing {1.0 / N:.5f}); raise "
                f"t_macro or move k_band away from zero group velocity")
        out.append((lo, hi, mid, chi, mask))
    return out


def production_profile(psi_samples: np.ndarray, disp: DispersionRelation,
                       table: ScatteringTable, temperature: float,
                       t_macro: float, k_band: tuple[float, float] = (0.15, 0.35),
                       n_bins: int = 8, wedge: tuple[float, float] = (0.1, 0.9),
                       min_samples: int = 1000) -> tuple[list[ProductionBin], list[str]]:
    """Wedge-averaged Wigner density per k-bin against the production target.

    For each bin of `production_windows` the estimate on its wedge is
    compared with the bin average of absorb(k) * T.  Returns the bins plus
    warning annotations (small ensembles are annotated, not failed).
    """
    M, N = psi_samples.shape
    warnings = []
    if M < min_samples:
        warnings.append(f"ensemble of {M} paths below the target {min_samples}")
    bins: list[ProductionBin] = []
    for lo, hi, mid, chi, mask in production_windows(N, disp, t_macro, k_band,
                                                       n_bins, wedge):
        est, se = windowed_k_density(psi_samples, chi, mask)
        sel = (table.k_grid >= lo) & (table.k_grid <= hi)
        pred = float(np.mean(table.absorb[sel])) * temperature if sel.any() else float(
            table.absorb_at(mid)) * temperature
        bins.append(ProductionBin(lo, hi, mid, est, se, pred))
    return bins, warnings
