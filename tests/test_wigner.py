import numpy as np
import pytest

from phonon_scatter import (ConfigError, InvalidRunError, ThermostatParams,
                            WavePacketSpec, flat_top_mask, gibbs_state, init_rng,
                            nn_unpinned, run_direct, run_zero_temperature,
                            sample_initial, scattering_fractions, site_coordinates,
                            spatial_window, wave_field, wave_field_hat,
                            wavenumber_grid, wigner_estimate, windowed_k_density)
from phonon_scatter.wigner import production_windows


def pair_test_function(W, g_hat) -> complex:
    """Discrete pairing sum_{eta,k} W_hat(eta,k) G_hat*(eta,k) * (2/N), with
    g_hat(eta, k) -> matrix sampled on the estimate's grid.  The eta spacing
    is 2 and the k weight 1/N, hence the 2/N quadrature weight."""
    g = np.asarray(g_hat(W.eta, W.k_grid))
    assert g.shape == W.values.shape
    return complex(np.sum(W.values * np.conj(g)) * 2.0 / W.k_grid.size)


def _packet_hat(disp, N, seed=1, **kw):
    spec = WavePacketSpec(**{"x_center": -0.1, "k_center": 0.25, "width": 0.1, **kw})
    st = sample_initial(spec, N, disp, rng=init_rng(seed))
    return wave_field_hat(st.p, st.q, disp)


def test_single_sample_eta_zero(disp_unpinned):
    N = 128
    psi_hat = _packet_hat(disp_unpinned, N)
    est = wigner_estimate(psi_hat[None, :], 1.0 / N, eta_max=0)
    np.testing.assert_allclose(est.row(0), 0.5 / N * np.abs(psi_hat) ** 2, rtol=1e-14)


def test_hermitian_symmetry_exact(disp_unpinned):
    N = 128
    rng = np.random.default_rng(3)
    samples = rng.standard_normal((5, N)) + 1j * rng.standard_normal((5, N))
    est = wigner_estimate(samples, 1.0 / N, eta_max=8)
    for eta in est.eta:
        np.testing.assert_array_equal(est.row(int(-eta)), np.conj(est.row(int(eta))))


def test_eta_grid_validation(disp_unpinned):
    psi = np.zeros((2, 64), dtype=complex)
    with pytest.raises(ConfigError):
        wigner_estimate(psi, 1 / 64, eta_max=3)  # odd
    with pytest.raises(ConfigError):
        wigner_estimate(psi, 1 / 64, eta_max=64)  # > N/4
    est = wigner_estimate(psi, 1 / 64, eta_max=4)
    with pytest.raises(ConfigError):
        est.row(6)


def test_eta_zero_sum_is_energy(disp_unpinned):
    N = 256
    psi_hat = _packet_hat(disp_unpinned, N)
    est = wigner_estimate(psi_hat[None, :], 1.0 / N, eta_max=0)
    lhs = np.sum(est.row(0).real) / N
    rhs = 0.5 / N * np.mean(np.sum(np.abs(psi_hat) ** 2, axis=-1) / N)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_stderr_scaling_with_ensemble_size(disp_unpinned):
    N = 64
    rng = np.random.default_rng(11)
    big = rng.standard_normal((800, N)) + 1j * rng.standard_normal((800, N))
    est_full = wigner_estimate(big, 1.0 / N, eta_max=0)
    est_half = wigner_estimate(big[:400], 1.0 / N, eta_max=0)
    ratio = np.median(est_half.row_stderr(0) / est_full.row_stderr(0))
    assert ratio == pytest.approx(np.sqrt(2.0), rel=0.2)


def test_pairing_eta_zero_projection(disp_unpinned):
    N = 128
    psi_hat = _packet_hat(disp_unpinned, N)
    est = wigner_estimate(psi_hat[None, :], 1.0 / N, eta_max=4)

    def g_hat(eta, k):
        out = np.zeros((eta.size, k.size))
        out[eta == 0] = 0.5  # collapses the quadrature weight 2/N to 1/N
        return out

    val = pair_test_function(est, g_hat)
    assert val == pytest.approx(np.sum(est.row(0)) / N, rel=1e-12)


def test_pairing_spatial_profile_two_routes(disp_unpinned):
    # G(x, k) = chi(x): pairing should reproduce the windowed energy
    N = 512
    psi_hat = _packet_hat(disp_unpinned, N, x_center=-0.15, width=0.08)
    psi = np.fft.ifft(psi_hat)
    x = site_coordinates(N) / N
    chi = np.exp(-0.5 * ((x + 0.15) / 0.1) ** 2)
    direct = float(np.sum(chi * np.abs(psi) ** 2)) / N / 2.0 / (1.0)  # (eps/2) sum
    est = wigner_estimate(psi_hat[None, :], 1.0 / N, eta_max=N // 4)

    # sample the analytic transform of chi on the (eta, k) grid
    def g_hat(eta, k):
        # periodized Gaussian transform; width makes wrap negligible
        gh = 0.1 * np.sqrt(2 * np.pi) * np.exp(-2 * (np.pi * 0.1 * eta) ** 2
                                               + 2j * np.pi * eta * (-0.15))
        return np.conj(gh)[:, None] * np.ones(k.size)

    val = pair_test_function(est, g_hat)
    assert abs(val.imag) < 1e-12
    assert val.real == pytest.approx(direct, rel=0.02)


def test_pairing_real_for_real_symmetric_g(disp_unpinned):
    N = 128
    rng = np.random.default_rng(5)
    samples = rng.standard_normal((10, N)) + 1j * rng.standard_normal((10, N))
    est = wigner_estimate(samples, 1.0 / N, eta_max=8)

    def g_hat(eta, k):
        # real G(x,k): hat over eta has Hermitian symmetry; keep it real even
        return np.exp(-0.1 * eta[:, None] ** 2) * np.cos(2 * np.pi * k)[None, :]

    val = pair_test_function(est, g_hat)
    assert abs(val.imag) < 1e-10 * max(1.0, abs(val.real))


def test_packet_mass_concentration(disp_unpinned):
    N = 1024
    psi_hat = _packet_hat(disp_unpinned, N, x_center=-0.2, width=0.1)
    k = wavenumber_grid(N)
    d = np.minimum(np.abs(k - 0.25), 1 - np.abs(k - 0.25))
    mass = np.abs(psi_hat) ** 2
    frac = mass[d <= 8.0 / N].sum() / mass.sum()
    assert frac >= 0.95


def test_masks():
    k = wavenumber_grid(256)
    m = flat_top_mask(k, 0.25, 16 / 256)
    assert m[np.argmin(np.abs(k - 0.25))] == 1.0
    assert np.all(m[np.minimum(np.abs(k - 0.25), 1 - np.abs(k - 0.25)) > 16 / 256] == 0.0)
    x = np.linspace(-1, 1, 401)
    w = spatial_window(x, 0.1, 0.5, 0.05)
    assert np.all(w[(x > 0.16) & (x < 0.44)] == 1.0)
    assert np.all(w[(x < 0.1) | (x > 0.5)] == 0.0)


def test_scattering_fractions_free_transmission(disp_unpinned):
    # hitting 1e-6 bookkeeping accuracy needs a wide packet, a wide spectral
    # mask (the cosine bump's k-tail ~ (w eta)^-5 must fall under the mask
    # loss budget) and a dt small enough for the shadow-energy wobble.  The
    # integrator's law in closed form reaches the state of its 651,776 steps
    # (2,546 blocks of the gamma = 0 route)
    ker = nn_unpinned()
    N = 1024
    dt = 1e-3
    spec = WavePacketSpec(x_center=-0.15, k_center=0.25, width=0.15)
    st = sample_initial(spec, N, disp_unpinned, rng=init_rng(2))
    e0 = np.sum(np.abs(wave_field(st.p, st.q, disp_unpinned)) ** 2) / N
    n_steps = int(round(0.6365 * N / dt))
    run_zero_temperature(st.p, st.q, ker, disp_unpinned, ThermostatParams(0.0, 0.0), dt,
                         n_steps)
    fr = scattering_fractions(wave_field(st.p, st.q, disp_unpinned), disp_unpinned,
                              0.25, e0, mask_halfwidth=48.0 / N)
    assert fr.transmitted == pytest.approx(1.0, abs=1e-6)
    assert abs(fr.reflected) < 1e-6 and abs(fr.absorbed) < 1e-6


def test_scattering_fractions_requires_clearance(disp_unpinned):
    ker = nn_unpinned()
    N = 512
    spec = WavePacketSpec(x_center=-0.2, k_center=0.25, width=0.1)
    st = sample_initial(spec, N, disp_unpinned, rng=init_rng(2))
    e0 = np.sum(np.abs(wave_field(st.p, st.q, disp_unpinned)) ** 2) / N
    run_direct(st.p, st.q, ker, disp_unpinned, ThermostatParams(0.0, 0.0), 0.01,
               int(round(0.15 * N / 0.01)))  # packet still straddles x=0
    with pytest.raises(InvalidRunError):
        scattering_fractions(wave_field(st.p, st.q, disp_unpinned), disp_unpinned,
                             0.25, e0)


def test_windowed_density_calibration_on_gibbs(disp_unpinned):
    # a field in local equilibrium at temperature T must read back T
    N, T, M = 256, 1.3, 600
    p, q = gibbs_state(N, disp_unpinned, T, init_rng(17), batch=M)
    psi = wave_field(p, q, disp_unpinned)
    x = site_coordinates(N) / N
    chi = spatial_window(x, -0.3, 0.3, 0.1)
    mask = flat_top_mask(wavenumber_grid(N), 0.25, 0.05)
    est, se = windowed_k_density(psi, chi, mask)
    assert est == pytest.approx(T, abs=4 * se + 0.02 * T)


def _full_fft_density(psi, chi, mask):
    # every site and every mode through one full FFT per sample
    M, N = psi.shape
    power = np.abs(np.fft.fft(np.sqrt(chi) * psi, axis=1)) ** 2 * mask
    vals = (0.5 / N**2) * power.sum(axis=1) / ((chi.sum() / N) * (mask.sum() / N))
    return vals.mean(), vals.std(ddof=1) / np.sqrt(M)


def _random_field(M, N, seed=4):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))


def test_windowed_density_on_its_support_matches_full_fft(disp_unpinned):
    N = 256
    psi = _random_field(60, N)
    windows = production_windows(N, disp_unpinned, 0.3, (0.15, 0.35), 8)
    assert len(windows) == 8
    rng = np.random.default_rng(8)
    full = (0.5 + rng.random(N), 0.5 + rng.random(N))    # every site and mode
    for chi, mask in [w[3:] for w in windows] + [full]:
        est, se = windowed_k_density(psi, chi, mask)
        ref_est, ref_se = _full_fft_density(psi, chi, mask)
        assert est == pytest.approx(ref_est, rel=1e-12)
        assert se == pytest.approx(ref_se, rel=1e-12)


def test_windowed_density_refuses_an_empty_support():
    psi = _random_field(4, 64)
    ones, zeros = np.ones(64), np.zeros(64)
    with pytest.raises(ConfigError, match="chi"):
        windowed_k_density(psi, zeros, ones)
    with pytest.raises(ConfigError, match="mask"):
        windowed_k_density(psi, ones, zeros)


def test_windowed_density_working_memory(disp_unpinned, traced_peak_mb):
    # the production ensemble's shape: the support is ~43 sites by ~6 modes
    N = 256
    psi = _random_field(800, N)
    _, _, _, chi, mask = production_windows(N, disp_unpinned, 0.3, (0.15, 0.35), 8)[3]
    assert traced_peak_mb(lambda: windowed_k_density(psi, chi, mask)) < 2.0
