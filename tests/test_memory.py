import numpy as np
import pytest
from scipy.special import j0

from phonon_scatter import (DomainError, MemoryKernel,
                            g_star_series_curve, j_eval, j_laplace, p0_volterra,
                            psi_spectral_mild)
from phonon_scatter.memory import (_block_rotation, _fft_convolve, _leaf_inverse,
                                   _trapezoid_convolve, j_laplace_batch)
from phonon_scatter.scattering import table_grid


def test_j_at_zero_and_bessel_oracle(disp_unpinned):
    assert j_eval(disp_unpinned, 0.0) == pytest.approx(1.0, abs=1e-13)
    t = np.linspace(0.0, 50.0, 401)
    np.testing.assert_allclose(j_eval(disp_unpinned, t), j0(2 * t), atol=1e-10)
    with pytest.raises(DomainError):
        j_eval(disp_unpinned, -0.5)


def test_j_eval_takes_only_a_uniform_grid_from_zero(disp_unpinned):
    # block phase rotation evaluates J on m dt, m = 0..n, and nothing else
    t = np.linspace(0.0, 10.0, 101)
    with pytest.raises(DomainError):
        j_eval(disp_unpinned, np.concatenate([t[:50], t[51:]]))  # not uniform
    with pytest.raises(DomainError):
        j_eval(disp_unpinned, t + 0.1)                          # not from 0
    with pytest.raises(DomainError):
        j_eval(disp_unpinned, t[::-1])                          # descending


def test_j_bounded_pinned(disp_pinned):
    t = np.linspace(0.0, 200.0, 1001)
    assert np.max(np.abs(j_eval(disp_pinned, t))) <= 1.0 + 1e-12


def test_j_laplace_closed_form_and_positivity(disp_unpinned, disp_pinned):
    # Laplace transform of J0(2t) is 1/sqrt(lambda^2+4)
    assert j_laplace(disp_unpinned, 1.0) == pytest.approx(1 / np.sqrt(5.0), abs=1e-10)
    for lam in (0.3 + 0.0j, 1.0 + 2.0j, 0.05 - 1.2j, 2.0 + 0.5j):
        for disp in (disp_unpinned, disp_pinned):
            assert j_laplace(disp, lam).real > 0
    assert abs(1e3 * j_laplace(disp_unpinned, 1e3) - 1.0) < 1e-5
    with pytest.raises(DomainError):
        j_laplace(disp_unpinned, -1.0 + 0.5j)


@pytest.mark.parametrize("disp_name,closed_form", [
    # principal square roots throughout
    ("disp_unpinned", lambda lam: 1.0 / np.sqrt(lam**2 + 4.0)),
    ("disp_pinned", lambda lam: lam / (np.sqrt(lam**2 + 1.0) * np.sqrt(lam**2 + 5.0))),
])
def test_j_laplace_batch_closed_forms_on_table_grid(disp_name, closed_form, request):
    disp = request.getfixturevalue(disp_name)
    eps = np.array([1e-2, 1e-3, 1e-4])
    worst = 0.0
    for k in table_grid(disp, 512, 0.02):
        u = float(disp.omega(k))
        got = j_laplace_batch(disp, eps, u, pole=abs(float(k)))
        worst = max(worst, float(np.max(np.abs(got - closed_form(eps - 1j * u)))))
    assert worst < 1e-10


def test_g_tilde_contraction(disp_unpinned, mk_unpinned_g1):
    mk0 = MemoryKernel(disp_unpinned, gamma=0.0, dt=1e-2, horizon=1.0)
    for lam in (0.5, 1.0 + 1.0j, 3.0 - 0.7j):
        assert mk0.g_tilde(lam) == pytest.approx(1.0, abs=1e-12)
    assert mk_unpinned_g1.g_tilde(1.0) == pytest.approx(1 / (1 + 1 / np.sqrt(5.0)),
                                                        abs=1e-10)
    for lam in (0.1, 1.0 + 3.0j, 0.02 - 1.9j, 5.0):
        assert abs(mk_unpinned_g1.g_tilde(lam)) <= 1.0 + 1e-12


def test_volterra_march_basics(mk_unpinned_g1):
    mk = mk_unpinned_g1
    assert mk.gstar_samples[0] == pytest.approx(-1.0, abs=1e-14)
    assert np.all(np.abs(mk.gstar_samples) <= np.exp(mk.t_grid) + 1e-12)
    assert mk.volterra_residual() < 5 * mk.dt**2


def test_series_matches_march(disp_unpinned, mk_unpinned_g1):
    t, series, bound = g_star_series_curve(disp_unpinned, 1.0, 5.0, 1e-3, 30)
    assert np.max(np.abs(series - mk_unpinned_g1.gstar_samples)) < 1e-6
    assert bound[-1] < 1e-9
    _, vals, _ = g_star_series_curve(disp_unpinned, 1.0, 1.0, 1e-3, 30)
    assert abs(vals[-1] - mk_unpinned_g1.g_star(1.0)) < 1e-8
    _, vals, bound = g_star_series_curve(disp_unpinned, 1.0, 0.0, 1e-3, 10)
    assert (vals[-1], bound[-1]) == (-1.0, 0.0)
    _, vals, _ = g_star_series_curve(disp_unpinned, 0.0, 2.0, 1e-3, 10)
    assert vals[-1] == pytest.approx(0.0, abs=1e-15)


def _march_step_loop(j, gamma, dt):
    """The O(n^2) product-trapezoid march, one dot product per step: the
    reference the divide-and-conquer march must reproduce."""
    g = np.zeros(j.size)
    g[0] = -gamma
    diag = 1.0 + 0.5 * gamma * dt * j[0]
    for m in range(1, j.size):
        conv = 0.5 * j[m] * g[0] + np.dot(j[m - 1 : 0 : -1], g[1:m])
        g[m] = (-gamma * j[m] - gamma * dt * conv) / diag
    return g


@pytest.mark.parametrize("disp_name", ["disp_unpinned", "disp_pinned"])
@pytest.mark.parametrize("gamma", [0.0, 1.0, 3.0])
def test_march_matches_step_loop(disp_name, gamma, request):
    # step counts on both sides of the 256-step leaf and of the first splits
    disp = request.getfixturevalue(disp_name)
    for n in (1, 2, 255, 256, 257, 1000, 4097):
        mk = MemoryKernel(disp, gamma, dt=1e-2, horizon=n * 1e-2)
        assert mk.n_steps == n
        ref = _march_step_loop(mk.j_samples, gamma, mk.dt)
        assert np.max(np.abs(mk.gstar_samples - ref)) < 1e-13


def test_leaf_inverse_inverts_its_toeplitz_system():
    # diag on the diagonal and -scale kern[m - i] below it; a leading block
    # of the inverse is the inverse of the shorter system
    rng = np.random.default_rng(5)
    kern, scale, diag = rng.standard_normal(64), -0.03, 1.2
    m, i = np.indices((64, 64))
    system = np.where(m > i, -scale * kern[m - i], 0.0) + diag * np.eye(64)
    inverse = _leaf_inverse(kern, scale, diag, 64)
    for size in (1, 17, 64):
        block = inverse[:size, :size] @ system[:size, :size]
        assert np.max(np.abs(block - np.eye(size))) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 257, 4097])
def test_trapezoid_convolve_matches_direct_convolution(n):
    rng = np.random.default_rng(n)
    f, g = rng.standard_normal(n), rng.standard_normal(n)
    ref = np.convolve(f, g)[:n] - 0.5 * (f[0] * g + g[0] * f)
    ref[0] = 0.0
    ref *= 0.01
    got = _trapezoid_convolve(f, g, 0.01)
    assert got.shape == (n,)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_fft_convolve_truncates_to_the_first_terms():
    # the march asks for the first hi - a terms of g[a:mid] * J[:hi - a],
    # fewer than the full convolution holds
    rng = np.random.default_rng(7)
    for len_a, len_b, n in ((128, 256, 256), (1, 5, 3), (300, 600, 1), (7, 7, 13)):
        a, b = rng.standard_normal(len_a), rng.standard_normal(len_b)
        ref = np.convolve(a, b)[:n]
        got = _fft_convolve(a, b, n)
        assert got.shape == (n,)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_march_second_order_against_fine_series(disp_unpinned):
    # the march and the series agree to roundoff at matched dt (both solve the
    # same discretized convolution), so second order is shown against the
    # oracle on an 8x finer grid
    ref_t, ref, _ = g_star_series_curve(disp_unpinned, 1.0, 2.0, 2e-3 / 8, 40)
    errs = []
    for dt in (2e-3, 1e-3):
        mk = MemoryKernel(disp_unpinned, 1.0, dt=dt, horizon=2.0)
        ref_on_grid = np.interp(mk.t_grid, ref_t, ref)
        errs.append(np.max(np.abs(mk.gstar_samples - ref_on_grid)))
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_phi_basics(disp_unpinned, mk_unpinned_g1):
    # Phi(0, k) = 1: only the unit atom contributes at t = 0
    ks = np.array([0.1, 0.25, 0.4])
    np.testing.assert_allclose(mk_unpinned_g1.phase_integral(ks)[:, 0], 1.0, atol=1e-14)
    # gamma = 0 leaves the atom alone: Phi = 1 at every time
    mk0 = MemoryKernel(disp_unpinned, gamma=0.0, dt=1e-3, horizon=2.0)
    np.testing.assert_allclose(mk0.phase_integral(ks), 1.0, atol=1e-14)


def test_times_off_the_kernel_grid_are_refused(disp_unpinned):
    # psi_spectral_mild and p0_volterra read the kernel at grid times only;
    # a time between two grid points must not be rounded onto one
    mk = MemoryKernel(disp_unpinned, 1.0, dt=1e-2, horizon=1.0)
    psi0_hat = np.fft.fft(np.exp(-np.arange(-32, 32) ** 2 / 20.0).astype(complex))
    for t in (0.015, 0.537):
        with pytest.raises(DomainError):
            psi_spectral_mild(psi0_hat, mk, t)
        with pytest.raises(DomainError):
            p0_volterra(psi0_hat, mk, t)
    # grid times are accepted: 0.07 / dt is 7 only to round-off
    assert p0_volterra(psi0_hat, mk, 0.07)[0][-1] == pytest.approx(0.07, abs=1e-15)
    assert psi_spectral_mild(psi0_hat, mk, 0.07).shape == psi0_hat.shape
    assert psi_spectral_mild(psi0_hat, mk, 1.0).shape == psi0_hat.shape


def test_phi_laplace_transform_identities(disp_unpinned):
    # quadrature over a long horizon against the resolvent:
    #   L[phi](lam)                        = g_tilde(lam) / (lam + i omega)
    #   1 + int e^{-(lam +- i omega) t} g* = g_tilde(lam +- i omega)
    lam = 1.0
    k = 0.25
    mk = MemoryKernel(disp_unpinned, 1.0, dt=1e-3, horizon=40.0)
    om = float(disp_unpinned.omega(k))
    t = mk.t_grid
    w = np.full(t.size, mk.dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    phi_t = np.exp(-1j * om * t) * mk.phase_integral(np.array([k]))[0]
    lhs = np.sum(w * np.exp(-lam * t) * phi_t)
    rhs = mk.g_tilde(lam) / (lam + 1j * om)
    assert abs(lhs - rhs) < 1e-4
    for sign in (+1.0, -1.0):
        lhs = 1.0 + np.sum(w * np.exp(-(lam + sign * 1j * om) * t) * mk.gstar_samples)
        rhs = mk.g_tilde(lam + sign * 1j * om)
        assert abs(lhs - rhs) < 1e-4


def test_phase_integral_settles(mk_long_march):
    # e^{i omega t} phi(t, k) approaches a constant: the averaged tail over
    # the last quarter of a t=1000 horizon moves by less than 1e-3
    mk = mk_long_march
    rows = mk.phase_integral(np.array([0.25]))[0]
    n = rows.size
    last_q = rows[3 * n // 4:]
    half = last_q.size // 2
    cesaro_a = last_q[:half].mean()
    cesaro_b = last_q[half:].mean()
    assert abs(cesaro_a - cesaro_b) < 1e-3


def test_j_nodes_scale_with_time(disp_unpinned):
    # phase resolution is held roughly constant, so long times stay accurate
    val = j_eval(disp_unpinned, 800.0)
    assert abs(val - j0(1600.0)) < 1e-10


@pytest.mark.parametrize("n, n_om", [(10_000, 1000), (99, 7000), (50, 1), (0, 3), (0, 1)])
def test_block_rotation_matches_dense_tables(n, n_om):
    # the chunked tables against one dense table of every phase; the first
    # two sizes span 4 and 3 chunks of frequencies
    rng = np.random.default_rng(n + n_om)
    dt = 0.01
    om = rng.uniform(0.0, 2.0, n_om)
    phases = np.exp(-1j * np.multiply.outer(np.arange(n + 1) * dt, om))
    c = rng.standard_normal(n_om) + 1j * rng.standard_normal(n_om)
    cm = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    for got, dense in ((_block_rotation(om, dt, n, c), phases @ c),
                       (_block_rotation(om, dt, n, cm, transpose=True),
                        cm @ np.conj(phases))):
        assert got.shape == dense.shape
        assert np.linalg.norm(got - dense) <= 1e-13 * np.linalg.norm(dense)


def test_phase_integral_chunks_match_one_dense_table(mk_unpinned_g1):
    # 5001 grid times give 6 rows per chunk, so 20 wavenumbers span 4 chunks
    mk = mk_unpinned_g1
    k = np.linspace(0.01, 0.49, 20)
    f = np.exp(1j * np.multiply.outer(mk.disp.omega(k), mk.t_grid)) * mk.gstar_samples
    dense = np.ones_like(f)
    dense[:, 1:] += np.cumsum(0.5 * (f[:, 1:] + f[:, :-1]) * mk.dt, axis=1)
    np.testing.assert_allclose(mk.phase_integral(k), dense, rtol=0, atol=1e-13)


def test_j_eval_working_memory_is_bounded(mk_long_march, traced_peak_mb):
    # 100,001 times and 16,001 frequencies: whole phase tables took 233 MB,
    # the chunked ones a few MB next to the 0.8 MB result
    t = mk_long_march.t_grid
    assert traced_peak_mb(lambda: j_eval(mk_long_march.disp, t)) < 16.0
