import numpy as np
import pytest
from scipy.special import j0

from phonon_scatter import (DomainError, HorizonError, MemoryKernel,
                            g_star_series, g_star_series_curve, j_eval, j_laplace)
from phonon_scatter.memory import j_laplace_batch
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
    val, trunc = g_star_series(disp_unpinned, 1.0, 1.0, 30, dt=1e-3)
    march_val = mk_unpinned_g1.g_star(1.0)
    assert abs(val - march_val) < 1e-8
    assert g_star_series(disp_unpinned, 1.0, 0.0, 10) == (-1.0, 0.0)
    assert g_star_series(disp_unpinned, 0.0, 2.0, 10)[0] == pytest.approx(0.0, abs=1e-15)


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
    mk = mk_unpinned_g1
    ks = np.array([0.1, 0.25, 0.4])
    np.testing.assert_allclose(mk.phi(0.0, ks), 1.0, atol=1e-14)
    mk0 = MemoryKernel(disp_unpinned, gamma=0.0, dt=1e-3, horizon=2.0)
    om = np.asarray(disp_unpinned.omega(ks))
    np.testing.assert_allclose(mk0.phi(1.5, ks), np.exp(-1.5j * om), atol=1e-13)
    with pytest.raises(HorizonError):
        mk.phi(mk.horizon + 1.0, 0.25)


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
