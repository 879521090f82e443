import numpy as np
import pytest

from phonon_scatter import (ConfigError, SingularZoneError,
                            TableConstructionError, build_table, coefficients,
                            nu_laplace_limit, nu_pv)
from phonon_scatter import scattering
from closed_forms import ABSORB_QUARTER, NU_QUARTER, P_MINUS_QUARTER, P_PLUS_QUARTER


def test_nu_gamma_zero(disp_unpinned):
    assert nu_pv(disp_unpinned, 0.0, 0.31) == 1.0
    assert nu_laplace_limit(disp_unpinned, 0.0, 0.31) == 1.0
    c = coefficients(disp_unpinned, 0.0, 0.31, 1.0)
    assert (c.wp, c.absorb, c.p_plus, c.p_minus) == (0.0, 0.0, 1.0, 0.0)


def test_nu_closed_form_quarter(disp_unpinned):
    nu = nu_pv(disp_unpinned, 1.0, 0.25)
    assert nu == pytest.approx(NU_QUARTER, abs=1e-9)
    assert abs(nu.imag) < 1e-9
    nu_o = nu_laplace_limit(disp_unpinned, 1.0, 0.25)
    assert nu_o == pytest.approx(NU_QUARTER, abs=1e-6)
    c = coefficients(disp_unpinned, 1.0, 0.25, nu)
    assert c.p_plus == pytest.approx(P_PLUS_QUARTER, abs=1e-9)
    assert c.p_minus == pytest.approx(P_MINUS_QUARTER, abs=1e-9)
    assert c.absorb == pytest.approx(ABSORB_QUARTER, abs=1e-9)


def _half_grid(disp):
    k_grid = scattering.table_grid(disp, 512, 0.02)
    return k_grid[k_grid.size // 2:]


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_nu_array_matches_closed_forms(disp_unpinned, disp_pinned, gamma):
    # nearest-neighbour chains: nu = 2cos(pi k) / (2cos(pi k) + gamma)
    # unpinned, and 1 / (1 + gamma w / sqrt((w^2 - 1)(5 - w^2))) pinned (m = 1)
    k = _half_grid(disp_unpinned)
    c = 2.0 * np.cos(np.pi * k)
    assert np.max(np.abs(nu_pv(disp_unpinned, gamma, k) - c / (c + gamma))) < 1e-9
    k = _half_grid(disp_pinned)
    w = disp_pinned.omega(k)
    exact = 1.0 / (1.0 + gamma * w / np.sqrt((w**2 - 1.0) * (5.0 - w**2)))
    assert np.max(np.abs(nu_pv(disp_pinned, gamma, k) - exact)) < 1e-9


def test_nu_array_equals_scalar_calls_bitwise(disp_unpinned, disp_pinned):
    block = scattering._PV_BLOCK
    for disp in (disp_unpinned, disp_pinned):
        k = _half_grid(disp)
        for n in (1, block - 1, block, block + 1, k.size):
            nu = nu_pv(disp, 1.0, k[:n])
            assert nu.shape == (n,)
            assert all(nu[i] == nu_pv(disp, 1.0, float(k[i])) for i in range(n))
        c = coefficients(disp, 1.0, k, nu)
        for i in range(k.size):
            one = coefficients(disp, 1.0, float(k[i]), complex(nu[i]))
            assert (c.wp[i], c.absorb[i], c.p_plus[i], c.p_minus[i]) == \
                (one.wp, one.absorb, one.p_plus, one.p_minus)


def test_singular_zone_error_names_the_wavenumber(disp_unpinned, disp_pinned):
    k = np.array([0.1, 0.2, 0.4999999, 0.3])
    with pytest.raises(SingularZoneError, match="k=0.4999999"):
        nu_pv(disp_unpinned, 1.0, k)
    with pytest.raises(SingularZoneError, match=r"k=0\.0\b"):
        coefficients(disp_pinned, 1.0, np.array([0.2, 0.0, 0.3]), np.ones(3))


def test_coefficients_refuse_the_band_top_of_the_unpinned_chain(disp_unpinned):
    # omega'(1/2) = 0 exactly, so the zero-velocity guard fires instead of
    # dividing by a round-off velocity
    with pytest.raises(SingularZoneError, match="k=0.5"):
        coefficients(disp_unpinned, 1.0, 0.5, 1.0)
    with pytest.raises(SingularZoneError, match="k=-0.5"):
        coefficients(disp_unpinned, 1.0, np.array([0.25, -0.5]), np.ones(2))


def test_nu_vanishes_toward_zero_velocity(disp_unpinned):
    ks = np.array([0.30, 0.38, 0.44, 0.47, 0.49])
    mags = [abs(nu_pv(disp_unpinned, 1.0, float(k))) for k in ks]
    assert all(b < a for a, b in zip(mags, mags[1:]))
    with pytest.raises(SingularZoneError):
        nu_pv(disp_unpinned, 1.0, 0.5)
    with pytest.raises(SingularZoneError):
        nu_pv(disp_unpinned, 1.0, 0.4999999)


def test_nu_large_friction_scaling(disp_unpinned):
    # |nu| ~ 1/gamma: one gamma-doubling fixes the constant, the next
    # evaluation must stay within a factor-two band of it
    k = 0.2
    c_fit = abs(nu_pv(disp_unpinned, 500.0, k)) * 500.0
    val = abs(nu_pv(disp_unpinned, 1000.0, k))
    assert 0.5 * c_fit / 1000.0 < val < 2.0 * c_fit / 1000.0


def test_large_friction_coefficients(disp_unpinned):
    # absorption dies off ~ 1/gamma while the reflection probability
    # converges to a fixed interior limit (scattering survives the
    # infinitely stiff thermostat)
    k = 0.2
    absorbs, p_minuses = [], []
    for gamma in (1e2, 1e3, 1e4):
        nu = nu_pv(disp_unpinned, gamma, k)
        c = coefficients(disp_unpinned, gamma, k, nu)
        absorbs.append(c.absorb)
        p_minuses.append(c.p_minus)
    assert absorbs[1] < 0.5 * absorbs[0] and absorbs[2] < 0.5 * absorbs[1]
    assert all(0.5 < pm < 1.0 for pm in p_minuses)
    assert abs(p_minuses[2] - p_minuses[1]) < 5e-3


def test_evenness_both_routes(disp_unpinned):
    for k in (0.11, 0.27, 0.42):
        assert abs(nu_pv(disp_unpinned, 1.0, k) - nu_pv(disp_unpinned, 1.0, -k)) < 1e-10
        assert abs(nu_laplace_limit(disp_unpinned, 1.0, k)
                   - nu_laplace_limit(disp_unpinned, 1.0, -k)) < 1e-10


def test_table_identities_and_bounds(table_unpinned_g1):
    tab = table_unpinned_g1
    assert tab.max_sum_residual < 1e-8
    assert tab.max_renu_residual < 1e-6
    assert np.all(tab.absorb >= 0) and np.all(tab.absorb <= 1)
    assert np.all(np.abs(tab.p_plus + tab.p_minus + tab.absorb - 1) < 1e-8)
    # exclusion zone really excluded
    assert np.min(np.abs(np.abs(tab.k_grid) - 0.5)) > 0.02
    assert np.min(np.abs(tab.k_grid)) > 0.02


def test_mirrored_table_matches_direct_evaluation(disp_unpinned, table_unpinned_g1):
    tab = table_unpinned_g1
    for i in (0, 57, tab.k_grid.size // 2 - 1):
        k = float(tab.k_grid[i])
        assert k < 0
        assert tab.nu[i] == nu_pv(disp_unpinned, 1.0, k)
        assert tab.p_plus[i] == coefficients(disp_unpinned, 1.0, k, tab.nu[i]).p_plus


def test_table_rejects_asymmetric_grid(disp_unpinned, monkeypatch):
    grid = scattering.table_grid(disp_unpinned, 128, 0.02)
    monkeypatch.setattr(scattering, "table_grid", lambda *args: grid + 1e-6)
    with pytest.raises(TableConstructionError):
        build_table(disp_unpinned, 1.0, n_k=128, delta_excl=0.02)


def test_table_gamma_zero(disp_unpinned):
    tab = build_table(disp_unpinned, 0.0, n_k=128, delta_excl=0.02)
    assert np.all(tab.p_plus == 1.0) and np.all(tab.p_minus == 0.0)
    assert np.all(tab.absorb == 0.0)


def test_table_parameter_errors(disp_unpinned):
    with pytest.raises(ConfigError):
        build_table(disp_unpinned, 1.0, n_k=32)
    with pytest.raises(ConfigError):
        build_table(disp_unpinned, 1.0, n_k=128, delta_excl=0.3)


def test_cross_oracle_subsample(table_unpinned_g1, disp_unpinned):
    tab = table_unpinned_g1
    sel = np.arange(tab.k_grid.size)[::24]
    diffs = [abs(nu_laplace_limit(disp_unpinned, 1.0, float(tab.k_grid[i])) - tab.nu[i])
             for i in sel]
    assert max(diffs) < 1e-3


def test_time_domain_route_agrees(mk_long_march):
    # the truncated time integral of the phase-twisted memory measure at
    # t = 1000 lands on the extrapolated resolvent boundary value
    phi_inf = complex(mk_long_march.phase_integral(np.array([0.25]))[0][-1])
    nu = nu_laplace_limit(mk_long_march.disp, mk_long_march.gamma, 0.25)
    assert abs(phi_inf - nu) < 1e-2


def test_csv_export(tmp_path, table_unpinned_g1):
    path = tmp_path / "table.csv"
    table_unpinned_g1.export_csv(path)
    header = path.read_text().splitlines()[0].split(",")
    assert header == ["k", "re_nu", "im_nu", "absorb", "p_plus", "p_minus",
                      "identity_residual"]
    assert len(path.read_text().splitlines()) == table_unpinned_g1.k_grid.size + 1


def test_interpolators_even(table_unpinned_g1):
    tab = table_unpinned_g1
    for k in (0.13, 0.29, 0.41):
        assert tab.p_plus_at(k) == tab.p_plus_at(-k)
        assert tab.absorb_at(k) == tab.absorb_at(-k)
    assert tab.covers(0.25) and not tab.covers(0.005)
