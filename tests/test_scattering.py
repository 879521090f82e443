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


def test_eps_list_validation(disp_unpinned):
    with pytest.raises(ConfigError):
        nu_laplace_limit(disp_unpinned, 1.0, 0.25, eps_list=(1e-3, 1e-2))
    with pytest.raises(ConfigError):
        nu_laplace_limit(disp_unpinned, 1.0, 0.25, eps_list=(1e-2, -1e-3))


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
