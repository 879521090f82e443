import numpy as np
import pytest
from scipy.integrate import quad

from phonon_scatter import (CosineBumpSquaredProfile, DomainError, LimitSolution,
                            SeparableInitialData, SingularZoneError,
                            boundary_residual, equilibrium_initial_data,
                            laplace_fourier_limit, laplace_fourier_numeric,
                            limit_wigner, transport_residual)
from closed_forms import ABSORB_QUARTER


@pytest.fixture(scope="module")
def packet_solution(table_unpinned_g1, disp_unpinned):
    prof = CosineBumpSquaredProfile(center=-0.3, width=0.25)
    spectral = lambda k: 0.6 + 0.4 * np.cos(2 * np.pi * np.asarray(k, dtype=float))
    data = SeparableInitialData(prof, spectral)
    return LimitSolution.from_separable(data, table_unpinned_g1, temperature=0.7,
                                        disp=disp_unpinned)


@pytest.fixture(scope="module")
def equilibrium_solution(table_unpinned_g1, disp_unpinned):
    return LimitSolution(w0=equilibrium_initial_data(0.7), table=table_unpinned_g1,
                         temperature=0.7, disp=disp_unpinned)


def test_profile_fourier_transform_analytic():
    prof = CosineBumpSquaredProfile(center=-0.3, width=0.25, amplitude=1.3)
    for eta in (0.0, 1.7, 6.2):
        re = quad(lambda x: prof(x) * np.cos(2 * np.pi * eta * x), -0.56, -0.04,
                  limit=400, epsabs=1e-13, epsrel=1e-12)[0]
        im = -quad(lambda x: prof(x) * np.sin(2 * np.pi * eta * x), -0.56, -0.04,
                   limit=400, epsabs=1e-13, epsrel=1e-12)[0]
        assert prof.hat(eta) == pytest.approx(re + 1j * im, abs=1e-10)


def test_initial_condition_reduction(packet_solution):
    xs = np.linspace(-0.9, 0.9, 31)
    w0 = packet_solution.w0(xs, 0.25)
    np.testing.assert_allclose(limit_wigner(packet_solution, 0.0, xs, 0.25), w0,
                               atol=1e-15)


def test_equilibrium_is_stationary(equilibrium_solution):
    xs = np.linspace(-1.2, 1.2, 401)
    for t in (0.4, 1.0, 2.7):
        for k in (0.25, -0.31, 0.11):
            vals = limit_wigner(equilibrium_solution, t, xs, k)
            assert np.max(np.abs(vals - 0.7)) < 1e-12


def test_zero_data_production_wedge(table_unpinned_g1, disp_unpinned):
    zero = lambda x, k: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(k)))
    sol = LimitSolution(w0=zero, table=table_unpinned_g1, temperature=1.0,
                        disp=disp_unpinned)
    g = ABSORB_QUARTER
    assert limit_wigner(sol, 1.0, 0.3, 0.25) == pytest.approx(g, rel=1e-6)
    assert limit_wigner(sol, 1.0, 0.9, 0.25) == 0.0
    assert limit_wigner(sol, 1.0, -0.1, 0.25) == 0.0
    # negative velocity: wedge on the other side
    assert limit_wigner(sol, 1.0, -0.3, -0.25) == pytest.approx(g, rel=1e-6)
    assert limit_wigner(sol, 1.0, 0.1, -0.25) == 0.0


def test_non_negativity(packet_solution):
    xs = np.linspace(-1.5, 1.5, 301)
    for t in (0.3, 1.1):
        for k in (0.2, 0.35, -0.27):
            assert np.min(limit_wigner(packet_solution, t, xs, k)) >= 0.0


def test_boundary_relations(packet_solution, equilibrium_solution):
    for k in (0.25, 0.1, 0.4):
        assert boundary_residual(packet_solution, 1.0, k) < 1e-12
        assert boundary_residual(equilibrium_solution, 1.0, k) < 1e-12
    with pytest.raises(DomainError):
        boundary_residual(packet_solution, 1.0, -0.25)
    with pytest.raises(DomainError):
        boundary_residual(packet_solution, 0.0, 0.25)


def test_transport_equation_off_interface(packet_solution):
    for k in (0.25, 0.3):
        for x in (0.1, -0.1):
            assert transport_residual(packet_solution, 1.0, x, k) < 1e-6
    with pytest.raises(DomainError):
        transport_residual(packet_solution, 1.0, 0.0, 0.25)


def test_exclusion_zone_guard(packet_solution):
    with pytest.raises(SingularZoneError):
        limit_wigner(packet_solution, 1.0, 0.1, 0.005)
    with pytest.raises(SingularZoneError):
        limit_wigner(packet_solution, 1.0, 0.1, 0.499)


def test_laplace_fourier_limit_domain(packet_solution):
    with pytest.raises(DomainError):
        laplace_fourier_limit(packet_solution, -1.0, 2.0, 0.25)
    with pytest.raises(DomainError):
        laplace_fourier_limit(packet_solution, 0.0, 2.0, 0.25)


def test_transform_pair_consistency(packet_solution):
    for lam, eta, k in ((1.0, 2.0, 0.25), (1.0, 0.0, 0.25), (1.5, 4.0, 0.3)):
        an = laplace_fourier_limit(packet_solution, lam, eta, k)
        num = laplace_fourier_numeric(packet_solution, lam, eta, k)
        assert abs(an - num) < 1e-3
        assert abs(an - num) < 1e-3 * max(abs(an), 1.0)


def test_ballistic_resolvent_gamma_zero(disp_unpinned):
    from phonon_scatter import build_table
    table0 = build_table(disp_unpinned, 0.0, n_k=128, delta_excl=0.02)
    prof = CosineBumpSquaredProfile(center=-0.3, width=0.25)
    data = SeparableInitialData(prof, lambda k: np.ones(np.shape(k)))
    sol = LimitSolution.from_separable(data, table0, temperature=0.0,
                                       disp=disp_unpinned)
    omp = float(disp_unpinned.omega_prime(0.25))
    expect = complex(data.hat(np.array([2.0]), 0.25)[0]) / (1.0 + 2j * omp)
    assert laplace_fourier_limit(sol, 1.0, 2.0, 0.25) == pytest.approx(expect,
                                                                       abs=1e-12)


def test_thermal_term_is_resolvent_of_production(table_unpinned_g1, disp_unpinned):
    # with W0 = 0 the transform is T |v| absorb / (lam (lam + i omega' eta)),
    # i.e. gamma T |nu|^2 / (lam (lam + i omega' eta))
    zero = lambda x, k: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(k)))
    sol = LimitSolution(w0=zero, table=table_unpinned_g1, temperature=1.0,
                        disp=disp_unpinned)
    k = 0.25
    idx = np.argmin(np.abs(table_unpinned_g1.k_grid - k))
    nu = table_unpinned_g1.nu[idx]
    omp = float(disp_unpinned.omega_prime(table_unpinned_g1.k_grid[idx]))
    for lam, eta in ((1.0, 0.0), (1.0, 2.0), (0.7, 4.0)):
        got = laplace_fourier_limit(sol, lam, eta, float(table_unpinned_g1.k_grid[idx]))
        expect = abs(nu) ** 2 / (lam * (lam + 1j * omp * eta))
        assert got == pytest.approx(expect, rel=2e-3)
