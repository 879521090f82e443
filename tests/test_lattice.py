import numpy as np
import pytest

from phonon_scatter import (ConfigError, CouplingKernel, DispersionRelation,
                            DomainError, hat_alpha, kernel_from_spec, nn_pinned,
                            nn_unpinned)
from phonon_scatter import lattice
from phonon_scatter.lattice import _GL_NODES, _GL_WEIGHTS, _hat_alpha_prime


def test_gauss_legendre_table_is_numpys_rule_to_the_bit():
    from numpy.polynomial.legendre import leggauss
    nodes, weights = leggauss(16)
    assert np.array_equal(_GL_NODES, nodes) and np.array_equal(_GL_WEIGHTS, weights)


def test_graded_edges_are_np_uniques_to_the_bit(monkeypatch):
    # the edges are np.sort plus an adjacent-duplicate mask, which is what
    # np.unique computes without importing numpy.ma; with np.sort swapped
    # for np.unique the mask keeps everything and the edges are np.unique's
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(20_000):
        a = float(rng.uniform(-1, 1))
        b = a + float(rng.choice([rng.uniform(-0.1, 1), 0.5, 0.25, 0.0]))
        hot_a, hot_b = bool(rng.integers(2)), bool(rng.integers(2))
        base = (10 ** rng.uniform(-7, 0) if hot_a or hot_b
                else max(b - a, 1e-3) / rng.integers(1, 200))
        cases.append((a, b, hot_a, hot_b, float(base)))
    ours = [lattice._graded_edges(*case) for case in cases]
    had_duplicates = []

    def unique(x):
        edges = np.unique(x)
        had_duplicates.append(edges.size < x.size)
        return edges

    monkeypatch.setattr(lattice.np, "sort", unique)
    theirs = [lattice._graded_edges(*case) for case in cases]
    monkeypatch.undo()
    assert sum(had_duplicates) > 100
    assert all(x.tobytes() == y.tobytes() for x, y in zip(ours, theirs))


def test_hat_alpha_nearest_neighbour_values():
    ker = nn_unpinned()
    assert hat_alpha(ker, 0.25) == pytest.approx(2.0, abs=1e-14)
    assert hat_alpha(ker, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert hat_alpha(nn_pinned(1.0), 0.0) == pytest.approx(1.0, abs=1e-14)


def test_hat_alpha_cosine_sum_matches_exponential_sum():
    coeffs = {0: 2.6, 1: -1.0, 2: -0.2, 3: -0.05}
    ker = CouplingKernel(coeffs, decay_constant=4.0)
    k = np.linspace(-0.5, 0.5, 1001)
    full = {**coeffs, **{-y: a for y, a in coeffs.items()}}
    ref = sum(a * np.exp(-2j * np.pi * k * y) for y, a in full.items())
    np.testing.assert_allclose(hat_alpha(ker, k), ref.real, rtol=0, atol=1e-14)
    ref_prime = sum(-2j * np.pi * y * a * np.exp(-2j * np.pi * k * y)
                    for y, a in full.items())
    np.testing.assert_allclose(_hat_alpha_prime(ker, k), ref_prime.real,
                               rtol=0, atol=1e-13)
    assert isinstance(hat_alpha(ker, 0.1), float)


def test_hat_alpha_positive_and_kind(disp_unpinned, disp_pinned):
    grid = np.linspace(0, 0.5, 5001)[1:]
    assert np.min(hat_alpha(disp_unpinned.kernel, grid)) > 0
    assert disp_unpinned.kind == "acoustic"
    assert disp_pinned.kind == "optical"
    assert disp_unpinned.stationary_set == (0.5,)
    assert disp_pinned.stationary_set == (0.0, 0.5)


def test_kernel_validation_errors():
    with pytest.raises(ConfigError):
        CouplingKernel({0: 2.0, 1: -1.0, -1: -0.5}, decay_constant=3.0)  # uneven
    with pytest.raises(ConfigError):
        CouplingKernel({0: 2.0, 5: -1.0}, decay_constant=1.0)  # decay bound
    with pytest.raises(ConfigError):
        CouplingKernel({0: 1.0, 1: -1.0}, decay_constant=3.0)  # hat_alpha < 0
    # hat_alpha = (3/2) - 2cos + (1/2)cos(2.) touches zero quartically at 0
    with pytest.raises(ConfigError):
        CouplingKernel({0: 1.5, 1: -1.0, 2: 0.25}, decay_constant=3.0)


def test_dispersion_closed_forms(disp_unpinned, disp_pinned):
    # unpinned chain: omega = 2 sin(pi k) on [0, 1/2]
    assert disp_unpinned.omega(0.25) == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert disp_unpinned.omega_prime(0.25) == pytest.approx(np.pi * np.sqrt(2.0), rel=1e-13)
    assert disp_unpinned.omega_prime(0.5) == pytest.approx(0.0, abs=1e-12)
    assert disp_unpinned.omega_prime(0.0) == pytest.approx(2 * np.pi, rel=1e-12)
    assert disp_pinned.omega(0.0) == pytest.approx(1.0, abs=1e-14)
    assert disp_pinned.omega_prime(0.0) == pytest.approx(0.0, abs=1e-12)
    assert disp_unpinned.omega_min == 0.0
    assert disp_unpinned.omega_max == pytest.approx(2.0, abs=1e-14)
    assert disp_pinned.omega_max == pytest.approx(np.sqrt(5.0), abs=1e-14)


def test_group_velocity(disp_unpinned):
    assert disp_unpinned.group_velocity(0.25) == pytest.approx(np.cos(np.pi / 4), rel=1e-13)
    k = np.linspace(0.03, 0.47, 45)
    np.testing.assert_allclose(disp_unpinned.group_velocity(-k),
                               -np.asarray(disp_unpinned.group_velocity(k)),
                               atol=1e-13)
    assert disp_unpinned.group_velocity(0.5) == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("disp_name", ["disp_unpinned", "disp_pinned"])
def test_inverse_branch_roundtrip(disp_name, request):
    disp = request.getfixturevalue(disp_name)
    ks = np.linspace(0.0, 0.5, 1000)
    for k in ks:
        w = disp.omega(float(k))
        k_back = disp.inverse_branch(w)
        assert abs(k_back - k) < 1e-10 or abs(disp.omega(k_back) - w) < 1e-12


def test_inverse_branch_values(disp_unpinned):
    assert disp_unpinned.inverse_branch(np.sqrt(2.0)) == pytest.approx(0.25, abs=1e-12)
    assert disp_unpinned.inverse_branch(0.0) == 0.0
    assert disp_unpinned.inverse_branch(2.0) == 0.5
    with pytest.raises(DomainError):
        disp_unpinned.inverse_branch(2.5)
    with pytest.raises(DomainError):
        DispersionRelation(nn_pinned(1.0)).inverse_branch(0.5)  # below the gap


@pytest.mark.parametrize("disp_name", ["disp_unpinned", "disp_pinned"])
def test_omega_prime_exactly_zero_at_stationary_points(disp_name, request):
    # sin(2 pi k y) at k = +-1/2 is ~1e-16 in float64, not 0; the stationary
    # set must still give exactly zero velocity, scalar and array alike
    disp = request.getfixturevalue(disp_name)
    ks = np.array([0.0, 0.5, -0.5])
    arr = disp.omega_prime(ks)
    for k, v in zip(ks, arr):
        assert disp.omega_prime(float(k)) == v
        if disp.distance_to_stationary(float(k)) == 0.0:
            assert v == 0.0
        else:                       # the acoustic cone: one-sided slope 2 pi
            assert v == pytest.approx(2 * np.pi, rel=1e-12)


@pytest.mark.parametrize("disp_name", ["disp_unpinned", "disp_pinned"])
def test_omega_prime_matches_finite_differences(disp_name, request):
    disp = request.getfixturevalue(disp_name)
    ks = np.array([0.07, 0.19, 0.33, 0.44])
    for h in (1e-3,):
        fd1 = (disp.omega(ks + h) - disp.omega(ks - h)) / (2 * h)
        fd2 = (disp.omega(ks + h / 2) - disp.omega(ks - h / 2)) / h
        an = np.asarray(disp.omega_prime(ks))
        err1 = np.abs(fd1 - an)
        err2 = np.abs(fd2 - an)
        ratio = err1 / err2
        assert np.all((3.5 < ratio) & (ratio < 4.5))


def test_monotone_band(disp_unpinned, disp_pinned):
    grid = np.linspace(0, 0.5, 10_000)
    for disp in (disp_unpinned, disp_pinned):
        om = np.asarray(disp.omega(grid))
        assert np.all(np.diff(om) > 0)


def test_band_edge_inverse_derivative_rates(disp_unpinned, disp_pinned):
    # near omega_max both kinds have (omega_max - w)^(-1/2) blow-up of the
    # inverse-branch derivative; near omega_min the optical kind blows up,
    # the acoustic kind stays bounded
    def inv_deriv(disp, w, h=1e-9):
        return (disp.inverse_branch(w + h) - disp.inverse_branch(w - h)) / (2 * h)

    for disp in (disp_unpinned, disp_pinned):
        d1 = inv_deriv(disp, disp.omega_max - 1e-4)
        d2 = inv_deriv(disp, disp.omega_max - 2.5e-5)
        assert d2 / d1 == pytest.approx(2.0, rel=0.15)  # sqrt rate under 4x approach
    d1 = inv_deriv(disp_pinned, disp_pinned.omega_min + 1e-4)
    d2 = inv_deriv(disp_pinned, disp_pinned.omega_min + 2.5e-5)
    assert d2 / d1 == pytest.approx(2.0, rel=0.15)
    d1 = inv_deriv(disp_unpinned, 1e-4)
    d2 = inv_deriv(disp_unpinned, 2.5e-5)
    assert d2 / d1 == pytest.approx(1.0, rel=0.05)  # bounded slope at the cone


def test_kernel_from_spec_forms():
    assert kernel_from_spec("nn_unpinned").name == "nn_unpinned"
    assert kernel_from_spec("nn_pinned(2.0)").coefficients[0] == pytest.approx(6.0)
    ker = kernel_from_spec({"coefficients": [[0, 2.0], [1, -1.0]],
                            "decay_constant": 3.0})
    assert ker.coefficients == {0: 2.0, 1: -1.0}
    with pytest.raises(ConfigError):
        kernel_from_spec("lattice_of_doom")
