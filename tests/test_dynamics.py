import numpy as np
import pytest
from scipy.stats import kstest

from phonon_scatter import (ChainState, ConfigError, CouplingKernel,
                            DispersionRelation, EnsembleNoise, HorizonError,
                            MemoryKernel, ThermostatParams,
                            energy_balance_residual, nn_unpinned, p0_volterra,
                            WavePacketSpec, init_rng, nn_pinned, psi_spectral_mild,
                            run_direct, run_vacuum_ensemble, run_zero_temperature,
                            sample_initial, site_coordinates, state_from_wave_field,
                            wave_field, wave_field_hat)
from phonon_scatter import dynamics
from phonon_scatter.dynamics import _RingLaw, alpha_hat_rfft


def _energy(p, q, kernel):
    """Total energy sum |psi_y|^2 = 2 H(p, q) of the periodic surrogate."""
    N = p.shape[-1]
    conv = np.fft.irfft(alpha_hat_rfft(kernel, N) * np.fft.rfft(q), n=N)
    return float(np.sum(p**2) + np.sum(q * conv))


def _random_state(N, scale=0.1, seed=7):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(N) * scale, rng.standard_normal(N) * scale


def _packet_field(N, xc, kc, w):
    eps = 1.0 / N
    y = site_coordinates(N)
    x = eps * y - xc
    env = np.where(np.abs(x) <= w, np.cos(np.pi * np.clip(x, -w, w) / (2 * w)) ** 2, 0.0)
    return np.sqrt(eps) * env * np.exp(2j * np.pi * kc * y)


def test_noise_reproducible_and_normal():
    a = EnsembleNoise(42, 1, 0.01).block(1000)
    b = EnsembleNoise(42, 1, 0.01).block(1000)
    assert np.array_equal(a, b)
    draws = EnsembleNoise(7, 1, 1.0).block(100_000)[:, 0]
    assert kstest(draws, "norm").pvalue > 0.01


def test_noise_drawn_per_path_tile_equals_whole_blocks():
    # 70 paths are one tile of 64 and a part, and 300 steps are one block
    # of 256 and a part: tile draws into one reused buffer give the bits
    # of each whole block's columns, and leave every stream where it was
    dt, M, n = 0.04, 70, 300
    whole, tiled = EnsembleNoise(5, M, dt), EnsembleNoise(5, M, dt)
    buf = np.full((256, 64), np.nan)
    for m0 in range(0, n, 256):
        count = min(256, n - m0)
        ref = whole.block(count)
        for a in range(0, M, 64):
            b = min(a + 64, M)
            got = tiled.block(count, (a, b), out=buf[:count, : b - a])
            assert np.shares_memory(got, buf)
            assert np.array_equal(got, ref[:, a:b])
    assert np.array_equal(whole.block(3), tiled.block(3))


def test_ensemble_noise_per_path_keys():
    ens = EnsembleNoise(100, 3, 0.01)
    block = ens.block(50)
    for i in range(3):
        rng = np.random.Generator(np.random.Philox(key=100 + i))
        assert np.array_equal(block[:, i], rng.standard_normal(50) * np.sqrt(0.01))


def test_noise_blocks_stream():
    # consecutive blocks continue each path's stream, so the integrator's
    # block size never shows in a trajectory
    a, b = EnsembleNoise(5, 3, 0.01), EnsembleNoise(5, 3, 0.01)
    assert np.array_equal(np.concatenate([a.block(100), a.block(300)]), b.block(400))


def test_trajectory_determinism(disp_unpinned):
    ker = nn_unpinned()
    results = []
    for _ in range(2):
        p, q = np.zeros(64), np.zeros(64)
        noise = EnsembleNoise(11, 1, 0.02)
        run_direct(p, q, ker, disp_unpinned, ThermostatParams(1.0, 0.5), 0.02, 500,
                   noise=noise)
        results.append((p.copy(), q.copy()))
    assert np.array_equal(results[0][0], results[1][0])
    assert np.array_equal(results[0][1], results[1][1])


def _max_state_diff(a, b):
    return max(float(np.max(np.abs(x - y))) for x, y in zip(a, b))


def test_fused_kicks_match_single_steps(disp_unpinned):
    # between two steps nothing observes the state, so the two half-kicks
    # there are applied as one; a run of n steps must match n one-step runs,
    # whose every step ends on a split half-kick
    ker = nn_unpinned()
    n, dt = 300, 0.02
    dw = EnsembleNoise(9, 1, dt).block(n)         # (n_steps, 1) on a single ring
    for params, noise in ((ThermostatParams(1.0, 0.0), None),
                          (ThermostatParams(1.0, 0.5), dw)):
        p, q = _random_state(64)
        run_direct(p, q, ker, disp_unpinned, params, dt, n, noise=noise)
        p1, q1 = _random_state(64)
        for s in range(n):
            run_direct(p1, q1, ker, disp_unpinned, params, dt, 1,
                       noise=None if noise is None else noise[s : s + 1])
        assert _max_state_diff((p, q), (p1, q1)) <= 1e-12


def test_snapshots_see_the_synchronised_state(disp_unpinned):
    ker = nn_unpinned()
    n, dt, every = 100, 0.02, 30
    params = ThermostatParams(1.0, 0.5)
    dw = EnsembleNoise(4, 1, dt).block(n)[:, 0]
    p, q = _random_state(64)
    traj = run_direct(p, q, ker, disp_unpinned, params, dt, n, noise=dw,
                      snapshot_every=every,
                      snapshot_fn=lambda p, q: (p.copy(), q.copy()))
    steps = [30, 60, 90, 100]
    assert traj.snapshot_times == pytest.approx([s * dt for s in steps])
    for s, snap in zip(steps, traj.snapshots):
        ps, qs = _random_state(64)
        run_direct(ps, qs, ker, disp_unpinned, params, dt, s, noise=dw[:s])
        assert _max_state_diff(snap, (ps, qs)) <= 1e-12


def test_recorded_energies_are_chain_energies(disp_unpinned):
    ker = nn_unpinned()
    n, dt = 50, 0.02
    p, q = _random_state(64)
    E0 = _energy(p, q, ker)
    traj = run_direct(p, q, ker, disp_unpinned, ThermostatParams(1.0, 0.5), dt, n,
                      noise=EnsembleNoise(2, 1, dt), record=True, snapshot_every=1,
                      snapshot_fn=lambda p, q: _energy(p, q, ker))
    energies = np.concatenate([[E0], traj.snapshots])
    np.testing.assert_allclose(traj.energies, energies, rtol=1e-12)


def test_batch_rows_match_single_paths(disp_unpinned):
    # the work arrays are per call and every operation is row-wise, so a
    # batch gives each path bitwise what a run of that path alone gives
    ker = nn_unpinned()
    m, n, dt = 3, 200, 0.02
    params = ThermostatParams(1.0, 0.5)
    rows = [_random_state(64, seed=s) for s in range(m)]
    p = np.array([r[0] for r in rows])
    q = np.array([r[1] for r in rows])
    run_direct(p, q, ker, disp_unpinned, params, dt, n,
               noise=EnsembleNoise(40, m, dt), snapshot_every=70,
               snapshot_fn=lambda p, q: None)
    for i, (pi, qi) in enumerate(rows):
        run_direct(pi, qi, ker, disp_unpinned, params, dt, n,
                   noise=EnsembleNoise(40 + i, 1, dt), snapshot_every=70,
                   snapshot_fn=lambda p, q: None)
        assert np.array_equal(p[i], pi) and np.array_equal(q[i], qi)


def test_concurrent_calls_share_no_buffers(disp_unpinned):
    from concurrent.futures import ThreadPoolExecutor

    ker = nn_unpinned()
    n, dt = 2000, 0.02
    params = ThermostatParams(1.0, 0.5)

    def work(seed):
        p, q = _random_state(128, seed=seed)
        p, q = np.tile(p, (4, 1)), np.tile(q, (4, 1))
        run_direct(p, q, ker, disp_unpinned, params, dt, n,
                   noise=EnsembleNoise(seed, 4, dt))
        return p, q

    serial = [work(s) for s in (1, 2)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        concurrent = list(pool.map(work, (1, 2)))
    for a, b in zip(serial, concurrent):
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_stability_precondition(disp_unpinned):
    p, q = np.zeros(32), np.zeros(32)
    with pytest.raises(ConfigError):
        run_direct(p, q, nn_unpinned(), disp_unpinned, ThermostatParams(), 0.3, 1)


def _direct_with_states(p, q, ker, disp, params, dt, n, every):
    """run_direct in place; the states it snapshots every `every` steps."""
    traj = run_direct(p, q, ker, disp, params, dt, n, snapshot_every=every,
                      snapshot_fn=lambda p, q: (p.copy(), q.copy()))
    return traj.snapshots


def _relative_diff(a, b):
    return _max_state_diff(a, b) / max(float(np.max(np.abs(x))) for x in a)


@pytest.mark.parametrize("pinned", [False, True])
@pytest.mark.parametrize("gamma", [0.0, 0.7])
@pytest.mark.parametrize("N", [64, 256])
def test_zero_temperature_route_matches_run_direct(disp_unpinned, disp_pinned,
                                                  pinned, gamma, N):
    # step counts on, off and around the 256-step leaf, with states between
    ker, disp = (nn_pinned(1.0), disp_pinned) if pinned else (nn_unpinned(), disp_unpinned)
    params, dt = ThermostatParams(gamma, 0.0), 0.1
    for n in (1, 2, 37, 255, 256, 257, 1001):
        every = max(1, n // 3)
        p, q = _random_state(N, seed=n)
        snaps = _direct_with_states(p, q, ker, disp, params, dt, n, every)
        p1, q1 = _random_state(N, seed=n)
        states = run_zero_temperature(p1, q1, ker, disp, params, dt, n, snapshot_every=every,
                                      snapshot_fn=lambda p, q: (p.copy(), q.copy()))
        assert len(states) == len(snaps)
        for state, snap in zip(states + [(p1, q1)], snaps + [(p, q)]):
            assert _relative_diff(snap, state) <= 1e-9


def test_zero_temperature_route_on_the_benchmark_packet(disp_unpinned):
    # N = 1024, gamma = 1, dt = 0.01, t_macro = 0.6: 61,440 steps and the
    # seam guard's eight states
    ker, N, n = nn_unpinned(), 1024, 61_440
    spec = WavePacketSpec(x_center=-0.2, k_center=0.25, width=0.1)
    st = sample_initial(spec, N, disp_unpinned, rng=init_rng(1))
    p, q = st.p.copy(), st.q.copy()
    params = ThermostatParams(1.0, 0.0)
    snaps = _direct_with_states(p, q, ker, disp_unpinned, params, 0.01, n, n // 8)
    states = run_zero_temperature(st.p, st.q, ker, disp_unpinned, params, 0.01, n,
                                  snapshot_every=n // 8,
                                  snapshot_fn=lambda p, q: (p.copy(), q.copy()))
    assert len(states) == len(snaps) == 8
    for state, snap in zip(states + [(st.p, st.q)], snaps + [(p, q)]):
        assert _relative_diff(snap, state) <= 1e-9


def test_zero_temperature_route_refusals(disp_unpinned):
    ker, p, q = nn_unpinned(), np.zeros(32), np.zeros(32)
    for params, dt in ((ThermostatParams(1.0, 0.5), 0.02),
                       (ThermostatParams(1.0, 0.0), 0.3),
                       (ThermostatParams(1.0, 0.0), 0.0)):
        with pytest.raises(ConfigError):
            run_zero_temperature(p, q, ker, disp_unpinned, params, dt, 4)
    with pytest.raises(ConfigError):
        run_zero_temperature(np.zeros((2, 32)), np.zeros((2, 32)), ker, disp_unpinned,
                             ThermostatParams(1.0, 0.0), 0.02, 4)


def test_mismatched_noise_refused_before_the_first_step(disp_unpinned):
    ker = nn_unpinned()
    params = ThermostatParams(1.0, 0.5)
    n, dt = 20, 0.05
    batch = np.zeros((3, 32))
    sources = [
        (batch, EnsembleNoise(1, 3, 0.5), "dt=0.5.*dt=0.05"),  # another dt
        (batch, EnsembleNoise(1, 2, dt), "2 paths"),          # another path count
        (batch, np.zeros((n, 2)), r"\(20, 3\)"),              # another shape
        (batch, np.zeros((n - 1, 3)), r"\(19, 3\)"),          # too few steps
        (np.zeros(32), np.zeros((n, 2)), r"\(20,\)"),
        (np.zeros(32), np.zeros(()), r"\(20,\)"),
        (batch, [0.0] * n, "unsupported"),
    ]
    for state, noise, named in sources:
        p, q = state.copy(), state.copy()
        q[..., 1] = 1.0
        q_before = q.copy()
        with pytest.raises(ConfigError, match=named):
            run_direct(p, q, ker, disp_unpinned, params, dt, n, noise=noise)
        assert not p.any() and np.array_equal(q, q_before)      # no step taken
    # what fits is taken: (n_steps, 1) on a single ring, extra steps unused
    p, q = np.zeros(32), np.zeros(32)
    run_direct(p, q, ker, disp_unpinned, params, dt, n, noise=np.ones((n + 5, 1)))
    assert p.any()


def test_energy_conservation_free(disp_unpinned):
    # the shadow-energy oscillation scales like (dt*omega_max)^2/8, so the
    # 1e-6 relative bound over 1e5 steps needs dt <= ~5e-4 at omega_max = 2
    ker = nn_unpinned()
    p, q = _random_state(256)
    E0 = _energy(p, q, ker)
    traj = run_direct(p, q, ker, disp_unpinned, ThermostatParams(0.0, 0.0),
                      dt=5e-4, n_steps=100_000, record=True)
    assert np.max(np.abs(traj.energies - E0)) / E0 < 1e-6
    assert energy_balance_residual(traj, ThermostatParams(0.0, 0.0)) < 1e-6


def test_energy_balance_residual_tight_at_small_dt(disp_unpinned):
    ker = nn_unpinned()
    p, q = _random_state(64)
    traj = run_direct(p, q, ker, disp_unpinned, ThermostatParams(0.0, 0.0),
                      dt=2e-5, n_steps=2000, record=True)
    assert energy_balance_residual(traj, ThermostatParams(0.0, 0.0)) < 1e-8


def test_damped_energy_monotone(disp_unpinned):
    ker = nn_unpinned()
    p, q = _random_state(128)
    params = ThermostatParams(1.0, 0.0)
    traj = run_direct(p, q, ker, disp_unpinned, params, dt=2e-3, n_steps=5000,
                      record=True)
    assert np.max(np.diff(traj.energies)) < 5e-8  # non-increasing up to roundoff
    res = energy_balance_residual(traj, params)
    assert res < 50 * traj.dt


def test_residual_first_order_in_dt(disp_unpinned):
    ker = nn_unpinned()
    vals = []
    for dt in (4e-3, 2e-3):
        p, q = _random_state(128)
        traj = run_direct(p, q, ker, disp_unpinned, ThermostatParams(1.0, 0.0),
                          dt=dt, n_steps=int(round(8.0 / dt)), record=True)
        vals.append(energy_balance_residual(traj, ThermostatParams(1.0, 0.0)))
    assert vals[1] < 0.7 * vals[0]


def test_single_site_thermalization():
    # isolated pinned oscillator with thermostat: stationary E[p^2] = T
    ker = CouplingKernel({0: 1.0}, decay_constant=2.0)
    disp = DispersionRelation(ker)
    M, T = 10_000, 0.8
    p = np.zeros((M, 1))
    q = np.zeros((M, 1))
    run_direct(p, q, ker, disp, ThermostatParams(1.5, T), dt=0.05, n_steps=2000,
               noise=EnsembleNoise(3, M, 0.05))
    se = np.std(p[:, 0] ** 2, ddof=1) / np.sqrt(M)
    assert abs(np.mean(p**2) - T) < 3 * se + 0.01 * T  # 3 SE plus dt bias allowance


def test_strong_order_under_path_refinement(disp_unpinned):
    ker = nn_unpinned()
    T, gamma = 0.5, 1.0
    dt_f = 1e-3
    n_f = 4000
    fine = EnsembleNoise(21, 1, dt_f).block(n_f)[:, 0]
    p_f, q_f = _random_state(64, seed=5)
    run_direct(p_f, q_f, ker, disp_unpinned, ThermostatParams(gamma, T), dt_f, n_f,
               noise=fine.copy())
    errs = []
    for fac in (2, 4):
        dw = fine.reshape(-1, fac).sum(axis=1)
        p_c, q_c = _random_state(64, seed=5)
        run_direct(p_c, q_c, ker, disp_unpinned, ThermostatParams(gamma, T),
                   dt_f * fac, n_f // fac, noise=dw)
        errs.append(np.sqrt(np.sum((p_c - p_f) ** 2) + np.sum((q_c - q_f) ** 2)))
    assert errs[1] / errs[0] > 1.8  # halving dt contracts the strong error


def test_wave_field_identities(disp_unpinned):
    ker = nn_unpinned()
    p, q = _random_state(128)
    psi = wave_field(p, np.zeros(128), disp_unpinned)
    np.testing.assert_allclose(psi, 1j * p, atol=1e-12)
    psi = wave_field(p, q, disp_unpinned)
    assert np.sum(np.abs(psi) ** 2) == pytest.approx(_energy(p, q, ker), rel=1e-10)
    psi_hat = wave_field_hat(p, q, disp_unpinned)
    assert np.sum(np.abs(psi_hat) ** 2) / 128 == pytest.approx(_energy(p, q, ker), rel=1e-10)


@pytest.mark.parametrize("shape, pinned", [((128,), False), ((5, 64), False),
                                           ((3, 128), True)])
def test_wave_field_matches_the_inverse_of_its_dft(disp_unpinned, disp_pinned,
                                                   shape, pinned):
    # one real transform pair gives what the full complex route gives
    disp = disp_pinned if pinned else disp_unpinned
    rng = np.random.default_rng(3)
    p, q = rng.standard_normal(shape), rng.standard_normal(shape)
    psi = wave_field(p, q, disp)
    ref = np.fft.ifft(wave_field_hat(p, q, disp), axis=-1)
    assert psi.shape == shape and psi.dtype == complex
    assert np.max(np.abs(psi - ref)) <= 1e-13 * np.max(np.abs(psi))
    assert np.array_equal(psi.imag, p)


def test_wave_field_working_memory(disp_unpinned, traced_peak_mb):
    # the result (3.3 MB) plus one spectrum of a few rows; the whole
    # (800, 129) spectrum would add 1.7 MB
    rng = np.random.default_rng(5)
    p, q = rng.standard_normal((800, 256)), rng.standard_normal((800, 256))
    assert traced_peak_mb(lambda: wave_field(p, q, disp_unpinned)) < 4.0


def test_run_direct_working_memory(disp_unpinned, traced_peak_mb):
    # the spectrum, the kick and one noise block, 0.8 MB each: no third
    # array shaped like the state, and the first block is freed before the
    # second is drawn
    M, N, dt = 400, 256, 0.04
    params = ThermostatParams(1.0, 0.5)
    # a first transform of length N sets up numpy's FFT plan: not counted
    run_direct(np.zeros(N), np.zeros(N), nn_unpinned(), disp_unpinned, params, dt, 1,
               noise=EnsembleNoise(11, 1, dt))
    p, q = np.zeros((M, N)), np.zeros((M, N))
    noise = EnsembleNoise(11, M, dt)
    assert traced_peak_mb(lambda: run_direct(p, q, nn_unpinned(), disp_unpinned,
                                             params, dt, 512, noise=noise)) < 2.8
    assert p.any()


@pytest.mark.parametrize("pinned", [False, True])
@pytest.mark.parametrize("n", [100, 300, 513])
def test_vacuum_ensemble_matches_batch_run_direct(disp_unpinned, disp_pinned, pinned, n):
    # 100 steps fill part of one noise block, 300 and 513 cross block edges
    # and end inside a block; 70 paths are one full tile of 64 and a part.
    # psi is compared with the wave field of the stepped state; q's zero
    # mode, which Omega removes on the unpinned ring, is pinned by
    # test_ring_law_rows_match_a_noise_free_march
    disp = disp_pinned if pinned else disp_unpinned
    ker = disp.kernel
    params = ThermostatParams(1.0, 0.7)
    N, M, dt, seed = 64, 70, 0.05, 3
    p, q = np.zeros((M, N)), np.zeros((M, N))
    run_direct(p, q, ker, disp, params, dt, n, noise=EnsembleNoise(seed, M, dt))
    ref = wave_field(p, q, disp)
    psi = run_vacuum_ensemble(ker, disp, params, N, dt, n, M, EnsembleNoise(seed, M, dt))
    assert psi.shape == (M, N) and psi.dtype == complex
    scale = max(np.max(np.abs(ref.real)), np.max(np.abs(ref.imag)))
    assert scale > 0
    assert _max_state_diff((psi.real, psi.imag), (ref.real, ref.imag)) <= 1e-12 * scale


@pytest.mark.parametrize("pinned", [False, True])
def test_ring_law_rows_match_a_noise_free_march(disp_unpinned, disp_pinned, pinned):
    # the vacuum ensemble's impulse rows, eight blocks of 256 from g_0, row
    # by row against run_direct stepping the same ring; on the unpinned
    # ring the zero mode's s_j = j grows with j
    disp = disp_pinned if pinned else disp_unpinned
    ker, gamma, N, n, dt = disp.kernel, 1.0, 32, 2000, 0.05
    law = _RingLaw(ker, gamma, dt, N)
    K = N // 2 + 1
    # g_0: one step from rest with a unit increment, scale (cos theta, dt) per mode
    p, q = np.zeros(N), np.zeros(N)
    run_direct(p, q, ker, disp, ThermostatParams(gamma, 1.0), dt, 1, noise=np.ones(1))
    scale = np.sqrt(1.0 - np.exp(-2.0 * gamma * dt)) / np.sqrt(dt)
    z = scale * law.cos1, np.full(K, scale * dt)
    assert _relative_diff((p, q), tuple(np.fft.irfft(x, n=N) for x in z)) <= 1e-15
    march = [(p.copy(), q.copy())] + _direct_with_states(
        p, q, ker, disp, ThermostatParams(gamma, 0.0), dt, n - 1, 1)
    rows = np.empty((256, 2 * K))
    for j0 in range(0, n, 256):
        count = min(256, n - j0)
        law.rows(*z, count, out=rows[:count])
        for i in range(count):
            row = np.fft.irfft(rows[i, :K], n=N), np.fft.irfft(rows[i, K:], n=N)
            assert _relative_diff(march[j0 + i], row) <= 1e-12
        z = law.advance(*z, count)


def test_vacuum_ensemble_steps_nothing(disp_unpinned, monkeypatch):
    # the rows come from the ring's law, not from run_direct
    def refuse(*args, **kwargs):
        raise AssertionError("run_vacuum_ensemble stepped run_direct")

    monkeypatch.setattr(dynamics, "run_direct", refuse)
    params = ThermostatParams(1.0, 0.5)
    psi = run_vacuum_ensemble(nn_unpinned(), disp_unpinned, params, 32, 0.05, 600, 5,
                              EnsembleNoise(1, 5, 0.05))
    assert psi.real.any() and psi.imag.any()


def test_vacuum_ensemble_noise_and_rest(disp_unpinned):
    ker = nn_unpinned()
    params = ThermostatParams(1.0, 0.5)
    N, M, n, dt = 32, 3, 20, 0.05
    for noise, named in ((None, "EnsembleNoise"), (np.zeros((n, M)), "EnsembleNoise"),
                         (EnsembleNoise(1, 2, dt), "2 paths"),
                         (EnsembleNoise(1, M, 0.5), "dt=0.5")):
        with pytest.raises(ConfigError, match=named):
            run_vacuum_ensemble(ker, disp_unpinned, params, N, dt, n, M, noise)
    with pytest.raises(ConfigError, match="stability"):
        run_vacuum_ensemble(ker, disp_unpinned, params, N, 0.3, n, M,
                            EnsembleNoise(1, M, 0.3))
    # nothing drives the rings without friction or temperature
    for undriven in (ThermostatParams(1.0, 0.0), ThermostatParams(0.0, 0.5)):
        psi = run_vacuum_ensemble(ker, disp_unpinned, undriven, N, dt, n, M)
        assert psi.shape == (M, N) and psi.dtype == complex and not psi.any()


def test_vacuum_ensemble_working_memory(disp_unpinned, traced_peak_mb):
    # the benchmark's production ensemble: psi (3.3 MB), one block
    # of response rows as real mode spectra (0.53 MB), one tile product
    # (0.13 MB), one tile of noise (0.13 MB) and the rows' 16-mode cos/sin
    # tables measure 4.5 MB; every row of the response in site space would
    # be 7.9 MB and all of the noise 12.3 MB
    N, M, n, dt = 256, 800, 1920, 0.04
    params = ThermostatParams(1.0, 1.0)
    # a first transform of length N sets up numpy's FFT plan: not counted
    run_vacuum_ensemble(nn_unpinned(), disp_unpinned, params, N, dt, 2, 1,
                        EnsembleNoise(0, 1, dt))
    noise = EnsembleNoise(11, M, dt)
    assert traced_peak_mb(lambda: run_vacuum_ensemble(
        nn_unpinned(), disp_unpinned, params, N, dt, n, M, noise)) < 7.0


def test_local_energy_conserved_until_interface(disp_unpinned):
    # packet far from site 0: with strong damping present, total energy
    # stays put until the support reaches the thermostat
    ker = nn_unpinned()
    N = 512
    psi0 = _packet_field(N, -0.25, 0.25, 0.05)
    p, q = state_from_wave_field(psi0, disp_unpinned)
    E0 = float(np.sum(np.abs(wave_field(p, q, disp_unpinned)) ** 2))
    params = ThermostatParams(5.0, 0.0)
    # front needs ~ (0.25-0.05-margin)*N / v_max steps*dt to arrive
    dt = 5e-3
    n_safe = int(0.12 * N / 1.0 / dt)
    run_direct(p, q, ker, disp_unpinned, params, dt, n_safe)
    E_mid = float(np.sum(np.abs(wave_field(p, q, disp_unpinned)) ** 2))
    assert abs(E_mid - E0) / E0 < 1e-6
    run_direct(p, q, ker, disp_unpinned, params, dt, int(0.4 * N / dt / 1.0))
    E_after = float(np.sum(np.abs(wave_field(p, q, disp_unpinned)) ** 2))
    assert E_after < 0.9 * E0  # the interface has been doing work


def test_state_roundtrip_packet(disp_unpinned):
    psi0 = _packet_field(256, -0.1, 0.25, 0.1)
    p, q = state_from_wave_field(psi0, disp_unpinned)
    psi1 = wave_field(p, q, disp_unpinned)
    assert np.max(np.abs(psi1 - psi0)) < 1e-6  # DC mode drop only


def test_p0_volterra_trivial_cases(disp_unpinned, mk_unpinned_g1):
    N = 128
    zeros = np.zeros(N, dtype=complex)
    t, p0 = p0_volterra(zeros, mk_unpinned_g1, 2.0)
    assert np.all(p0 == 0.0)
    mk0 = MemoryKernel(disp_unpinned, 0.0, dt=1e-3, horizon=2.0)
    psi0 = np.fft.fft(_packet_field(N, -0.05, 0.25, 0.1))
    from phonon_scatter import p0_free
    t, p0 = p0_volterra(psi0, mk0, 2.0)
    np.testing.assert_allclose(p0, p0_free(psi0, disp_unpinned, t), atol=1e-14)
    with pytest.raises(HorizonError):
        p0_volterra(psi0, mk_unpinned_g1, 100.0)


def test_p0_cross_solver(disp_unpinned):
    ker = nn_unpinned()
    N = 256
    dt = 2e-3
    t_end = 50.0
    mk = MemoryKernel(disp_unpinned, 1.0, dt=dt, horizon=t_end)
    psi0 = _packet_field(N, -0.05, 0.25, 0.12)
    p, q = state_from_wave_field(psi0, disp_unpinned)
    psi0_hat = wave_field_hat(p, q, disp_unpinned)
    traj = run_direct(p, q, ker, disp_unpinned, ThermostatParams(1.0, 0.0), dt,
                      int(round(t_end / dt)), record=True)
    t, p0 = p0_volterra(psi0_hat, mk, t_end)
    sup = np.max(np.abs(p0[: traj.p0_at_ou.shape[0]] - traj.p0_at_ou))
    assert sup < 5 * dt


def test_mild_route_trivial_cases(disp_unpinned, mk_unpinned_g1):
    N = 128
    psi0_hat = np.fft.fft(_packet_field(N, -0.05, 0.25, 0.1))
    mk0 = MemoryKernel(disp_unpinned, 0.0, dt=1e-3, horizon=2.0)
    om = np.asarray(disp_unpinned.omega(np.arange(N) / N))
    out = psi_spectral_mild(psi0_hat, mk0, 1.5)
    np.testing.assert_allclose(out, np.exp(-1.5j * om) * psi0_hat, atol=1e-12)
    out0 = psi_spectral_mild(psi0_hat, mk_unpinned_g1, 0.0)
    np.testing.assert_allclose(out0, psi0_hat, atol=1e-14)


def test_mild_route_matches_phase_integral_oracle(disp_unpinned):
    # the convolution-kernel form e^{-i omega t} psi_hat_0
    # - i gamma int phi(t-s, k) p0^0(s) ds, with phi from Phi(tau, k)
    from phonon_scatter import p0_free
    N, t_end, dt = 128, 5.0, 1e-3
    mk = MemoryKernel(disp_unpinned, 1.0, dt=dt, horizon=t_end)
    psi0_hat = np.fft.fft(_packet_field(N, -0.05, 0.25, 0.1))
    om = np.asarray(disp_unpinned.omega(np.arange(N) / N))
    t = mk.t_grid
    w = np.full(t.size, dt)
    w[[0, -1]] *= 0.5
    tau = t_end - t                                     # phi(t_end - s, k)
    phi = np.exp(-1j * np.multiply.outer(om, tau)) * \
        mk.phase_integral(np.arange(N) / N)[:, ::-1]
    oracle = np.exp(-1j * om * t_end) * psi0_hat \
        - 1j * mk.gamma * phi @ (w * p0_free(psi0_hat, disp_unpinned, t))
    mild = psi_spectral_mild(psi0_hat, mk, t_end)
    assert np.linalg.norm(mild - oracle) / np.linalg.norm(oracle) <= 1e-5


def test_cross_solver_field_contracts(disp_unpinned):
    ker = nn_unpinned()
    N = 128
    t_end = 5.0
    psi0 = _packet_field(N, -0.05, 0.25, 0.12)
    rels = []
    for dt in (4e-3, 2e-3):
        mk = MemoryKernel(disp_unpinned, 1.0, dt=dt, horizon=t_end)
        p, q = state_from_wave_field(psi0, disp_unpinned)
        psi0_hat = wave_field_hat(p, q, disp_unpinned)
        run_direct(p, q, ker, disp_unpinned, ThermostatParams(1.0, 0.0), dt,
                   int(round(t_end / dt)))
        direct = wave_field_hat(p, q, disp_unpinned)
        mild = psi_spectral_mild(psi0_hat, mk, t_end)
        rels.append(np.linalg.norm(mild - direct) / np.linalg.norm(direct))
    assert rels[0] < 10 * 4e-3
    assert rels[0] / rels[1] >= 1.8


def test_chain_state_validation():
    with pytest.raises(ConfigError):
        ChainState(48, np.zeros(48), np.zeros(48))  # not a power of two
    with pytest.raises(ConfigError):
        ChainState(64, np.zeros(32), np.zeros(64))
