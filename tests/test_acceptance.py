"""Formal acceptance gate: ten quantitative criteria at pinned tolerances.

Each test prints exactly one PASS/FAIL line (visible regardless of capture)
and asserts both the numerical tolerance and the stated runtime budget.
Everything runs single-core at desk scale.
"""

import time

import numpy as np
import pytest
from scipy.special import j0

from phonon_scatter import (DispersionRelation, EnsembleNoise, MemoryKernel,
                            ThermostatParams, WavePacketSpec, build_table,
                            g_star_series_curve, init_rng, j_eval, j_laplace,
                            nn_pinned, nn_unpinned, nu_laplace_limit, p0_volterra,
                            psi_spectral_mild, run_direct, run_experiment,
                            sample_initial, state_from_wave_field, wave_field,
                            wave_field_hat)


def _report(capsys, idx, name, passed, detail):
    with capsys.disabled():
        print(f"\n[ACCEPTANCE {idx:02d}] {'PASS' if passed else 'FAIL'} "
              f"{name}: {detail}")
    assert passed, f"criterion {idx} ({name}): {detail}"


def test_criterion_01_coefficient_identities(capsys):
    t0 = time.perf_counter()
    worst_sum = 0.0
    worst_renu = 0.0
    for kernel in (nn_unpinned(), nn_pinned(1.0)):
        disp = DispersionRelation(kernel)
        for gamma in (0.5, 1.0, 2.0):
            table = build_table(disp, gamma, n_k=512, delta_excl=0.02)
            worst_sum = max(worst_sum, table.max_sum_residual)
            worst_renu = max(worst_renu, table.max_renu_residual)
    elapsed = time.perf_counter() - t0
    ok = worst_sum < 1e-8 and worst_renu < 1e-6 and elapsed < 10.0
    _report(capsys, 1, "coefficient identities",
            ok, f"max|p+ + p- + absorb - 1| = {worst_sum:.2e} (< 1e-8), "
                f"max Re-nu residual = {worst_renu:.2e} (< 1e-6), "
                f"{elapsed:.1f}s (< 10s)")


def test_criterion_02_nu_cross_oracle(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for kernel, stride in ((nn_unpinned(), 1), (nn_pinned(1.0), 4)):
        disp = DispersionRelation(kernel)
        table = build_table(disp, 1.0, n_k=512, delta_excl=0.02)
        sel = np.arange(table.k_grid.size)[::stride]
        diffs = [abs(nu_laplace_limit(disp, 1.0, float(table.k_grid[i])) - table.nu[i])
                 for i in sel]
        worst = max(worst, max(diffs))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 30.0
    _report(capsys, 2, "nu cross-oracle",
            ok, f"max |nu_pv - nu_laplace_limit| = {worst:.2e} (< 1e-3), "
                f"{elapsed:.1f}s (< 30s)")


def test_criterion_03_kernel_oracles(capsys, disp_unpinned, mk_unpinned_g1):
    t0 = time.perf_counter()
    t = np.linspace(0.0, 50.0, 2001)
    bessel_err = float(np.max(np.abs(j_eval(disp_unpinned, t) - j0(2 * t))))
    laplace_err = abs(j_laplace(disp_unpinned, 1.0) - 1.0 / np.sqrt(5.0))
    _, series, _ = g_star_series_curve(disp_unpinned, 1.0, 5.0, 1e-3, 30)
    series_err = float(np.max(np.abs(series - mk_unpinned_g1.gstar_samples)))
    elapsed = time.perf_counter() - t0
    ok = bessel_err < 1e-8 and laplace_err < 1e-10 and series_err < 1e-6 \
        and elapsed < 10.0
    _report(capsys, 3, "memory-kernel oracles",
            ok, f"|J - J0(2t)| = {bessel_err:.2e} (< 1e-8), "
                f"|Jt(1) - 5^-1/2| = {laplace_err:.2e} (< 1e-10), "
                f"series-vs-march = {series_err:.2e} (< 1e-6), "
                f"{elapsed:.1f}s (< 10s)")


def test_criterion_04_cross_solver_dynamics(capsys, disp_unpinned):
    t0 = time.perf_counter()
    ker = nn_unpinned()
    N, t_end = 256, 25.0
    spec = WavePacketSpec(x_center=-0.05, k_center=0.25, width=0.12)
    base = sample_initial(spec, N, disp_unpinned, rng=init_rng(4))
    rels = {}
    for dt in (2e-3, 1e-3):
        mk = MemoryKernel(disp_unpinned, 1.0, dt=dt, horizon=t_end)
        p, q = base.p.copy(), base.q.copy()
        psi0_hat = wave_field_hat(p, q, disp_unpinned)
        run_direct(p, q, ker, disp_unpinned, ThermostatParams(1.0, 0.0), dt,
                   int(round(t_end / dt)))
        direct = wave_field_hat(p, q, disp_unpinned)
        mild = psi_spectral_mild(psi0_hat, mk, t_end)
        rels[dt] = float(np.linalg.norm(mild - direct) / np.linalg.norm(direct))
    contraction = rels[2e-3] / rels[1e-3]
    elapsed = time.perf_counter() - t0
    ok = rels[2e-3] < 10 * 2e-3 and contraction >= 1.8 and elapsed < 60.0
    _report(capsys, 4, "cross-solver dynamics",
            ok, f"rel L2 at dt=2e-3: {rels[2e-3]:.2e} (< {10*2e-3:.0e}), "
                f"contraction under dt halving: {contraction:.2f} (>= 1.8), "
                f"{elapsed:.1f}s (< 60s)")


def test_criterion_05_energy_balance(capsys, disp_unpinned):
    t0 = time.perf_counter()
    ker = nn_unpinned()
    N, M, dt = 512, 200, 0.02
    gamma, T = 1.0, 1.0
    n_steps = 4000
    spec = WavePacketSpec(x_center=-0.2, k_center=0.25, width=0.1)
    st = sample_initial(spec, N, disp_unpinned, rng=init_rng(6))
    p = np.tile(st.p, (M, 1))
    q = np.tile(st.q, (M, 1))
    traj = run_direct(p, q, ker, disp_unpinned, ThermostatParams(gamma, T), dt,
                      n_steps, noise=EnsembleNoise(31, M, dt), record=True)
    e0 = float(traj.energies[0].mean())
    margin = np.inf
    ok_bound = True
    for j in range(0, n_steps + 1, 100):
        ens = traj.energies[j]
        bound = e0 + 2 * gamma * T * (j * dt) \
            + 3 * float(ens.std(ddof=1)) / np.sqrt(M)
        ok_bound &= float(ens.mean()) <= bound
        if j > 0:  # at t=0 all paths share the initial state, bound is tight
            margin = min(margin, bound - float(ens.mean()))
    # zero-temperature branch: single path monotone non-increasing per step
    p1, q1 = st.p.copy(), st.q.copy()
    traj0 = run_direct(p1, q1, ker, disp_unpinned, ThermostatParams(gamma, 0.0),
                       dt, n_steps, record=True)
    max_rise = float(np.max(np.diff(traj0.energies)))
    elapsed = time.perf_counter() - t0
    ok = ok_bound and max_rise <= dt**3 * e0 and elapsed < 300.0
    _report(capsys, 5, "energy balance",
            ok, f"min (bound - mean energy) = {margin:.3e} (>= 0), "
                f"max per-step rise at T=0 = {max_rise:.2e} "
                f"(<= dt^3 E0 = {dt**3*e0:.1e}), {elapsed:.1f}s (< 300s)")


def test_criterion_06_scattering_fractions(capsys, tmp_path):
    t0 = time.perf_counter()
    cfg = {"experiment": "convergence", "kernel": "nn_unpinned", "gamma": 1.0,
           "temperature": 0.0, "dt": 0.01, "t_macro": 0.6, "seed": 5,
           "sweep_N": [1024, 2048, 4096],
           "packet": {"x_center": -0.2, "k_center": 0.25, "width": 0.1},
           "table": {"n_k": 512, "delta_excl": 0.02},
           "fraction_tolerance": 0.05, "sweep_slack": 0.2}
    report = run_experiment(cfg, tmp_path)
    elapsed = time.perf_counter() - t0
    worst = max(abs(c.measured - c.target) for c in report.checks
                if c.name.endswith(("_fraction_N1024", "_fraction_N2048",
                                    "_fraction_N4096")))
    growth = [c.measured for c in report.checks if c.name == "sweep_error_growth"]
    ok = report.passed and elapsed < 600.0
    _report(capsys, 6, "scattering fractions vs table",
            ok, f"max fraction error = {worst:.4f} (< 0.05 absolute), "
                f"sweep growth factor = {growth[0]:.2f} (<= 1.2), "
                f"{elapsed:.1f}s (< 600s, single core)")


def test_criterion_07_phonon_production(capsys, tmp_path):
    t0 = time.perf_counter()
    cfg = {"experiment": "production", "kernel": "nn_unpinned", "gamma": 1.0,
           "temperature": 1.0, "N": 512, "dt": 0.02, "t_macro": 0.3, "seed": 9,
           "ensemble": {"paths": 1000}, "n_bins": 8, "k_band": [0.15, 0.35],
           "plateau_ratio_tolerance": 0.1,
           "table": {"n_k": 512, "delta_excl": 0.02}}
    report = run_experiment(cfg, tmp_path)
    elapsed = time.perf_counter() - t0
    ratios = [c.measured for c in report.checks if c.name.startswith("plateau")]
    worst = max(abs(r - 1.0) for r in ratios)
    ok = report.passed and elapsed < 1200.0
    _report(capsys, 7, "phonon production plateaus",
            ok, f"plateau/(absorb*T) in [{min(ratios):.3f}, {max(ratios):.3f}] "
                f"across 8 bins (within +-10%), worst dev {worst:.3f}, "
                f"{elapsed:.1f}s (< 1200s)")


def test_criterion_08_thermal_laplace_formula(capsys, disp_unpinned,
                                              table_unpinned_g1):
    t0 = time.perf_counter()
    ker = nn_unpinned()
    disp = disp_unpinned
    table = table_unpinned_g1
    N, M = 512, 600
    ring = 8.0                     # macro circumference; eps decoupled from N
    eps = ring / N
    T = gamma = lam = 1.0
    dt, t_max = 0.02, 8.0
    n_steps = int(round(t_max / eps / dt))
    j0_idx = N // 4
    koff = np.arange(-4, 5)
    m_unit = int(round(N * eps))   # eta = 2 corresponds to a shift of m_unit
    ms = np.array([0, m_unit, 2 * m_unit])
    etas = 2 * ms / (N * eps)
    ks = (j0_idx + koff) / N
    omp = np.array([disp.omega_prime(float(k)) for k in ks])
    preds = np.array([
        np.mean([T * abs(omp[b]) / (2 * np.pi) * table.absorb_at(float(ks[b]))
                 / (lam * (lam + 1j * omp[b] * eta)) for b in range(ks.size)])
        for eta in etas])

    def snap(p, q):
        ph = wave_field_hat(p, q, disp)
        out = np.empty((ms.size, koff.size), dtype=complex)
        js = j0_idx + koff
        for a, m in enumerate(ms):
            out[a] = (np.conj(ph[:, js - m]) * ph[:, js + m]).mean(axis=0)
        return out * (0.5 * eps)

    p = np.zeros((M, N))
    q = np.zeros((M, N))
    traj = run_direct(p, q, ker, disp, ThermostatParams(gamma, T), dt, n_steps,
                      noise=EnsembleNoise(123, M, dt), snapshot_every=16,
                      snapshot_fn=snap)
    snaps = np.array(traj.snapshots)
    tg = np.concatenate([[0.0], np.array(traj.snapshot_times) * eps])
    vals = np.concatenate([np.zeros((1,) + snaps.shape[1:], dtype=complex), snaps])
    w = np.gradient(tg)
    sims = np.einsum("t,tmk->mk", w * np.exp(-lam * tg), vals).mean(axis=1)
    rels = np.abs(sims - preds) / np.abs(preds)
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(rels < 0.10)) and elapsed < 600.0
    _report(capsys, 8, "thermal Laplace formula",
            ok, "rel errors at eta=(0,2,4): "
                f"({rels[0]:.3f}, {rels[1]:.3f}, {rels[2]:.3f}) (< 0.10), "
                f"{elapsed:.1f}s (< 600s)")


def test_criterion_09_transport_closed_form(capsys, tmp_path):
    t0 = time.perf_counter()
    cfg = {"experiment": "transport_check", "kernel": "nn_unpinned",
           "gamma": 1.0, "temperature": 0.7,
           "table": {"n_k": 512, "delta_excl": 0.02},
           "check_wavenumbers": [0.25, 0.1, 0.4],
           "transform_spots": [[1.0, 2.0, 0.25]]}
    report = run_experiment(cfg, tmp_path)
    elapsed = time.perf_counter() - t0
    by_name = {c.name: c.measured for c in report.checks}
    ok = report.passed and elapsed < 10.0
    _report(capsys, 9, "transport closed form",
            ok, f"boundary residual = {by_name['boundary_residual_max']:.1e} "
                f"(< 1e-12), equilibrium dev = "
                f"{by_name['equilibrium_invariance_max']:.1e} (< 1e-12), "
                f"transform pair = {by_name['transform_pair_max_diff']:.1e} "
                f"(< 1e-3), {elapsed:.1f}s (< 10s)")


def test_criterion_10_equilibrium_stationarity(capsys, tmp_path):
    t0 = time.perf_counter()
    cfg = {"experiment": "equilibrium", "kernel": "nn_unpinned", "gamma": 1.0,
           "temperature": 1.0, "N": 256, "dt": 0.02,
           "t_macro": 1000.0 / 256.0,     # micro horizon 1e3
           "seed": 5, "ensemble": {"paths": 200}, "n_bins": 12, "records": 4,
           "table": {"n_k": 512, "delta_excl": 0.02}}
    report = run_experiment(cfg, tmp_path)
    elapsed = time.perf_counter() - t0
    worst = [c.measured for c in report.checks
             if c.name == "stationarity_worst_sigma"][0]
    ok = report.passed and elapsed < 600.0
    _report(capsys, 10, "equilibrium stationarity",
            ok, f"worst per-bin deviation = {worst:.2f} sigma (< 3), "
                f"{elapsed:.1f}s (< 600s)")
