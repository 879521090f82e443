import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phonon_scatter
from phonon_scatter import ConfigError, harness, run_experiment
from phonon_scatter.cli import main as cli_main
from phonon_scatter.harness import resolve_config


BASE_TABLE = {"n_k": 128, "delta_excl": 0.02}


def _write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_resolved_config_holds_every_key_with_its_default(tmp_path):
    run_experiment({"experiment": "transport_check", "gamma": 1,
                    "check_wavenumbers": [0.25]}, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"] == {
        "experiment": "transport_check", "kernel": "nn_unpinned", "gamma": 1.0,
        "temperature": 0.0, "seed": 0, "threads": 1,
        "table": {"n_k": 512, "delta_excl": 0.02},
        "profile_center": -0.3, "profile_width": 0.25, "check_wavenumbers": [0.25],
        "transform_spots": [[1.0, 2.0, 0.25]]}
    assert isinstance(manifest["config"]["gamma"], float)  # JSON 1 widened
    # the common defaults alone, for a config that names no experiment
    cfg = resolve_config({"kernel": "nn_pinned(1.0)", "table": {"n_k": 128}})
    assert cfg == {"kernel": "nn_pinned(1.0)", "gamma": 1.0, "temperature": 0.0,
                   "seed": 0, "threads": 1, "table": {"n_k": 128}}


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(ConfigError):
        run_experiment({"experiment": "quantum_leap"}, tmp_path)


def test_coefficients_runs_and_is_reproducible(tmp_path):
    cfg = {"experiment": "coefficients", "kernel": "nn_unpinned", "gamma": 1.0,
           "table": BASE_TABLE, "cross_oracle_stride": 16}
    rep1 = run_experiment(cfg, tmp_path / "a")
    rep2 = run_experiment(cfg, tmp_path / "b")
    assert rep1.passed and rep2.passed
    assert (tmp_path / "a/coefficients.csv").read_bytes() == \
        (tmp_path / "b/coefficients.csv").read_bytes()
    manifest = json.loads((tmp_path / "a/manifest.json").read_text())
    assert manifest["passed"] is True
    assert {c["name"] for c in manifest["checks"]} >= {
        "sum_identity_max_residual", "re_nu_identity_max_residual",
        "nu_cross_oracle_max_diff"}


def test_scattering_runs_and_validates(tmp_path):
    # small-N geometry: narrower packet, earlier stop, so the dispersive
    # leading tail stays clear of the seam guard band
    cfg = {"experiment": "scattering", "kernel": "nn_unpinned", "gamma": 1.0,
           "temperature": 0.0, "N": 512, "dt": 0.02, "t_macro": 0.52, "seed": 5,
           "packet": {"x_center": -0.18, "k_center": 0.25, "width": 0.08},
           "table": BASE_TABLE}
    rep = run_experiment(cfg, tmp_path)
    assert rep.passed
    rows = (tmp_path / "scattering.csv").read_text().splitlines()
    assert len(rows) == 2
    # nonzero temperature is a precondition violation
    with pytest.raises(ConfigError):
        run_experiment({**cfg, "temperature": 1.0}, tmp_path)
    with pytest.raises(ConfigError):
        run_experiment({**cfg, "N": 500}, tmp_path)
    with pytest.raises(ConfigError):
        run_experiment({**cfg, "dt": 0.5}, tmp_path)


def test_wraparound_guard_flags_run(tmp_path):
    cfg = {"experiment": "scattering", "kernel": "nn_unpinned", "gamma": 1.0,
           "temperature": 0.0, "N": 256, "dt": 0.02, "t_macro": 1.4, "seed": 5,
           "packet": {"x_center": -0.2, "k_center": 0.25, "width": 0.1},
           "table": BASE_TABLE}
    rep = run_experiment(cfg, tmp_path)
    assert rep.invalid and not rep.passed


def test_production_notes_bins_below_the_sample_target(tmp_path):
    cfg = {"experiment": "production", "kernel": "nn_unpinned", "gamma": 1.0,
           "temperature": 1.0, "N": 128, "dt": 0.05, "t_macro": 0.25, "seed": 7,
           "ensemble": {"paths": 60}, "min_samples": 100, "n_bins": 3,
           "k_band": [0.18, 0.33], "plateau_ratio_tolerance": 0.5,
           "table": BASE_TABLE}
    rep = run_experiment(cfg, tmp_path)
    assert rep.notes and "below the target" in rep.notes[0]


EQUILIBRIUM_SMALL = {"experiment": "equilibrium", "kernel": "nn_unpinned", "gamma": 1.0,
                     "temperature": 1.0, "N": 128, "dt": 0.05, "t_macro": 0.5, "seed": 3,
                     "ensemble": {"paths": 64}, "n_bins": 12, "records": 2,
                     "table": BASE_TABLE}


def test_equilibrium_threads_invariance(tmp_path):
    # equilibrium is the experiment whose ensemble runs on the worker pool
    for threads in (1, 3):
        run_experiment({**EQUILIBRIUM_SMALL, "threads": threads}, tmp_path / f"t{threads}")
    for name in ("equilibrium.csv", "wigner_eta0.csv"):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t3" / name).read_bytes()


def test_equilibrium_small(tmp_path):
    rep = run_experiment(EQUILIBRIUM_SMALL, tmp_path)
    assert any(c.name == "stationarity_worst_sigma" for c in rep.checks)
    assert rep.passed


def test_snapshot_dump_roundtrip(tmp_path):
    from phonon_scatter import dump_snapshots, load_snapshots
    rng = np.random.default_rng(0)
    snaps = [(rng.standard_normal(32), rng.standard_normal(32)) for _ in range(3)]
    path = tmp_path / "traj.bin"
    dump_snapshots(path, snaps, dt=0.01, times=[1.0, 2.0, 3.0], seed=42,
                   kernel_name="nn_unpinned")
    back, meta = load_snapshots(path)
    assert meta["N"] == 32 and meta["seed"] == 42 and meta["kernel"] == "nn_unpinned"
    for (p0, q0), (p1, q1) in zip(snaps, back):
        assert np.array_equal(p0, p1) and np.array_equal(q0, q1)
    # little-endian float64 on disk, N*2 per snapshot
    assert path.stat().st_size == 3 * 32 * 2 * 8


def test_snapshot_load_refuses_a_file_its_sidecar_does_not_describe(tmp_path):
    from phonon_scatter import dump_snapshots, load_snapshots
    rng = np.random.default_rng(0)
    path = tmp_path / "traj.bin"
    dump_snapshots(path, [(rng.standard_normal(32), rng.standard_normal(32))] * 2,
                   dt=0.01, times=[1.0, 2.0], seed=42, kernel_name="nn_unpinned")
    blob = path.read_bytes()
    for damaged in (blob[:-8], blob + bytes(4)):
        path.write_bytes(damaged)
        with pytest.raises(ConfigError, match="2 snapshots of N=32"):
            load_snapshots(path)


def test_snapshot_dump_refuses_an_empty_list(tmp_path):
    from phonon_scatter import dump_snapshots
    with pytest.raises(ConfigError, match="at least one snapshot"):
        dump_snapshots(tmp_path / "none.bin", [], dt=0.01, times=[], seed=0,
                       kernel_name="nn_unpinned")
    assert not (tmp_path / "none.bin").exists()


@pytest.mark.parametrize("gibbs", [None, 0.7])
def test_thermal_ensemble_in_place_matches_per_chunk_runs(gibbs):
    # 7 paths over 3 threads make chunks of 2, 2 and 3 rows; 300 steps
    # cross a noise block.  The rows integrated in place must carry the
    # bits of one run_direct call per chunk, at any thread count, and each
    # snapshot is one array with the chunks in path order.
    from phonon_scatter import (DispersionRelation, EnsembleNoise, ThermostatParams,
                                gibbs_ensemble, nn_unpinned, run_direct, wave_field)
    from phonon_scatter.harness import run_thermal_ensemble

    ker = nn_unpinned()
    disp = DispersionRelation(ker)
    params = ThermostatParams(1.0, 0.5)
    N, dt, n, M, seed = 32, 0.05, 300, 7, 11

    def ensemble(threads):
        return run_thermal_ensemble(ker, disp, params, N, dt, n, M, seed, threads=threads,
                                    gibbs_temperature=gibbs, snapshot_every=100,
                                    snapshot_fn=lambda p, q: p.copy())

    psi1, s1 = ensemble(1)
    psi3, s3 = ensemble(3)
    assert np.array_equal(psi1, psi3)
    assert len(s1) == len(s3) == 3
    assert all(x.shape == (M, N) and np.array_equal(x, y) for x, y in zip(s1, s3))
    p_all, q_all = np.empty((M, N)), np.empty((M, N))
    for a, b in [(0, 2), (2, 4), (4, 7)]:
        if gibbs is None:
            p, q = np.zeros((b - a, N)), np.zeros((b - a, N))
        else:
            p, q = gibbs_ensemble(N, disp, gibbs, seed, range(a, b))
        traj = run_direct(p, q, ker, disp, params, dt, n,
                          noise=EnsembleNoise(seed + a, b - a, dt), snapshot_every=100,
                          snapshot_fn=lambda p, q: p.copy())
        p_all[a:b], q_all[a:b] = p, q
        assert len(traj.snapshots) == 3
        assert all(np.array_equal(x, y[a:b]) for x, y in zip(traj.snapshots, s3))
    assert np.array_equal(psi3, wave_field(p_all, q_all, disp))


def test_vacuum_ensemble_takes_the_impulse_response_at_any_thread_count():
    # from vacuum with no snapshots the ensemble is one run_vacuum_ensemble,
    # bit for bit, whatever the thread count
    from phonon_scatter import (DispersionRelation, EnsembleNoise, ThermostatParams,
                                nn_unpinned, run_vacuum_ensemble)
    from phonon_scatter.harness import run_thermal_ensemble

    ker = nn_unpinned()
    disp = DispersionRelation(ker)
    params = ThermostatParams(1.0, 0.5)
    N, dt, n, M, seed = 32, 0.05, 300, 70, 11
    psi1, s1 = run_thermal_ensemble(ker, disp, params, N, dt, n, M, seed, threads=1)
    psi3, s3 = run_thermal_ensemble(ker, disp, params, N, dt, n, M, seed, threads=3)
    psiv = run_vacuum_ensemble(ker, disp, params, N, dt, n, M, EnsembleNoise(seed, M, dt))
    assert s1 == s3 == []
    assert np.array_equal(psi1, psi3) and np.array_equal(psi1, psiv)


def test_production_ensemble_and_wave_field_share_one_array(traced_peak_mb):
    # the benchmark's production route: 800 paths on 256 sites accumulate
    # their mode spectra in psi's storage (3.3 MB), which the last block's
    # irfft pairs turn into psi = Omega q + ip.  It measures 5.0 MB: psi,
    # one block of response rows as real mode spectra (0.53 MB), one tile
    # product (0.13 MB), one tile of noise (0.13 MB), the rows' 16-mode
    # cos/sin tables and the paths' generators.  Site-space rows would
    # measure 5.4 MB, separate (p, q) with a new psi 6.8 MB, and a whole
    # 800-path noise block would add 1.5 MB.
    from phonon_scatter import (DispersionRelation, EnsembleNoise, ThermostatParams,
                                nn_unpinned, run_vacuum_ensemble)
    from phonon_scatter.harness import run_thermal_ensemble

    ker = nn_unpinned()
    disp = DispersionRelation(ker)
    params = ThermostatParams(1.0, 1.0)
    N, M, dt, n = 256, 800, 0.04, 1920
    # a first transform of length N sets up numpy's FFT plan: not counted
    run_vacuum_ensemble(ker, disp, params, N, dt, 2, 1, EnsembleNoise(0, 1, dt))
    assert traced_peak_mb(lambda: run_thermal_ensemble(ker, disp, params, N, dt, n, M, 1,
                                                       threads=2)) < 5.6


def test_scattering_state_dump(tmp_path):
    from phonon_scatter import load_snapshots
    cfg = {"experiment": "scattering", "kernel": "nn_unpinned", "gamma": 1.0,
           "temperature": 0.0, "N": 512, "dt": 0.02, "t_macro": 0.52, "seed": 5,
           "packet": {"x_center": -0.18, "k_center": 0.25, "width": 0.08},
           "table": BASE_TABLE, "dump_state": True}
    rep = run_experiment(cfg, tmp_path)
    assert rep.passed
    snaps, meta = load_snapshots(tmp_path / "state_N512.bin")
    assert meta["N"] == 512 and len(snaps) == 1


def test_equilibrium_wigner_export(tmp_path):
    run_experiment(EQUILIBRIUM_SMALL, tmp_path)
    lines = (tmp_path / "wigner_eta0.csv").read_text().splitlines()
    assert lines[0] == "eta,k,re,im,stderr,limit"
    assert len(lines) == 128 + 1


def test_transport_check_passes(tmp_path):
    cfg = {"experiment": "transport_check", "kernel": "nn_unpinned", "gamma": 1.0,
           "temperature": 0.7, "table": {"n_k": 256, "delta_excl": 0.02},
           "transform_spots": [[1.0, 2.0, 0.25]]}
    rep = run_experiment(cfg, tmp_path)
    assert rep.passed


def test_cli_exit_codes(tmp_path):
    good = _write_cfg(tmp_path, "good.json",
                      {"kernel": "nn_unpinned", "gamma": 1.0,
                       "table": BASE_TABLE, "cross_oracle_stride": 16})
    assert cli_main(["coefficients", "--config", str(good),
                     "--out", str(tmp_path / "o1")]) == 0
    bad = _write_cfg(tmp_path, "bad.json",
                     {"kernel": "nn_unpinned", "gamma": 1.0,
                      "table": {"n_k": 128, "delta_excl": 0.4}})
    assert cli_main(["coefficients", "--config", str(bad),
                     "--out", str(tmp_path / "o2")]) == 2
    wrap = _write_cfg(tmp_path, "wrap.json",
                      {"kernel": "nn_unpinned", "gamma": 1.0, "temperature": 0.0,
                       "N": 256, "dt": 0.02, "t_macro": 1.4, "seed": 5,
                       "packet": {"x_center": -0.2, "k_center": 0.25, "width": 0.1},
                       "table": BASE_TABLE})
    assert cli_main(["scattering", "--config", str(wrap),
                     "--out", str(tmp_path / "o3")]) == 3
    assert cli_main(["scattering", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "o4")]) == 2


SCATTER_NO_PACKET = {"kernel": "nn_unpinned", "gamma": 1.0, "temperature": 0.0,
                     "N": 512, "dt": 0.02, "t_macro": 0.52, "table": BASE_TABLE}
PACKET = {"x_center": -0.18, "k_center": 0.25, "width": 0.08}
PRODUCTION = {"temperature": 1.0, "N": 128, "dt": 0.05, "t_macro": 0.25,
              "table": BASE_TABLE}


@pytest.mark.parametrize("command, cfg, named", [
    ("coefficients", {"kernel": "nn_unpinned", "gamme": 5.0, "table": BASE_TABLE},
     ["coefficients", "'gamme'"]),
    ("scattering", SCATTER_NO_PACKET, ["scattering", "'packet'"]),
    ("convergence", {**SCATTER_NO_PACKET, "packet": {"x_center": -0.18,
                                                     "k_center": 0.25}},
     ["convergence", "'packet.width'"]),
    ("coefficients", {"kernel": "nn_unpinned", "table": {"n_k": 128}},
     ["coefficients", "'table.delta_excl'"]),
    ("production", {"kernel": "nn_unpinned", "table": {**BASE_TABLE, "nk": 64}},
     ["production", "'table.nk'"]),
    ("equilibrium", {"kernel": "nn_unpinned", "cross_oracle_stride": 4},
     ["equilibrium", "'cross_oracle_stride'"]),
    # a wavenumber inside the exclusion zone: SingularZoneError, not a failed check
    ("transport_check", {"kernel": "nn_unpinned", "table": BASE_TABLE,
                         "check_wavenumbers": [0.49]}, ["k=0.49"]),
    # values of the wrong type
    ("coefficients", {"gamma": "abc", "table": BASE_TABLE}, ["coefficients", "'gamma'"]),
    ("convergence", {**SCATTER_NO_PACKET, "packet": PACKET, "sweep_N": 512},
     ["convergence", "'sweep_N'"]),
    ("scattering", {**SCATTER_NO_PACKET, "packet": {**PACKET, "phase_random": "yes"}},
     ["scattering", "'packet.phase_random'"]),
    ("transport_check", {"table": BASE_TABLE, "check_wavenumbers": ["a"]},
     ["transport_check", "'check_wavenumbers'"]),
    ("coefficients", {"table": {"n_k": 12.5, "delta_excl": 0.02}},
     ["coefficients", "'table.n_k'"]),
    ("production", {**PRODUCTION, "ensemble": 5}, ["production", "'ensemble'"]),
    ("production", {**PRODUCTION, "k_band": [0.2]}, ["production", "'k_band'"]),
    # the production front would reach the seam band
    ("production", {**PRODUCTION, "t_macro": 0.4}, ["t_macro"]),
    # values that leave the experiment measuring nothing
    ("production", {**PRODUCTION, "n_bins": 0}, ["production", "'n_bins'"]),
    ("equilibrium", {**PRODUCTION, "n_bins": 0}, ["equilibrium", "'n_bins'"]),
    ("coefficients", {"table": BASE_TABLE, "cross_oracle_stride": 0},
     ["coefficients", "'cross_oracle_stride'"]),
    ("equilibrium", {**PRODUCTION, "records": 0}, ["equilibrium", "'records'"]),
    ("equilibrium", {**PRODUCTION, "ensemble": {"paths": 0}},
     ["equilibrium", "'ensemble.paths'"]),
    ("equilibrium", {**PRODUCTION, "ensemble": {"paths": 1}},
     ["equilibrium", "'ensemble.paths'"]),
    ("convergence", {**SCATTER_NO_PACKET, "packet": PACKET, "sweep_N": []},
     ["convergence", "'sweep_N'"]),
    ("transport_check", {"table": BASE_TABLE, "check_wavenumbers": []},
     ["transport_check", "'check_wavenumbers'"]),
    ("transport_check", {"table": BASE_TABLE, "transform_spots": []},
     ["transport_check", "'transform_spots'"]),
    # an explicit kernel whose coefficients are not numbers
    ("coefficients", {"kernel": {"coefficients": [["a", 1]], "decay_constant": 3},
                      "table": BASE_TABLE}, ["kernel spec", "'coefficients'"]),
    # an explicit kernel carries exactly its two keys
    ("coefficients", {"kernel": {"coefficients": [[0, 2], [1, -1]], "decay_constant": 3,
                                 "typo": 1}, "table": BASE_TABLE},
     ["kernel spec", "'typo'"]),
    ("coefficients", {"kernel": {"preset": "nn_unpinned"}, "table": BASE_TABLE},
     ["kernel spec", "'preset'"]),
    ("production", {**PRODUCTION, "threads": 0}, ["production", "'threads'"]),
    # t_macro*N/dt rounds to zero steps, so the run would integrate nothing
    ("scattering", {**SCATTER_NO_PACKET, "packet": PACKET, "t_macro": 1e-5},
     ["zero steps"]),
    ("convergence", {**SCATTER_NO_PACKET, "packet": PACKET, "t_macro": 1e-5},
     ["zero steps"]),
    ("equilibrium", {**PRODUCTION, "t_macro": 1e-5}, ["zero steps"]),
    ("production", {**PRODUCTION, "t_macro": 1e-5}, ["zero steps"]),
    # a negative friction: rejected before any table or dynamics is built
    ("coefficients", {"gamma": -1.0, "table": BASE_TABLE}, ["gamma"]),
    ("scattering", {**SCATTER_NO_PACKET, "packet": PACKET, "gamma": -1.0}, ["gamma"]),
    ("production", {**PRODUCTION, "gamma": -1.0}, ["gamma"]),
    ("transport_check", {"gamma": -1.0, "table": BASE_TABLE}, ["gamma"]),
    # a seed keys the Philox streams, so it is a u64
    ("production", {**PRODUCTION, "seed": -1}, ["production", "'seed'"]),
    ("scattering", {**SCATTER_NO_PACKET, "packet": PACKET, "seed": 2**64},
     ["scattering", "'seed'"]),
])
def test_cli_rejects_config_with_exit_2(tmp_path, capsys, command, cfg, named):
    path = _write_cfg(tmp_path, "cfg.json", cfg)
    assert cli_main([command.replace("_", "-"), "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config rejected: ") and "Traceback" not in err
    for word in named:
        assert word in err


@pytest.mark.parametrize("cfg, named", [
    # bins narrower than the k spacing: 22 of 40 hold no k node
    ({"k_band": [0.18, 0.33], "n_bins": 40}, ["n_bins"]),
    # near the band top the wedge is narrower than one site
    ({"N": 64, "t_macro": 0.1, "k_band": [0.45, 0.48], "n_bins": 1},
     ["t_macro", "k_band"]),
])
def test_cli_rejects_production_bins_that_see_nothing(tmp_path, capsys, monkeypatch,
                                                      cfg, named):
    def never(*args, **kwargs):
        raise AssertionError("the ensemble ran before the bins were checked")

    monkeypatch.setattr(harness, "run_thermal_ensemble", never)
    path = _write_cfg(tmp_path, "cfg.json", {**PRODUCTION, **cfg})
    assert cli_main(["production", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config rejected: ") and "Traceback" not in err
    for word in named:
        assert word in err


def test_cli_rejects_zero_threads_flag(tmp_path, capsys):
    path = _write_cfg(tmp_path, "cfg.json", PRODUCTION)
    assert cli_main(["production", "--config", str(path), "--threads", "0",
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config rejected: ") and "'threads'" in err


def test_cli_rejects_negative_seed_flag(tmp_path, capsys):
    path = _write_cfg(tmp_path, "cfg.json", PRODUCTION)
    assert cli_main(["production", "--config", str(path), "--seed=-3",
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config rejected: ") and "'seed'" in err


def test_cli_import_leaves_scipy_unloaded():
    # the child imports the same package the suite is testing
    src = str(Path(phonon_scatter.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, phonon_scatter.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120, env=env)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_the_worker_pool_unloaded():
    # only Gibbs-start and snapshotted ensembles use a pool, so the CLI does
    # not load concurrent.futures, and the logging it imports, up front; the
    # Gauss-Legendre rule is a literal table, so numpy.polynomial stays out
    src = str(Path(phonon_scatter.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, phonon_scatter.cli; "
            "print(*(m in sys.modules for m in "
            "('concurrent.futures', 'logging', 'numpy.polynomial', 'numpy.random')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120, env=env)
    assert out.stdout.strip() == "False False False False"


def test_scattering_run_leaves_masked_arrays_and_the_pool_unloaded(tmp_path):
    # numpy.ma costs 0.75 MB of RSS, numpy.random about 5 MB and
    # concurrent.futures the pool's imports; a whole scattering run (table,
    # packet, route, fractions) needs none of them
    src = str(Path(phonon_scatter.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    cfg = _write_cfg(tmp_path, "scatter.json", {
        "kernel": "nn_unpinned", "gamma": 1.0, "temperature": 0.0, "N": 512,
        "dt": 0.02, "t_macro": 0.52, "table": BASE_TABLE,
        "packet": {"x_center": -0.18, "k_center": 0.25, "width": 0.08}})
    code = ("import sys; from phonon_scatter.cli import main; "
            f"code = main(['scattering', '--config', {str(cfg)!r}, '--out', "
            f"{str(tmp_path / 'out')!r}, '--seed', '5']); "
            "print(code, *(m in sys.modules for m in "
            "('numpy.ma', 'concurrent.futures', 'numpy.random')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120, env=env)
    assert out.stdout.splitlines()[-1] == "0 False False False"


def test_packet_draw_leaves_numpy_random_unloaded():
    # the library's packet path, as a spectral run takes it: one phase draw
    src = str(Path(phonon_scatter.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys; from phonon_scatter import *; "
            "disp = DispersionRelation(nn_unpinned()); "
            "spec = WavePacketSpec(x_center=-0.05, k_center=0.25, width=0.12); "
            "st = sample_initial(spec, 256, disp, rng=init_rng(1)); "
            "print(st.p.shape, 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120, env=env)
    assert out.stdout.strip() == "(256,) False"


def _package_nodes():
    package = Path(phonon_scatter.__file__).parent
    return [(path.name, node) for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))]


def test_package_has_no_bare_assert():
    # python -O strips asserts, so every guard in the package is a typed error
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_convolves_only_through_the_fft_primitive():
    # np.convolve / np.correlate are O(n^2); memory._fft_convolve is the one
    # convolution in the package
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("convolve", "correlate")]
    assert found == []


def test_seed_override_changes_manifest(tmp_path):
    cfg = _write_cfg(tmp_path, "seed.json",
                     {"kernel": "nn_unpinned", "gamma": 1.0, "temperature": 0.0,
                      "N": 512, "dt": 0.02, "t_macro": 0.52, "seed": 5,
                      "packet": {"x_center": -0.18, "k_center": 0.25, "width": 0.08},
                      "table": BASE_TABLE})
    assert cli_main(["scattering", "--config", str(cfg), "--seed", "99",
                     "--out", str(tmp_path / "s")]) == 0
    manifest = json.loads((tmp_path / "s/manifest.json").read_text())
    assert manifest["config"]["seed"] == 99
