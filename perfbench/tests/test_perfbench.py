"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run as bench
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _layer_namespaces():
    """Every namespace a tracer may patch: package modules, classes, np.fft."""
    import phonon_scatter.cli  # noqa: F401  (loads every layer)
    from phonon_scatter import dynamics, lattice, memory

    mods = [m for name, m in sys.modules.items()
            if name == "phonon_scatter" or name.startswith("phonon_scatter.")]
    return mods + [lattice.DispersionRelation, memory.MemoryKernel,
                   dynamics.EnsembleNoise, np.fft]


def test_wrappers_restore_originals():
    from phonon_scatter import dynamics, harness, lattice

    before = [dict(vars(ns)) for ns in _layer_namespaces()]
    original_run_direct = dynamics.run_direct
    with tracing.Tracer("t") as tracer:
        assert harness.run_direct is not original_run_direct
        assert harness.run_direct is dynamics.run_direct
        assert "omega" in vars(lattice.DispersionRelation)
        assert tracer._patches
    after = [dict(vars(ns)) for ns in _layer_namespaces()]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(old[k] is new[k] for k in old)


def test_counts_repeat_exactly():
    from phonon_scatter import dynamics, lattice

    kernel = lattice.nn_unpinned()
    disp = lattice.DispersionRelation(kernel)

    def traced_run():
        p = np.zeros((3, 64))
        q = np.zeros((3, 64))
        q[:, 5] = 1.0
        with tracing.Tracer("t") as tracer:
            dynamics.run_direct(p, q, kernel, disp, dynamics.ThermostatParams(1.0, 0.0),
                                0.05, 40, snapshot_every=10,
                                snapshot_fn=lambda p, q: dynamics.wave_field(p, q, disp))
        return tracing.layer_metrics(tracer.spans, tracer.counters())

    first, second = traced_run(), traced_run()
    # one rfft/irfft pair before the loop and per step; the snapshot's FFTs
    # run inside wave_field spans and are not the integrator's
    assert first["dynamics.fft_calls"] == 2 * (40 + 1)
    assert first["dynamics.site_steps"] == 3 * 64 * 40
    assert first["dynamics.wave_field.calls"] == 4
    for name in ("dynamics.fft_calls", "dynamics.site_steps", "lattice.omega.calls",
                 "lattice.omega.points", "dynamics.wave_field.calls"):
        assert first[name] == second[name]
    assert first["dynamics.run_direct.self_s"] < first["dynamics.run_direct.s"]


def _span(id, name, start, end, parent=None, **attrs):
    return {"id": id, "name": name, "start": start, "end": end, "parent": parent,
            "run": "r", "thread": 0, "attrs": attrs}


def test_self_time_on_synthetic_tree():
    spans = [
        _span(0, "a", 0.0, 10.0),
        _span(1, "b", 1.0, 4.0, parent=0),
        _span(2, "c", 3.0, 6.0, parent=0),      # overlaps b (another thread)
        _span(3, "d", 2.0, 3.0, parent=1),
        _span(4, "e", 5.5, 7.0, parent=2),      # runs past its parent's end
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({0: 10.0 - 5.0, 1: 3.0 - 1.0, 2: 3.0 - 0.5,
                                   3: 1.0, 4: 1.5})
    assert tracing.covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert tracing.covered([]) == 0.0


def test_pool_and_throughput_metrics_on_synthetic_tree():
    spans = [
        _span(0, "harness.ensemble", 0.0, 10.0, threads=2),
        _span(1, "dynamics.run_direct", 0.0, 8.0, parent=0, site_steps=100),
        _span(2, "dynamics.run_direct", 1.0, 9.0, parent=0, site_steps=100),
        _span(3, "dynamics.noise", 1.0, 2.0, parent=2),
        _span(4, "memory.kernel_build", 20.0, 23.0, march_steps=50),
        _span(5, "memory.j_eval", 20.0, 22.0, parent=4),
    ]
    m = tracing.layer_metrics(spans, {})
    assert m["harness.pool_busy_frac"] == pytest.approx(16.0 / 20.0)
    assert m["dynamics.site_steps_per_s"] == pytest.approx(200 / 9.0)
    assert m["dynamics.run_direct.self_s"] == pytest.approx(15.0)
    assert m["memory.kernel_build.self_s"] == pytest.approx(1.0)
    assert m["memory.march_steps"] == 50


def test_every_emitted_metric_is_declared():
    per_layer = [m["name"] for m in DECLARED["per_layer"]]
    emitted = set(tracing.layer_metrics([], {})) | {"trace.overhead_s"}
    assert emitted == set(per_layer)
    sample = {"run_s": 1.0, "peak_rss_mb": 1.0, "layers": tracing.layer_metrics([], {})}
    assert set(bench.per_layer([sample], [sample])) == set(per_layer)
    assert set(bench.end_to_end([1.0], [sample])) == {m["name"] for m in DECLARED["end_to_end"]}
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_workload_passes_its_references(name, tmp_path):
    t0 = time.perf_counter()
    checks = workloads.run(name, 1, tmp_path, scale="smoke")
    elapsed = time.perf_counter() - t0
    assert [c for c in checks if not c.passed] == []
    assert len(checks) == workloads.expected_checks(name, "smoke")
    assert elapsed < 20.0


def test_production_csv_identical_across_thread_counts(tmp_path):
    for threads in (1, 2):
        workloads.run("production", 4, tmp_path / f"t{threads}", scale="smoke",
                      threads=threads)
    assert (tmp_path / "t1/production.csv").read_bytes() == \
        (tmp_path / "t2/production.csv").read_bytes()


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_follows_the_contract(trace, section):
    proc = _bench(["--workload", "production", "--seed", "2", "--seconds", "1",
                   "--trace", trace, "--scale", "smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= workloads.expected_checks("production", "smoke")
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = _bench(["--workload", "scattering", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
