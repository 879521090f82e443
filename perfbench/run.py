"""Benchmark entry point: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
`src/`, nothing is installed).  Every sample runs in a fresh interpreter
(`sample.py`) with BLAS/OpenMP pinned to one thread, so set-up is paid as a
CLI user pays it and no number depends on the calling shell.  The run first
starts one untimed interpreter to fill the bytecode caches, then a few
set-up-only probes, then whole samples until the next one would overrun
`--seconds`.

With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics (medians over the samples); with `--trace 1` it holds
the per-layer metrics, from traced samples alternated with untraced ones
(their difference is `trace.overhead_s`).  `attempted` and `failed` count
the checks of every sample: the experiment's own plus the benchmark's
references; a crashed sample fails all of its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "_runs"

import workloads  # noqa: E402  (beside this script)

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 3
# no sample starts after this many seconds, and none may run past SAMPLE_CAP,
# so a run ends well inside the 180 s a caller allows
START_LIMIT = 120.0
SAMPLE_CAP = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PHONON_SCATTER_THREADS", None)     # would override the config
    env.update({name: "1" for name in THREAD_ENV})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Runner:
    """Starts sample interpreters and tallies their checks."""

    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.env = child_env()
        self.start = time.monotonic()
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.expected = workloads.expected_checks(args.workload, args.scale)

    def spawn(self, *, traced: bool = False, setup_only: bool = False):
        """Run one child; return its result dict, or None if it crashed."""
        out = self.workdir / f"{self.count:03d}"
        self.count += 1
        out.mkdir()
        flags = ["--trace"] if traced else []
        flags += ["--setup-only"] if setup_only else []
        timeout = max(1.0, SAMPLE_CAP - (time.monotonic() - self.start))
        with (out / "log.txt").open("w") as log:
            cmd = [sys.executable, str(HERE / "sample.py"), "--workload", self.args.workload,
                   "--seed", str(self.args.seed), "--scale", self.args.scale,
                   "--out", str(out), *flags, "--spawned-at", repr(time.time())]
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      env=self.env, cwd=ROOT, timeout=timeout).returncode
            except subprocess.TimeoutExpired:   # run() has killed and reaped it
                code = None
        result_path = out / "result.json"
        if code != 0 or not result_path.is_file():
            tail = (out / "log.txt").read_text()[-2000:]
            print(f"sample {out.name} exited {code}:\n{tail}", file=sys.stderr)
            return None
        return json.loads(result_path.read_text())

    def tally(self, result) -> bool:
        """Count a sample's checks; True when it produced a usable timing."""
        if result is None or result.get("error"):
            if result is not None:
                print(result["error"], file=sys.stderr)
            self.attempted += self.expected
            self.failed += self.expected
            return False
        checks = result["checks"]
        missing = max(0, self.expected - len(checks))
        self.attempted += len(checks) + missing
        self.failed += missing + sum(not c["passed"] for c in checks)
        for c in checks:
            if not c["passed"]:
                print(f"FAILED {c['name']}: {c['detail']}", file=sys.stderr)
        return True


def measure(args, workdir: Path):
    runner = Runner(args, workdir)
    deadline = runner.start + args.seconds
    warm = runner.spawn(setup_only=True)
    if warm is None:
        return None
    print("# env: " + json.dumps(warm["env"], sort_keys=True))
    setups = [runner.spawn(setup_only=True) for _ in range(SETUP_PROBES)]
    setup_s = [r["setup_s"] for r in setups if r is not None]
    samples = {False: [], True: []}
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(samples[True]) < len(samples[False])
        t0 = time.monotonic()
        result = runner.spawn(traced=traced)
        longest = max(longest, time.monotonic() - t0)
        if runner.tally(result):
            samples[traced].append(result)
            setup_s.append(result["setup_s"])
            print(f"# sample {'traced' if traced else 'untraced'}: "
                  f"run_s={result['run_s']:.4f} setup_s={result['setup_s']:.4f} "
                  f"peak_rss_mb={result['peak_rss_mb']:.1f}")
        now = time.monotonic()
        paired = not args.trace or len(samples[True]) == len(samples[False])
        enough = samples[False] and (not args.trace or samples[True])
        if (enough and paired and now + longest > deadline) or now - runner.start > START_LIMIT:
            break
    return runner, setup_s, samples


def median_of(results, key):
    return statistics.median(r[key] for r in results)


def end_to_end(setup_s, untraced) -> dict:
    return {"run_s": median_of(untraced, "run_s"),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": median_of(untraced, "peak_rss_mb")}


def per_layer(untraced, traced) -> dict:
    names = traced[0]["layers"]
    out = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
    out["trace.overhead_s"] = median_of(traced, "run_s") - median_of(untraced, "run_s")
    return out


def declared_units() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full",
                        help="smoke: scaled-down configs for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "phonon_scatter" / "__init__.py").is_file():
        print(f"no phonon_scatter sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        measured = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if measured is None:
        print("the package failed to import; no result", file=sys.stderr)
        return 1
    runner, setup_s, samples = measured
    untraced, traced = samples[False], samples[True]
    if not untraced or (args.trace and not traced):
        print("no sample completed; no result", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(untraced, traced)
        trace_file = RUNS / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            [{"spans": r["spans"], "counters": r["counters"]} for r in traced]))
        print(f"# spans of {len(traced)} traced samples written to {trace_file}")
    else:
        metrics = end_to_end(setup_s, untraced)
    units = declared_units()
    counts = {"setup_s": len(setup_s), "trace.overhead_s": len(traced)}
    metrics = {name: metrics[name] for name in units if name in metrics}
    for name, value in metrics.items():
        n = counts.get(name, len(traced) if args.trace else len(untraced))
        print(f"{name} = {value:.6g} {units[name]} (median of {n})")
    print(f"failed_frac = {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} checks failed)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
