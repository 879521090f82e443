"""One benchmark sample in a fresh interpreter.

    python3 perfbench/sample.py --workload W --seed S --out DIR --spawned-at T
        [--scale full|smoke] [--trace] [--setup-only]

`--spawned-at` is the parent's `time.time()` just before it started this
process, so `setup_s` covers interpreter start, imports, config resolution
and the dispersion build, as every CLI user pays them.  `run_s` runs from
the first compute call to a checked result.  The result (timings, peak RSS,
checks and, when traced, the spans and counters) goes to DIR/result.json;
standard output is left to the CLI.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import time
import traceback
from pathlib import Path


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "thread_env": threads}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import phonon_scatter.cli  # noqa: F401  (the import every CLI run pays)
    import workloads

    disp = workloads.setup(args.workload, args.scale)
    result = {"setup_s": time.time() - args.spawned_at}
    result["env"] = environment()
    if not args.setup_only:
        result.update(measure(args, disp))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


def measure(args, disp) -> dict:
    import workloads
    from tracing import Tracer, layer_metrics

    tracer = Tracer(f"{args.workload}-seed{args.seed}-{args.out.name}") if args.trace else None
    if tracer is not None:
        tracer.install()
    error = None
    t0 = time.perf_counter()
    try:
        checks = workloads.run(args.workload, args.seed, args.out / "work", args.scale,
                               disp=disp)
    except Exception:   # the sample fails; the parent charges every expected check
        checks = []
        error = traceback.format_exc()
    finally:
        run_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.restore()
    out = {"run_s": run_s, "error": error, "checks": [vars(c) for c in checks]}
    if tracer is not None:
        counters = tracer.counters()
        out.update(spans=tracer.spans, counters=counters,
                   layers=layer_metrics(tracer.spans, counters))
    return out


if __name__ == "__main__":
    raise SystemExit(main())
