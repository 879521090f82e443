"""Command-line front end: `phonon-scatter <command> --config <file> ...`.

Exit codes:

0  every check passed
1  at least one check failed
2  config rejected, with the failing precondition printed: ConfigError
   (including a config key that is unknown, missing or of the wrong type, a
   count such as `threads` below 1, an empty list, a malformed explicit
   kernel, a t_macro*N/dt that rounds to zero steps) and DomainError (a
   wavenumber in a singular zone, a time beyond a kernel horizon)
3  a validity guard flagged the run: InvalidRunError (for example the
   wraparound guard) and TableConstructionError

Every typed error of the package maps to one of these codes.  --seed and
--threads, when given, replace the config's `seed` and `threads` keys and
are checked as those keys are.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import (ConfigError, DomainError, InvalidRunError,
                     TableConstructionError)
from .harness import EXPERIMENTS, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phonon-scatter",
        description="Reproducible experiments on the thermostatted harmonic chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name.replace("_", "-"),
                           help=f"run the {name} experiment")
        p.add_argument("--config", required=True, type=Path,
                       help="JSON config file")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default: ./out/<command>)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--threads", type=int, default=None,
                       help="worker pool size")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command.replace("-", "_")
    try:
        config = json.loads(args.config.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config rejected: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(config, dict):
        print(f"config rejected: {args.config} is not a JSON object", file=sys.stderr)
        return 2
    config["experiment"] = command
    if args.seed is not None:
        config["seed"] = args.seed
    if args.threads is not None:
        config["threads"] = args.threads
    outdir = args.out if args.out is not None else Path("out") / command
    try:
        report = run_experiment(config, outdir)
    except (ConfigError, DomainError) as exc:
        print(f"config rejected: {exc}", file=sys.stderr)
        return 2
    except (InvalidRunError, TableConstructionError) as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 3
    for check in report.checks:
        flag = "PASS" if check.passed else "FAIL"
        print(f"[{flag}] {check.name}: measured={check.measured:.6g} "
              f"target={check.target:.6g} tol={check.tolerance:.6g}")
    for note in report.notes:
        print(f"note: {note}")
    print(f"{report.experiment}: {'PASS' if report.passed else 'FAIL'} "
          f"({report.wall_seconds:.1f}s); outputs in {outdir}")
    if report.invalid:
        return 3
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
