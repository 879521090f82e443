"""The benchmark workloads: configs, the calls they make, and the checks.

Each workload has a `full` config (what the benchmark measures) and a
`smoke` config (the same calls, scaled down to run in seconds for the
benchmark's own tests).  `setup` is what every user pays before compute
starts: import, config resolution and the dispersion build.  `run` does the
compute and returns the checks, i.e. the experiment's own `Check`s plus the
benchmark's references.  A nonzero CLI exit raises `CliFailure`; the caller
then counts every expected check of the sample as failed.
"""

from __future__ import annotations

import copy
import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SQRT2 = math.sqrt(2.0)
# closed forms for the unpinned nearest-neighbour chain at gamma = 1, k = 1/4
NU_QUARTER = 2.0 - SQRT2
QUARTER = {"p_plus": 6.0 - 4.0 * SQRT2, "p_minus": 3.0 - 2.0 * SQRT2,
           "absorb": 6.0 * SQRT2 - 8.0}
COEFFICIENT_TOL = 1e-4
FRACTION_TOL = 0.05
PHASE_INTEGRAL_TOL = 1e-3
VOLTERRA_RESIDUAL_TOL = 1e-10

PRODUCTION_THREADS = 2
TABLE = {"n_k": 512, "delta_excl": 0.02}
SMOKE_TABLE = {"n_k": 128, "delta_excl": 0.02}
PACKET = {"x_center": -0.2, "k_center": 0.25, "width": 0.1,
          "envelope": "cosine", "phase_random": True}

CONFIGS = {
    # two CLI runs: acoustic (cone) and optical (gap) band geometry
    "coefficients": {
        "full": [
            {"kernel": "nn_unpinned", "gamma": 1.0, "table": TABLE,
             "cross_oracle_stride": 8},
            {"kernel": "nn_pinned(1.0)", "gamma": 1.0, "table": TABLE,
             "cross_oracle_stride": 32},
        ],
        "smoke": [
            {"kernel": "nn_unpinned", "gamma": 1.0, "table": SMOKE_TABLE,
             "cross_oracle_stride": 32},
            {"kernel": "nn_pinned(1.0)", "gamma": 1.0, "table": SMOKE_TABLE,
             "cross_oracle_stride": 32},
        ],
    },
    "scattering": {
        "full": {"kernel": "nn_unpinned", "gamma": 1.0, "temperature": 0.0,
                 "N": 1024, "dt": 0.01, "t_macro": 0.6, "packet": PACKET,
                 "table": TABLE},
        # small-N geometry: narrower packet, earlier stop, clear of the seam
        "smoke": {"kernel": "nn_unpinned", "gamma": 1.0, "temperature": 0.0,
                  "N": 512, "dt": 0.02, "t_macro": 0.52,
                  "packet": {**PACKET, "x_center": -0.18, "width": 0.08},
                  "table": SMOKE_TABLE},
    },
    "production": {
        "full": {"kernel": "nn_unpinned", "gamma": 1.0, "temperature": 1.0,
                 "N": 256, "dt": 0.04, "t_macro": 0.3, "ensemble": {"paths": 800},
                 "n_bins": 8, "k_band": [0.15, 0.35], "table": TABLE},
        "smoke": {"kernel": "nn_unpinned", "gamma": 1.0, "temperature": 1.0,
                  "N": 128, "dt": 0.05, "t_macro": 0.25, "ensemble": {"paths": 60},
                  "min_samples": 100, "n_bins": 3, "k_band": [0.18, 0.33],
                  "plateau_ratio_tolerance": 0.5, "table": SMOKE_TABLE},
    },
    "spectral": {
        "full": {"kernel": "nn_unpinned", "gamma": 1.0, "dt": 1e-2, "horizon": 250.0,
                 "phase_k": 32, "N": 1024, "t_end": 50.0,
                 "packet": {"x_center": -0.05, "k_center": 0.25, "width": 0.12}},
        "smoke": {"kernel": "nn_unpinned", "gamma": 1.0, "dt": 1e-2, "horizon": 100.0,
                  "phase_k": 16, "N": 256, "t_end": 25.0,
                  "packet": {"x_center": -0.05, "k_center": 0.25, "width": 0.12}},
    },
}

WORKLOADS = tuple(CONFIGS)
SCALES = ("full", "smoke")


class CliFailure(RuntimeError):
    """The CLI exited nonzero: config rejected, checks failed or run invalid."""


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def config(workload: str, scale: str):
    return copy.deepcopy(CONFIGS[workload][scale])


def expected_checks(workload: str, scale: str) -> int:
    """How many checks one sample attempts (the count charged on a crash)."""
    cfg = CONFIGS[workload][scale]
    if workload == "coefficients":
        return 4 * len(cfg) + len(QUARTER)    # 4 per table, then the closed forms
    if workload == "scattering":
        return 3 + 1 + 3        # fractions vs the table, seam guard, closed forms
    if workload == "production":
        return cfg["n_bins"]    # one plateau ratio per bin
    return 4                    # spectral


def setup(workload: str, scale: str):
    """Resolve the first config and build its dispersion relation."""
    from phonon_scatter.harness import resolve_config
    from phonon_scatter.lattice import DispersionRelation, kernel_from_spec

    cfg = config(workload, scale)
    first = resolve_config(cfg[0] if isinstance(cfg, list) else cfg)
    return DispersionRelation(kernel_from_spec(first["kernel"]))


def run(workload: str, seed: int, workdir: Path, scale: str = "full",
        threads: int | None = None, disp=None) -> list[Check]:
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    return RUNNERS[workload](config(workload, scale), seed, workdir, threads, disp)


# -- CLI workloads ------------------------------------------------------------------

def _cli(command: str, cfg: dict, outdir: Path, seed: int,
         threads: int | None = None) -> dict:
    """Run one `phonon-scatter` command; return its manifest."""
    from phonon_scatter.cli import main

    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "config.json"
    path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(path), "--out", str(outdir), "--seed", str(seed)]
    if threads is not None:
        argv += ["--threads", str(threads)]
    code = main(argv)
    if code != 0:
        raise CliFailure(f"phonon-scatter {command} exited {code}")
    return json.loads((outdir / "manifest.json").read_text())


def _manifest_checks(manifest: dict, prefix: str) -> list[Check]:
    return [Check(f"{prefix}{c['name']}", bool(c["passed"]),
                  f"measured={c['measured']:.6g} target={c['target']:.6g} "
                  f"tol={c['tolerance']:.6g}")
            for c in manifest["checks"]]


def _within(name: str, measured: float, target: float, tol: float) -> Check:
    err = abs(measured - target)
    return Check(name, bool(err <= tol), f"|{measured:.8g} - {target:.8g}| = {err:.2e} "
                                         f"(<= {tol:.0e})")


def _read_columns(path: Path) -> dict[str, np.ndarray]:
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}


def _coefficients(cfgs: list[dict], seed: int, workdir: Path, threads, disp) -> list[Check]:
    checks = []
    for i, cfg in enumerate(cfgs):
        manifest = _cli("coefficients", cfg, workdir / f"coefficients_{i}", seed)
        checks += _manifest_checks(manifest, f"{cfg['kernel']}:")
    # the unpinned table, interpolated at k = 1/4 as ScatteringTable does
    cols = _read_columns(workdir / "coefficients_0" / "coefficients.csv")
    pos = cols["k"] > 0
    for key, target in QUARTER.items():
        value = float(np.interp(0.25, cols["k"][pos], cols[key][pos]))
        checks.append(_within(f"{key}_at_quarter_closed_form", value, target,
                              COEFFICIENT_TOL))
    return checks


def _scattering(cfg: dict, seed: int, workdir: Path, threads, disp) -> list[Check]:
    manifest = _cli("scattering", cfg, workdir, seed)
    checks = _manifest_checks(manifest, "")
    checks.append(Check("wraparound_guard", not manifest["invalid_run"],
                        "; ".join(manifest["notes"]) or "seam energy below the guard"))
    cols = _read_columns(workdir / "scattering.csv")
    for label, key in (("transmitted", "p_plus"), ("reflected", "p_minus"),
                       ("absorbed", "absorb")):
        checks.append(_within(f"{label}_vs_closed_form", float(cols[label][0]),
                              QUARTER[key], FRACTION_TOL))
    return checks


def _production(cfg: dict, seed: int, workdir: Path, threads, disp) -> list[Check]:
    manifest = _cli("production", cfg, workdir, seed,
                    threads=PRODUCTION_THREADS if threads is None else threads)
    return _manifest_checks(manifest, "")



# -- library workload: memory kernel and the mild solution ---------------------------

def _spectral(cfg: dict, seed: int, workdir: Path, threads, disp) -> list[Check]:
    # layer functions are looked up on their modules at call time, so a
    # tracer's wrappers see these calls
    from phonon_scatter import dynamics, lattice, memory, packets

    kernel = lattice.kernel_from_spec(cfg["kernel"])
    if disp is None:
        disp = lattice.DispersionRelation(kernel)
    gamma, dt = float(cfg["gamma"]), float(cfg["dt"])
    mk = memory.MemoryKernel(disp, gamma, dt=dt, horizon=float(cfg["horizon"]))
    n_k = int(cfg["phase_k"])
    k = np.arange(1, n_k) / (2 * n_k)             # (0, 1/2), k = 1/4 at n_k/2 - 1
    phase = mk.phase_integral(k)
    err = float(abs(phase[n_k // 2 - 1, -1] - NU_QUARTER))
    checks = [Check("phase_integral_at_horizon_vs_nu_quarter", err < PHASE_INTEGRAL_TOL,
                    f"{err:.2e} (< {PHASE_INTEGRAL_TOL:.0e})")]
    residual = mk.volterra_residual()
    checks.append(Check("volterra_residual", bool(residual < VOLTERRA_RESIDUAL_TOL),
                        f"{residual:.2e} (< {VOLTERRA_RESIDUAL_TOL:.0e})"))

    N, t_end = int(cfg["N"]), float(cfg["t_end"])
    spec = packets.WavePacketSpec(**cfg["packet"])
    state = packets.sample_initial(spec, N, disp, rng=packets.init_rng(seed))
    psi0_hat = dynamics.wave_field_hat(state.p, state.q, disp)
    mild = dynamics.psi_spectral_mild(psi0_hat, mk, t_end)
    _, p0 = dynamics.p0_volterra(psi0_hat, mk, t_end)
    p, q = state.p.copy(), state.q.copy()
    traj = dynamics.run_direct(p, q, kernel, disp, dynamics.ThermostatParams(gamma, 0.0),
                               dt, int(round(t_end / dt)), record=True)
    direct = dynamics.wave_field_hat(p, q, disp)
    rel = float(np.linalg.norm(mild - direct) / np.linalg.norm(direct))
    checks.append(Check("mild_vs_direct_rel_l2", rel < 10 * dt,
                        f"{rel:.2e} (< 10 dt = {10 * dt:.0e})"))
    p0_err = float(np.max(np.abs(p0[: traj.p0_at_ou.shape[0]] - traj.p0_at_ou)))
    checks.append(Check("p0_volterra_vs_direct_sup", p0_err < 5 * dt,
                        f"{p0_err:.2e} (< 5 dt = {5 * dt:.0e})"))
    return checks


RUNNERS = {"coefficients": _coefficients, "scattering": _scattering,
           "production": _production, "spectral": _spectral}
