"""Configuration-driven experiments with reproducible reports.

Configs are JSON objects.  `KEYS` declares every key of each experiment
once, with its type and default.  `run_experiment` is the one pipeline: it
walks the config against that table (an unknown key, a missing required key
or a value of the wrong type is a ConfigError naming the key and the
experiment) and fills in every default, opens the RunReport, starts the
clock, builds the kernel and dispersion relation, calls the runner, stops
the clock and writes `manifest.json`, whose config lists every value the run
used.  A runner reads `cfg[key]` as given, validates its own preconditions
before any compute, adds its checks and writes CSV tables whose bytes depend
only on (config, seed).

Experiments
-----------
coefficients     scattering table, identity checks, PV-vs-resolvent oracle
scattering       deterministic packet run, energy fractions vs the table
convergence      scattering with an N sweep and monotonicity check
production       thermal ensemble from vacuum, wedge plateaus vs absorb*T
equilibrium      Gibbs start, stationarity of the spectral energy density
transport_check  closed-form residuals and the transform-pair consistency
"""

from __future__ import annotations

import copy
import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import (EnsembleNoise, ThermostatParams, _check_step, dump_snapshots,
                       run_direct, run_vacuum_ensemble, run_zero_temperature,
                       site_coordinates, wave_field, wave_field_hat)
from .errors import ConfigError, InvalidRunError
from .kinetics import (CosineBumpSquaredProfile, LimitSolution, SeparableInitialData,
                       boundary_residual, equilibrium_initial_data,
                       laplace_fourier_limit, laplace_fourier_numeric, limit_wigner,
                       transport_residual)
from .lattice import DispersionRelation, kernel_from_spec
from .packets import WavePacketSpec, gibbs_ensemble, init_rng, sample_initial
from .scattering import build_table, nu_laplace_limit
from .wigner import (production_profile, production_windows, scattering_fractions,
                     wavenumber_grid, wigner_estimate)

SEAM_GUARD_FRACTION = 1e-6
# width of the macroscopic band |x| >= 1/2 - SEAM_BAND that the wraparound
# guard watches and that a production front must not reach
SEAM_BAND = 1 / 8

# -- config keys ----------------------------------------------------------------
# Every key an experiment reads, once, as name: (type, default).  A type is a
# Python type (float also takes a JSON integer), a tuple of types, [t] for a
# nonempty list of t, [t, t, ...] for a list of exactly that many t, or a dict
# of keys for a block.  REQUIRED means no default.  A block left out takes its
# keys' defaults; one whose default is WHOLE must, when given, name every key.
# An int key named in COUNTS must be >= 1: at 0 the experiment measures nothing.
# `seed` must lie in [0, 2^64): it keys the Philox streams.

REQUIRED = object()
WHOLE = object()

_COMMON = {"experiment": (str, REQUIRED), "kernel": ((str, dict), "nn_unpinned"),
           "gamma": (float, 1.0), "temperature": (float, 0.0), "seed": (int, 0),
           "threads": (int, 1),
           "table": ({"n_k": (int, 512), "delta_excl": (float, 0.02)}, WHOLE)}
_LATTICE = {"N": (int, REQUIRED), "dt": (float, REQUIRED), "t_macro": (float, REQUIRED)}
_SCATTERING = {**_LATTICE,
               "packet": ({"x_center": (float, REQUIRED), "k_center": (float, REQUIRED),
                           "width": (float, REQUIRED), "envelope": (str, "cosine"),
                           "phase_random": (bool, True)}, REQUIRED),
               "fraction_tolerance": (float, 0.05), "dump_state": (bool, False)}
KEYS = {name: {**_COMMON, **keys} for name, keys in {
    "coefficients": {"cross_oracle_stride": (int, 1)},
    "scattering": _SCATTERING,
    # a given sweep replaces N
    "convergence": {**_SCATTERING, "N": (int, None), "sweep_N": ([int], None),
                    "sweep_slack": (float, 0.2)},
    "production": {**_LATTICE, "ensemble": ({"paths": (int, 1000)}, {}),
                   "k_band": ([float, float], [0.15, 0.35]), "n_bins": (int, 8),
                   "min_samples": (int, 1000), "plateau_ratio_tolerance": (float, 0.1)},
    "equilibrium": {**_LATTICE, "ensemble": ({"paths": (int, 200)}, {}),
                    "records": (int, 5), "n_bins": (int, 40)},
    "transport_check": {
        "profile_center": (float, -0.3), "profile_width": (float, 0.25),
        "check_wavenumbers": ([float], [0.25, 0.3]),
        "transform_spots": ([[float, float, float]], [[1.0, 2.0, 0.25]])},
}.items()}
COUNTS = {"threads", "cross_oracle_stride", "paths", "n_bins", "records"}


def _walk(experiment: str, keys: dict, config: dict, prefix: str = "",
          whole: bool = False) -> dict:
    """`config` checked against `keys`, with every default filled in."""
    for key in config:
        _require(key in keys, f"{experiment}: unknown config key '{prefix}{key}'")
    out = {}
    for key, (kind, default) in keys.items():
        name = prefix + key
        if key in config:
            out[key] = _typed(experiment, name, kind, config[key], default is WHOLE)
            continue
        _require(default is not REQUIRED and not whole,
                 f"{experiment}: missing config key '{name}'")
        out[key] = (_walk(experiment, kind, {}, name + ".") if isinstance(kind, dict)
                    else copy.deepcopy(default))
    return out


def _typed(experiment: str, name: str, kind, value, whole: bool = False):
    """The value of config key `name` checked against `kind`; a JSON
    integer given for a float comes back as a float."""
    def wrong(what):
        return ConfigError(f"{experiment}: config key '{name}' must be {what}, "
                           f"got {value!r}")
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise wrong("an object")
        return _walk(experiment, kind, value, name + ".", whole)
    if isinstance(kind, list):
        if not isinstance(value, list) or len(value) != len(kind) > 1 or not value:
            raise wrong("a nonempty list" if len(kind) == 1 else f"a list of {len(kind)}")
        return [_typed(experiment, name, kind[0], v) for v in value]
    if isinstance(value, bool) != (kind is bool) or \
            not isinstance(value, (int, float) if kind is float else kind):
        names = kind if isinstance(kind, tuple) else (kind,)
        raise wrong(" or ".join(t.__name__ for t in names))
    if name.rsplit(".", 1)[-1] in COUNTS and value < 1:
        raise wrong("an int >= 1")
    if name == "seed" and not 0 <= value < 1 << 64:
        raise wrong("an int in [0, 2**64)")
    return float(value) if kind is float else value


def resolve_config(config: dict) -> dict:
    """`config` with the common defaults filled in, unchecked: the keys are
    checked by `run_experiment`, against the experiment's table."""
    common = {key: entry for key, entry in _COMMON.items() if key != "experiment"}
    return {**_walk("config", common, {}), **config}


@dataclass
class Check:
    name: str
    measured: float
    target: float
    tolerance: float
    passed: bool

    @classmethod
    def leq(cls, name: str, measured: float, bound: float) -> "Check":
        return cls(name, float(measured), float(bound), float(bound),
                   bool(measured <= bound))

    @classmethod
    def within(cls, name: str, measured: float, target: float, tol: float) -> "Check":
        return cls(name, float(measured), float(target), float(tol),
                   bool(abs(measured - target) <= tol))


@dataclass
class RunReport:
    experiment: str
    config: dict
    checks: list[Check] = field(default_factory=list)
    invalid: bool = False
    notes: list[str] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.invalid and all(c.passed for c in self.checks)

    def add(self, check: Check) -> None:
        self.checks.append(check)

    def manifest(self) -> dict:
        return {
            "experiment": self.experiment,
            "config": self.config,
            "passed": self.passed,
            "invalid_run": self.invalid,
            "notes": self.notes,
            "checks": [vars(c) for c in self.checks],
            "wall_seconds": round(self.wall_seconds, 3),
        }


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _table(cfg: dict, disp):
    return build_table(disp, cfg["gamma"], **cfg["table"])


def _n_steps(cfg: dict, disp, N) -> int:
    """Validate N, dt and t_macro; return the step count t_macro*N/dt, which
    must be at least 1."""
    _require(isinstance(N, int) and N > 0 and not (N & (N - 1)),
             "N must be a positive power of two")
    dt = cfg["dt"]
    _check_step(dt, disp)
    _require(cfg["t_macro"] > 0, "t_macro must be positive")
    n_steps = int(round(cfg["t_macro"] * N / dt))
    _require(n_steps >= 1, f"t_macro*N/dt = {cfg['t_macro'] * N / dt:.3g} rounds to "
             f"zero steps at N={N}; raise t_macro or lower dt")
    return n_steps


# -- experiment: coefficients -------------------------------------------------

def run_coefficients(cfg: dict, kernel, disp, report: RunReport, outdir: Path) -> None:
    table = _table(cfg, disp)
    report.add(Check.leq("sum_identity_max_residual", table.max_sum_residual, 1e-8))
    report.add(Check.leq("re_nu_identity_max_residual", table.max_renu_residual, 1e-6))
    # evenness of nu under k -> -k: build_table checks that the grid is
    # negation-symmetric, so reversal pairs each k with -k
    even_res = float(np.max(np.abs(table.nu - table.nu[::-1])))
    report.add(Check.leq("nu_evenness_max_residual", even_res, 1e-10))
    # PV vs resolvent boundary-value oracle
    sel = np.arange(table.k_grid.size)[::cfg["cross_oracle_stride"]]
    diffs = np.array([abs(nu_laplace_limit(disp, cfg["gamma"], float(table.k_grid[i]))
                          - table.nu[i]) for i in sel])
    report.add(Check.leq("nu_cross_oracle_max_diff", float(diffs.max()), 1e-3))
    table.export_csv(outdir / "coefficients.csv")
    (outdir / "coefficients.gp").write_text(
        "# gnuplot layout for coefficients.csv\n"
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        "set xlabel 'k'\nset ylabel 'probability'\n"
        "plot 'coefficients.csv' using 1:5 with lines, "
        "'' using 1:6 with lines, '' using 1:4 with lines\n")


# -- experiment: scattering / convergence ------------------------------------

def _seam_energy_fraction(psi: np.ndarray, total: float) -> float:
    N = psi.shape[-1]
    seam = np.abs(site_coordinates(N)) >= N * (0.5 - SEAM_BAND)
    return float(np.sum(np.abs(psi[..., seam]) ** 2) / total)


def _one_scattering_run(cfg: dict, kernel, disp, k_center: float, state,
                        n_steps: int):
    N = state.N
    psi0 = wave_field(state.p, state.q, disp)
    total0 = float(np.sum(np.abs(psi0) ** 2))
    e0 = total0 / N
    params = ThermostatParams(cfg["gamma"], 0.0)
    guard_every = max(1, n_steps // 8)
    seam_max = 0.0

    def snap(p, q):
        nonlocal seam_max
        seam_max = max(seam_max, _seam_energy_fraction(wave_field(p, q, disp), total0))
        return None

    run_zero_temperature(state.p, state.q, kernel, disp, params, cfg["dt"], n_steps,
                         snapshot_every=guard_every, snapshot_fn=snap)
    psi = wave_field(state.p, state.q, disp)
    if seam_max > SEAM_GUARD_FRACTION:
        raise InvalidRunError(
            f"wraparound guard tripped: seam energy fraction {seam_max:.2e} "
            f"exceeds {SEAM_GUARD_FRACTION:.0e} at N={N}"
        )
    fr = scattering_fractions(psi, disp, k_center, e0)
    return fr, seam_max


def run_scattering(cfg: dict, kernel, disp, report: RunReport, outdir: Path) -> None:
    """One packet run; the convergence experiment repeats it over sweep_N."""
    sweep = report.experiment == "convergence"
    _require(cfg["temperature"] == 0.0, "scattering experiments are zero-temperature")
    Ns = cfg["sweep_N"] if sweep and cfg["sweep_N"] is not None else [cfg["N"]]
    steps = [_n_steps(cfg, disp, N) for N in Ns]
    spec = WavePacketSpec(**cfg["packet"])
    # sampling checks the packet preconditions, so do it before any compute
    states = [sample_initial(spec, N, disp, rng=init_rng(cfg["seed"]),
                             delta_excl=cfg["table"]["delta_excl"]) for N in Ns]
    table = _table(cfg, disp)
    tol = cfg["fraction_tolerance"]
    kc = spec.k_center
    rows = []
    errors = []
    for N, n_steps, state in zip(Ns, steps, states):
        try:
            fr, seam = _one_scattering_run(cfg, kernel, disp, kc, state, n_steps)
        except InvalidRunError as exc:
            report.invalid = True
            report.notes.append(str(exc))
            break
        if cfg["dump_state"]:
            dump_snapshots(outdir / f"state_N{N}.bin", [(state.p, state.q)],
                           dt=cfg["dt"], times=[cfg["t_macro"] * N],
                           seed=cfg["seed"], kernel_name=kernel.name)
        targets = (float(table.p_plus_at(kc)), float(table.p_minus_at(kc)),
                   float(table.absorb_at(kc)))
        measured = (fr.transmitted, fr.reflected, fr.absorbed)
        err = max(abs(m - t) for m, t in zip(measured, targets))
        errors.append(err)
        rows.append([N, *(f"{v:.8f}" for v in measured), *(f"{v:.8f}" for v in targets),
                     f"{err:.8f}", f"{seam:.3e}"])
        for label, m, t in zip(("transmitted", "reflected", "absorbed"),
                               measured, targets):
            report.add(Check.within(f"{label}_fraction_N{N}", m, t, tol))
    if sweep and len(errors) == len(Ns) and len(errors) > 1:
        growth = max(errors[i + 1] / max(errors[i], 1e-300)
                     for i in range(len(errors) - 1))
        report.add(Check.leq("sweep_error_growth", growth, 1.0 + cfg["sweep_slack"]))
    _write_csv(outdir / f"{report.experiment}.csv",
               ["N", "transmitted", "reflected", "absorbed",
                "p_plus", "p_minus", "absorb", "max_error", "seam_fraction"],
               rows)


# -- thermal ensembles ---------------------------------------------------------

def run_thermal_ensemble(kernel, disp, params: ThermostatParams, N: int, dt: float,
                         n_steps: int, n_paths: int, seed0: int, threads: int = 1,
                         gibbs_temperature: float | None = None,
                         snapshot_every: int = 0, snapshot_fn=None):
    """Integrate n_paths thermostatted chains; return the final wave field
    psi = Omega q + ip, (n_paths, N) complex, and the snapshots.

    Path i draws its noise from the Philox key seed0 + i, and the
    initial-condition stream is disjoint from the noise keys.  An ensemble
    that starts from vacuum and takes no snapshots is one
    `run_vacuum_ensemble`: the paths' increments times the integrator's
    impulse response, whose rows come from the ring's law in closed form,
    so nothing is stepped, `threads` is not used and there are no
    snapshots.  A Gibbs start (at `gibbs_temperature`) or a `snapshot_fn`
    needs every path's state along the way, so those ensembles are chunked
    across a pool of `threads` workers, each integrating its chunk with
    `run_direct` in place, in a row slice of the ensemble's (p, q).  Each
    snapshot is one array, the chunks' `snapshot_fn` outputs concatenated
    along the path axis in path order.  Results do not depend on the
    thread count.
    """
    driven = params.gamma > 0 and params.temperature > 0
    if gibbs_temperature is None and snapshot_fn is None:
        noise = EnsembleNoise(seed0, n_paths, dt) if driven else None
        return run_vacuum_ensemble(kernel, disp, params, N, dt, n_steps, n_paths,
                                   noise), []
    bounds = np.linspace(0, n_paths, threads + 1).astype(int)
    chunks = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    p_out, q_out = np.zeros((n_paths, N)), np.zeros((n_paths, N))

    def work(bounds_pair):
        a, b = bounds_pair
        p, q = p_out[a:b], q_out[a:b]
        if gibbs_temperature is not None:
            p[...], q[...] = gibbs_ensemble(N, disp, gibbs_temperature, seed0, range(a, b))
        noise = EnsembleNoise(seed0 + a, b - a, dt) if driven else None
        traj = run_direct(p, q, kernel, disp, params, dt, n_steps, noise=noise,
                          snapshot_every=snapshot_every, snapshot_fn=snapshot_fn)
        return [] if traj is None else traj.snapshots

    if threads == 1:
        per_chunk = [work(c) for c in chunks]
    else:
        # imported here: only these ensembles use a pool, and the import
        # brings in logging, which no other experiment needs
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_chunk = list(pool.map(work, chunks))
    snapshots = [np.concatenate(snap, axis=0) for snap in zip(*per_chunk)]
    return wave_field(p_out, q_out, disp), snapshots


# -- experiment: production ----------------------------------------------------

def run_production(cfg: dict, kernel, disp, report: RunReport, outdir: Path) -> None:
    T = cfg["temperature"]
    _require(T > 0, "production requires temperature > 0")
    N = cfg["N"]
    n_steps = _n_steps(cfg, disp, N)
    # from vacuum, no energy outruns the top group velocity: keep that front
    # out of the band the seam guard watches
    v_max = float(np.max(np.abs(disp.group_velocity(np.linspace(0.0, 0.5, 1025)))))
    _require(cfg["t_macro"] * v_max < 0.5 - SEAM_BAND,
             f"t_macro must be below {(0.5 - SEAM_BAND) / v_max:.3f}, where the front "
             f"at group velocity {v_max:.3f} reaches the seam band")
    # a bin without a k node or a wedge site would read 0/0 after the run
    production_windows(N, disp, cfg["t_macro"], tuple(cfg["k_band"]), cfg["n_bins"])
    M = cfg["ensemble"]["paths"]
    table = _table(cfg, disp)
    params = ThermostatParams(cfg["gamma"], T)
    psi, _ = run_thermal_ensemble(kernel, disp, params, N, cfg["dt"], n_steps, M,
                                  cfg["seed"], threads=cfg["threads"])
    bins, warnings = production_profile(psi, disp, table, T, cfg["t_macro"],
                                        k_band=tuple(cfg["k_band"]),
                                        n_bins=cfg["n_bins"],
                                        min_samples=cfg["min_samples"])
    report.notes.extend(warnings)
    ratio_tol = cfg["plateau_ratio_tolerance"]
    rows = []
    for b in bins:
        ratio = b.estimate / b.prediction if b.prediction else float("nan")
        report.add(Check.within(f"plateau_ratio_k{b.k_mid:.3f}", ratio, 1.0, ratio_tol))
        rows.append([f"{b.k_lo:.5f}", f"{b.k_hi:.5f}", f"{b.estimate:.8f}",
                     f"{b.stderr:.2e}", f"{b.prediction:.8f}", f"{ratio:.5f}"])
    _write_csv(outdir / "production.csv",
               ["k_lo", "k_hi", "wedge_density", "stderr", "absorb_T", "ratio"], rows)


# -- experiment: equilibrium ----------------------------------------------------

def run_equilibrium(cfg: dict, kernel, disp, report: RunReport, outdir: Path) -> None:
    T = cfg["temperature"]
    _require(T > 0, "equilibrium requires temperature > 0")
    _require(cfg["ensemble"]["paths"] >= 2, "equilibrium: config key 'ensemble.paths' "
             "must be >= 2, since the per-bin standard error needs two paths")
    N = cfg["N"]
    n_steps = _n_steps(cfg, disp, N)
    stride = max(1, n_steps // cfg["records"])
    params = ThermostatParams(cfg["gamma"], T)
    _, snaps = run_thermal_ensemble(
        kernel, disp, params, N, cfg["dt"], n_steps, cfg["ensemble"]["paths"],
        cfg["seed"], threads=cfg["threads"], gibbs_temperature=T,
        snapshot_every=stride, snapshot_fn=lambda p, q: wave_field_hat(p, q, disp))
    delta = cfg["table"]["delta_excl"]
    k = wavenumber_grid(N)
    keep = disp.distance_to_stationary(k) > delta
    if disp.kind == "acoustic":
        keep &= np.abs(k) > delta
    edges = np.linspace(-0.5, 0.5, cfg["n_bins"] + 1)
    rows = []
    worst = 0.0
    eps = 1.0 / N
    for snap_idx, psi_hat in enumerate(snaps):
        density = 0.5 * eps * np.abs(psi_hat) ** 2  # per path, per mode
        for lo, hi in zip(edges[:-1], edges[1:]):
            sel = keep & (k >= lo) & (k < hi)
            if sel.sum() < 3:
                continue
            # bin-average per path first: the paths are independent, the
            # modes within a path are not (shared thermostat noise)
            per_path = density[:, sel].mean(axis=1)
            mean = float(per_path.mean())
            stderr = float(per_path.std(ddof=1)) / np.sqrt(per_path.size)
            dev = abs(mean - T) / max(stderr, 1e-300)
            worst = max(worst, dev)
            rows.append([snap_idx, f"{lo:.4f}", f"{hi:.4f}", f"{mean:.6f}",
                         f"{stderr:.2e}", f"{dev:.3f}"])
    report.add(Check.leq("stationarity_worst_sigma", worst, 3.0))
    _write_csv(outdir / "equilibrium.csv",
               ["record", "k_lo", "k_hi", "mean_density", "stderr", "sigmas"], rows)
    # final-record spectral density on the raw grid, with the constant limit
    est = wigner_estimate(snaps[-1], eps, eta_max=0)
    est.export_csv(outdir / "wigner_eta0.csv", limit=lambda k: T)


# -- experiment: transport_check -------------------------------------------------

def run_transport_check(cfg: dict, kernel, disp, report: RunReport,
                        outdir: Path) -> None:
    # the closed-form residual checks need a nonzero production term
    T = cfg["temperature"] or 1.0
    table = _table(cfg, disp)
    prof = CosineBumpSquaredProfile(center=cfg["profile_center"],
                                    width=cfg["profile_width"])
    spectral = lambda k: 0.6 + 0.4 * np.cos(2 * np.pi * np.asarray(k, dtype=float))
    data = SeparableInitialData(prof, spectral)
    sol = LimitSolution.from_separable(data, table, temperature=T, disp=disp)
    sol_eq = LimitSolution(w0=equilibrium_initial_data(T), table=table,
                           temperature=T, disp=disp)
    rows = []
    worst_boundary = 0.0
    worst_eq = 0.0
    worst_transport = 0.0
    for k in cfg["check_wavenumbers"]:
        rb = boundary_residual(sol, 1.0, k)
        rq = boundary_residual(sol_eq, 1.0, k)
        worst_boundary = max(worst_boundary, rb, rq)
        xs = np.linspace(-1.0, 1.0, 81)
        eq_dev = float(np.max(np.abs(limit_wigner(sol_eq, 2.0, xs, k) - T)))
        worst_eq = max(worst_eq, eq_dev)
        for x in (0.1, -0.1):
            worst_transport = max(worst_transport, transport_residual(sol, 1.0, x, k))
        rows.append([f"{k:.4f}", f"{rb:.3e}", f"{rq:.3e}", f"{eq_dev:.3e}"])
    report.add(Check.leq("boundary_residual_max", worst_boundary, 1e-12))
    report.add(Check.leq("equilibrium_invariance_max", worst_eq, 1e-12))
    report.add(Check.leq("transport_fd_residual_max", worst_transport, 1e-6))
    worst_pair = 0.0
    for lam, eta, k in cfg["transform_spots"]:
        an = laplace_fourier_limit(sol, lam, eta, k)
        num = laplace_fourier_numeric(sol, lam, eta, k)
        worst_pair = max(worst_pair, abs(an - num))
        rows.append([f"spot({lam},{eta},{k})", f"{abs(an - num):.3e}", "", ""])
    report.add(Check.leq("transform_pair_max_diff", worst_pair, 1e-3))
    _write_csv(outdir / "transport_check.csv",
               ["k_or_spot", "boundary_residual", "equilibrium_boundary_residual",
                "equilibrium_deviation"], rows)


RUNNERS = {
    "coefficients": run_coefficients,
    "scattering": run_scattering,
    "convergence": run_scattering,
    "production": run_production,
    "equilibrium": run_equilibrium,
    "transport_check": run_transport_check,
}
EXPERIMENTS = tuple(RUNNERS)


def run_experiment(config: dict, outdir) -> RunReport:
    """Check the config and fill its defaults, run its experiment, write the
    manifest."""
    experiment = config.get("experiment")
    _require(experiment in RUNNERS,
             f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    cfg = _walk(experiment, KEYS[experiment], config)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    report = RunReport(experiment, cfg)
    t0 = time.perf_counter()
    kernel = kernel_from_spec(cfg["kernel"])
    disp = DispersionRelation(kernel)
    RUNNERS[experiment](cfg, kernel, disp, report, outdir)
    report.wall_seconds = time.perf_counter() - t0
    with (outdir / "manifest.json").open("w") as fh:
        json.dump(report.manifest(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report
