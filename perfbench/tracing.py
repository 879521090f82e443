"""Spans and counters around the public calls into each layer.

The tracer wraps functions from outside the package: a module function is
replaced wherever a `phonon_scatter` module holds it under its name (the
defining module and every module that imported the name, such as
`harness`), and a method is replaced on its class.  `restore()` puts every
original back.

Calls that happen often (hundreds of thousands of `omega` calls in the
`coefficients` workload) are aggregated into per-thread counters of calls
and summed seconds instead of one span each.  Everything is kept in memory
and written out once, when the traced sample ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time

import numpy as np

PACKAGE = "phonon_scatter"
_MISSING = object()

def _run_direct_attrs(args):
    return {"site_steps": int(np.prod(args["p"].shape)) * int(args["n_steps"])}


def _kernel_build_attrs(args):
    return {"march_steps": int(args["self"].n_steps)}


def _ensemble_attrs(args):
    return {"threads": max(1, int(args["threads"]))}


# (defining module, attribute, span name, hook).  A hook receives the bound
# call arguments once the call has returned and gives the span's attributes.
SPANS = (
    ("lattice", "DispersionRelation.__init__", "lattice.dispersion_build", None),
    ("scattering", "build_table", "scattering.build_table", None),
    ("memory", "MemoryKernel.__init__", "memory.kernel_build", _kernel_build_attrs),
    ("memory", "j_eval", "memory.j_eval", None),
    ("memory", "MemoryKernel.phase_integral", "memory.phase_integral", None),
    ("dynamics", "run_direct", "dynamics.run_direct", _run_direct_attrs),
    ("dynamics", "EnsembleNoise.block", "dynamics.noise", None),
    ("dynamics", "psi_spectral_mild", "dynamics.psi_spectral_mild", None),
    ("dynamics", "p0_volterra", "dynamics.p0_volterra", None),
    ("dynamics", "wave_field", "dynamics.wave_field", None),
    ("packets", "sample_initial", "packets.sample_initial", None),
    ("wigner", "scattering_fractions", "wigner.scattering_fractions", None),
    ("wigner", "production_profile", "wigner.production_profile", None),
    ("harness", "run_thermal_ensemble", "harness.ensemble", _ensemble_attrs),
)

# (defining module, attribute, counter prefix, count points of argument 1)
COUNTED = (
    ("lattice", "DispersionRelation.omega", "lattice.omega", True),
    ("lattice", "DispersionRelation.inverse_branch", "lattice.inverse_branch", False),
    ("scattering", "nu_laplace_limit", "scattering.nu_laplace_limit", False),
    ("scattering", "nu_pv", "scattering.nu_pv", False),
)

# FFTs are counted when the innermost open span on the calling thread is
# run_direct, i.e. the FFTs the integrator itself issues.
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft")
FFT_PARENT = "dynamics.run_direct"


class Tracer:
    """Install wrappers, record spans and counters, restore the originals."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[dict] = []
        self._thread_counters: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if main else []
        return stack

    def _counters(self) -> dict:
        counters = getattr(self._local, "counters", None)
        if counters is None:
            counters = self._local.counters = {}
            with self._lock:
                self._thread_counters.append(counters)
        return counters

    def _count(self, name: str, value) -> None:
        counters = self._counters()
        counters[name] = counters.get(name, 0) + value

    def _open(self, name: str) -> dict:
        stack = self._stack()
        with self._lock:
            # a pool worker's first span belongs to the span the submitting
            # (main) thread is blocked in
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            span = {"id": next(self._ids), "name": name, "run": self.run_id,
                    "parent": None if parent is None else parent["id"],
                    "thread": threading.get_ident(), "attrs": {},
                    "start": time.perf_counter(), "end": None}
        stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def counters(self) -> dict:
        """Per-thread counters summed; counts stay integers."""
        total: dict = {}
        with self._lock:
            for counters in self._thread_counters:
                for name, value in counters.items():
                    total[name] = total.get(name, 0) + value
        return total

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name, fn, hook):
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
                if hook is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span["attrs"] = hook(bound.arguments)
        return wrapper

    def _counted_wrapper(self, prefix, fn, points):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                counters = self._counters()
                counters[prefix + ".calls"] = counters.get(prefix + ".calls", 0) + 1
                counters[prefix + ".s"] = counters.get(prefix + ".s", 0.0) + elapsed
                if points:
                    n = int(np.size(args[1])) if len(args) > 1 else int(np.size(kwargs["k"]))
                    counters[prefix + ".points"] = counters.get(prefix + ".points", 0) + n
        return wrapper

    def _fft_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1]["name"] == FFT_PARENT:
                self._count("dynamics.fft_calls", 1)
            return fn(*args, **kwargs)
        return wrapper

    # -- install / restore ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        # remember whether the attribute lived in owner's own namespace, so
        # restore() can tell "put back" from "delete the shadowing copy"
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner)[attr] if had_own else _MISSING))
        setattr(owner, attr, value)

    def _replace(self, module_name: str, attr_path: str, make) -> None:
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        if "." in attr_path:
            cls_name, method = attr_path.split(".")
            cls = getattr(module, cls_name)
            self._set(cls, method, make(getattr(cls, method)))
            return
        original = getattr(module, attr_path)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if (name == PACKAGE or name.startswith(PACKAGE + ".")) and \
                    getattr(mod, attr_path, None) is original:
                self._set(mod, attr_path, wrapped)

    def install(self) -> "Tracer":
        importlib.import_module(f"{PACKAGE}.cli")   # loads every layer
        for module_name, attr, name, hook in SPANS:
            self._replace(module_name, attr,
                          lambda fn, name=name, hook=hook: self._span_wrapper(name, fn, hook))
        for module_name, attr, prefix, points in COUNTED:
            self._replace(module_name, attr,
                          lambda fn, prefix=prefix, points=points:
                          self._counted_wrapper(prefix, fn, points))
        for attr in FFT_FUNCTIONS:
            self._set(np.fft, attr, self._fft_wrapper(getattr(np.fft, attr)))
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


# -- metrics from spans -----------------------------------------------------------

def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        inside = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                  for c in children.get(s["id"], ())]
        inside = [(a, b) for a, b in inside if b > a]
        out[s["id"]] = (s["end"] - s["start"]) - covered(inside)
    return out


def _has_ancestor(span: dict, ancestor_id: int, by_id: dict) -> bool:
    parent = span["parent"]
    while parent is not None:
        if parent == ancestor_id:
            return True
        parent = by_id[parent]["parent"]
    return False


def layer_metrics(spans: list[dict], counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced sample, named as in BENCHMARK.json
    (all but trace.overhead_s, which needs an untraced sample too)."""
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def self_total(name):
        return sum(selfs[s["id"]] for s in named(name))

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in named(name))

    direct = named("dynamics.run_direct")
    direct_wall = covered([(s["start"], s["end"]) for s in direct])
    site_steps = attr_sum("dynamics.run_direct", "site_steps")
    busy = capacity = 0.0
    for ens in named("harness.ensemble"):
        capacity += ens["attrs"].get("threads", 1) * (ens["end"] - ens["start"])
        busy += sum(s["end"] - s["start"] for s in direct
                    if _has_ancestor(s, ens["id"], by_id))

    m = {}
    for _, _, prefix, points in COUNTED:
        m[prefix + ".calls"] = counters.get(prefix + ".calls", 0)
        m[prefix + ".s"] = counters.get(prefix + ".s", 0.0)
        if points:
            m[prefix + ".points"] = counters.get(prefix + ".points", 0)
    for _, _, name, _ in SPANS:
        m[name + ".s"] = total(name)
    m["memory.kernel_build.self_s"] = self_total("memory.kernel_build")
    m["memory.march_steps"] = attr_sum("memory.kernel_build", "march_steps")
    m["dynamics.run_direct.self_s"] = self_total("dynamics.run_direct")
    m["dynamics.site_steps"] = site_steps
    m["dynamics.site_steps_per_s"] = site_steps / direct_wall if direct_wall > 0 else 0.0
    m["dynamics.fft_calls"] = counters.get("dynamics.fft_calls", 0)
    m["dynamics.wave_field.calls"] = len(named("dynamics.wave_field"))
    m["harness.pool_busy_frac"] = busy / capacity if capacity > 0 else 0.0
    return m
