"""Outside-in tracing of the ringflow layers.

``install`` wraps every public function and method of every loaded ringflow
module and patches the wrapper in under every name that binds the original:
the modules import each other with ``from .x import y``, so
``ringflow.extrapolate.min_eigen`` and ``ringflow.eigen.min_eigen`` are two
names for one function and both must be replaced.  Each call then records a
span (name, start, end, parent span, thread).  Spans stay in memory.

Parents are tracked on a stack per thread.  Worker threads of the program's
thread pools start with the submitting thread's current span as their base,
so the points of a parallel sweep attach to the sweep that submitted them.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from stats import median


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped calls, from any thread."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._clock = clock
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None):
        """fn wrapped to record one span per call.

        attrs(args, kwargs, result) -> dict, if given, annotates spans of
        calls that returned.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = next(self._ids)
            span = Span(span_id, name, stack[-1] if stack else None,
                        threading.get_ident(), self._clock())
            stack.append(span_id)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = f"{type(exc).__name__}: {exc}"[:200]
                raise
            finally:
                span.end = self._clock()
                stack.pop()
                if span.error is None and attrs is not None:
                    span.attrs = attrs(args, kwargs, result)
                with self._lock:
                    self.spans.append(span)

        return traced

    def propagate(self, fn):
        """fn wrapped to run under the caller's current span, on any thread."""
        stack = self._stack()
        base = stack[-1:]

        def run(*args, **kwargs):
            saved = getattr(self._local, "stack", None)
            self._local.stack = list(base)
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.stack = saved

        return run


def _build_attrs(args, kwargs, result):
    return {"n": result.config.n_trunc}


def _eigen_attrs(args, kwargs, result):
    return {
        "n": result.n_trunc,
        "residual": result.residual_norm,
        "iterations": result.iterations,
    }


def _series_attrs(args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    return {"mode_samples": len(state.coeffs) * len(result.tau_samples)}


def _verify_attrs(args, kwargs, result):
    return {"failed": result}


ATTRS = {
    "kernel.build_kernel": _build_attrs,
    "eigen.min_eigen": _eigen_attrs,
    "state.current_series": _series_attrs,
    "verify.run_all": _verify_attrs,
}


def _public_callables(module):
    """(qualified name, owner, attribute, function) for every public function
    and method defined in module."""
    short = module.__name__.partition(".")[2]
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{short}.{attr}", module, attr, obj
        elif inspect.isclass(obj):
            for meth, fn in list(vars(obj).items()):
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield f"{short}.{attr}.{meth}", obj, meth, fn


def install(tracer: Tracer, package: str = "ringflow") -> Counter:
    """Patch traced wrappers in at every import site of the loaded package.

    Returns the number of names patched per wrapped function.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    if not modules:
        raise RuntimeError(f"{package} is not imported")

    class TracedThreadPoolExecutor(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.propagate(fn), *args, **kwargs)

    wrappers = {}
    sites = Counter()
    for module in modules:
        for qualname, owner, attr, fn in _public_callables(module):
            wrapper = tracer.wrap(qualname, fn, ATTRS.get(qualname))
            wrappers[fn] = (qualname, wrapper)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
                sites[qualname] += 1
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if obj is ThreadPoolExecutor:
                setattr(module, attr, TracedThreadPoolExecutor)
            elif inspect.isfunction(obj) and obj in wrappers:
                qualname, wrapper = wrappers[obj]
                setattr(module, attr, wrapper)
                sites[qualname] += 1
    return sites


def self_time(span: Span, children) -> float:
    """span's duration minus the part of it that its children cover.

    Children may overlap (parallel workers); overlapping parts count once.
    """
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered


# Which end-to-end metric each layer should move, on which workload; later
# performance changes cite these predictions by layer name.
LAYER_PREDICTIONS = {
    "kernel": "wall_s and peak_rss_mb on extrapolate-ref; wall_s on sweep; not oracles",
    "eigen": "wall_s and peak_rss_mb on extrapolate-ref; wall_s on sweep; "
             "guards oracles (ring route) and state-current",
    "extrapolate": "nothing: the fit is about 1 ms, not the bottleneck",
    "sweep": "cpu_s and wall_s on sweep (jobs x BLAS-thread oversubscription)",
    "state": "wall_s on state-current (series) and oracles (quadrature); "
             "not extrapolate-ref or sweep",
    "twomode": "wall_s on oracles only",
    "linelimit": "wall_s on oracles only",
    "verify": "wall_s on oracles only",
    "cli": "nothing: output writing is under 2% everywhere",
    "manifest": "nothing: digests are under 2% everywhere",
}

# Truncation sizes reported one by one, with the dense baseline measured on a
# 2-core OpenBLAS box (build_kernel ms, min_eigen ms).
PER_N_BASELINE = {1000: (68.0, 65.0), 2000: (222.0, 428.0), 3000: (575.0, 1322.0)}


def layer_metrics(spans) -> dict:
    """Per-layer counts and times of one workload pass."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def total(name):
        return sum(s.duration for s in by_name[name])

    def total_self(names):
        return sum(self_time(s, children[s.id]) for n in names for s in by_name[n])

    builds = by_name["kernel.build_kernel"]
    solves = by_name["eigen.min_eigen"]
    iterations = [s.attrs["iterations"] for s in solves
                  if s.attrs.get("iterations") not in (None, -1)]
    sweeps = by_name["sweep.sweep_alpha"]
    sweep_ids = {s.id for s in sweeps}
    points = [s.duration for s in by_name["extrapolate.extrapolated_infimum"]
              if s.parent in sweep_ids]
    sweep_wall = sum(s.duration for s in sweeps)
    cli_commands = [n for n in by_name if n.startswith("cli.cmd_")]
    writers = ("state.write_state_csv", "state.write_series_csv", "manifest.RunManifest.write")

    metrics = {
        "kernel.build_calls": len(builds),
        "kernel.build_s": total("kernel.build_kernel"),
        "kernel.build_bytes": sum(8 * (s.attrs["n"] + 1) ** 2 for s in builds),
        "kernel.current_calls": len(by_name["kernel.integrated_current"]),
        "kernel.current_s": total("kernel.integrated_current"),
        "eigen.calls": len(solves),
        "eigen.s": total("eigen.min_eigen"),
        "eigen.n_max": max((s.attrs["n"] for s in solves), default=0),
        "eigen.iterations": sum(iterations),
        "eigen.iterations_reported": len(iterations),
        "eigen.residual_max": max((s.attrs["residual"] for s in solves), default=0.0),
        "extrapolate.calls": len(by_name["extrapolate.extrapolated_infimum"]),
        "extrapolate.self_s": total_self(["extrapolate.extrapolated_infimum"]),
        "extrapolate.fit_s": total("extrapolate.fit_quadratic"),
        "sweep.points": len(points),
        "sweep.point_s_p50": median(points) if points else 0.0,
        "sweep.point_s_max": max(points, default=0.0),
        "sweep.parallelism": sum(points) / sweep_wall if sweep_wall else 0.0,
        "sweep.self_s": total_self(["sweep.sweep_alpha"]),
        "state.maximize_s": total("state.maximizing_state"),
        "state.series_calls": len(by_name["state.current_series"]),
        "state.series_s": total("state.current_series"),
        "state.series_mode_samples": sum(
            s.attrs["mode_samples"] for s in by_name["state.current_series"]),
        "state.quadrature_s": total("state.time_quadrature_p"),
        "twomode.global_s": total("twomode.global_two_mode_min"),
        "linelimit.nystrom_s": total("linelimit.line_limit_min"),
        "linelimit.ring_route_s": total("linelimit.ring_small_alpha_limit"),
        "verify.s": total("verify.run_all"),
        "verify.checks_failed": sum(s.attrs["failed"] for s in by_name["verify.run_all"]),
        "cli.write_s": total_self(cli_commands) + sum(total(n) for n in writers),
        "manifest.sha256_s": total("manifest.sha256_of"),
        "trace.spans": len(spans),
    }
    per_n = per_n_times(spans)
    for n in PER_N_BASELINE:
        build_s, eigen_s = per_n.get(n, (0.0, 0.0))
        metrics[f"kernel.build_s.n{n}"] = build_s
        metrics[f"eigen.s.n{n}"] = eigen_s
    return metrics


def per_n_times(spans) -> dict[int, tuple[float, float]]:
    """Truncation size -> (kernel build seconds, eigensolve seconds), summed."""
    out = defaultdict(lambda: [0.0, 0.0])
    for s in spans:
        if s.name == "kernel.build_kernel" and "n" in s.attrs:
            out[s.attrs["n"]][0] += s.duration
        elif s.name == "eigen.min_eigen" and "n" in s.attrs:
            out[s.attrs["n"]][1] += s.duration
    return {n: tuple(v) for n, v in sorted(out.items())}


def call_counts(spans) -> Counter:
    return Counter(s.name for s in spans)
