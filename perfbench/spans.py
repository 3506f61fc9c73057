"""Span recording around mdgsp's public functions, installed from outside it.

`install` replaces each function listed in `TARGETS` at every module
binding that holds it (a name imported with `from .x import f` is a second
binding of the same object), so calls from the CLI and from other modules
are both seen. A listed function that cannot be found stops the traced run
with `TraceError`, so a refactor that moves one breaks the benchmark
visibly instead of silently dropping a layer.

Spans are kept in memory: name, start, end, parent span, job and a few
attributes. A span's self time is its duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import os
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field


class TraceError(RuntimeError):
    pass


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    job: tuple | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "job": list(self.job) if self.job else None,
                "attrs": self.attrs}


def _count_arg(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs, result: {
        "samples": int(sig.bind(*args, **kwargs).arguments["count"])}


def _fingerprint(args, kwargs, result):
    m = args[0]
    return {"matrix": hashlib.sha1(m.tobytes()).hexdigest() + str(m.shape)}


def _gft_flops(args, kwargs, result):
    n1, n2 = args[0].shape
    return {"flops": 2 * n1 * n2 * (n1 + n2)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _solve_attrs(args, kwargs, result):
    return {"iterations": int(result.iterations), "method": result.method}


@dataclass(frozen=True)
class Target:
    span: str
    module: str
    attr: str  # may be "Class.method"
    attrs: object = None  # (args, kwargs, result) -> dict, or a factory taking the original
    peak: bool = False  # record tracemalloc peak inside the span


TARGETS = (
    Target("cli.main", "mdgsp.cli", "main"),
    Target("graphs.load_graph", "mdgsp.graphs", "load_graph"),
    Target("spectral.eigenbasis", "mdgsp.spectral", "eigenbasis", _fingerprint),
    Target("spectral.eigh_raw", "numpy.linalg", "eigh"),
    Target("transforms.load_signal", "mdgsp.transforms", "load_signal"),
    Target("transforms.gft_2d", "mdgsp.transforms", "gft_2d", _gft_flops),
    Target("transforms.inverse_gft_2d", "mdgsp.transforms", "inverse_gft_2d"),
    Target("transforms.aggregate_to_1d", "mdgsp.transforms", "aggregate_to_1d",
           lambda a, k, r: {"groups": len(r.groups)}),
    Target("transforms.aggregate_to_csv", "mdgsp.transforms", "aggregate_to_csv",
           lambda a, k, r: {"bytes": len(r.encode())}),
    Target("transforms.save_spectrum", "mdgsp.transforms", "save_spectrum", _file_bytes),
    Target("transforms.save_signal", "mdgsp.transforms", "save_signal", _file_bytes),
    Target("render.spectrum_heatmap_svg", "mdgsp.render", "spectrum_heatmap_svg"),
    Target("filtering.spectral_filter_2d", "mdgsp.filtering", "spectral_filter_2d"),
    Target("filtering.polynomial_filter_vertex", "mdgsp.filtering", "polynomial_filter_vertex"),
    Target("variation.total_directional_variation", "mdgsp.variation",
           "total_directional_variation"),
    Target("variation.local_variation_matrix", "mdgsp.variation", "local_variation_matrix",
           peak=True),
    Target("denoise.ebem_energy", "mdgsp.denoise", "ebem_energy", peak=True),
    Target("denoise.ebem_minimize", "mdgsp.denoise", "ebem_minimize", _solve_attrs),
    Target("stationarity.noise", "mdgsp.stationarity", "WhiteNoise2D.batch",
           _count_arg),
    Target("stationarity.sample_fgw", "mdgsp.stationarity", "sample_fgw", _count_arg),
    Target("stationarity.sample_directional", "mdgsp.stationarity", "sample_directional",
           _count_arg),
    Target("stationarity.estimate_cov", "mdgsp.stationarity", "estimate_cov"),
    Target("stationarity.test_fgw_stationarity", "mdgsp.stationarity",
           "test_fgw_stationarity"),
    Target("stationarity.test_directional_stationarity", "mdgsp.stationarity",
           "test_directional_stationarity"),
)


class Recorder:
    """Collects spans from every thread; the job tag is set by the caller.

    A span opened on a worker thread with no open span of its own takes the
    innermost open span of the main thread as parent, so the solves of a
    gamma sweep count as children of the CLI call that started the pool.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.job: tuple | None = None
        self._ids = itertools.count()
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._malloc_users = 0

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str, **attrs) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = Span(next(self._ids), name, time.perf_counter(),
                    parent.id if parent else None, self.job, attrs=attrs)
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().remove(span)

    def _malloc_enter(self) -> int:
        with self._lock:
            if self._malloc_users == 0:
                tracemalloc.start()
            self._malloc_users += 1
        return tracemalloc.get_traced_memory()[0]

    def _malloc_exit(self, base: int) -> float:
        # Concurrent spans share one trace, so a span's peak includes what
        # other threads held at the time.
        peak = tracemalloc.get_traced_memory()[1]
        with self._lock:
            self._malloc_users -= 1
            if self._malloc_users == 0:
                tracemalloc.stop()
        return (peak - base) / 2**20

    def wrap(self, target: Target, fn):
        attrs = target.attrs
        if attrs is _count_arg:
            attrs = _count_arg(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(target.span)
            base = self._malloc_enter() if target.peak else 0
            try:
                result = fn(*args, **kwargs)
            finally:
                if target.peak:
                    span.attrs["peak_mb"] = self._malloc_exit(base)
                self.close(span)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        return wrapper


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mdgsp" or name.startswith("mdgsp."))]


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every target at every binding; return what `uninstall` restores."""
    patched: list[tuple[object, str, object]] = []
    try:
        for target in TARGETS:
            try:
                owner = importlib.import_module(target.module)
                *path, attr = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError) as exc:
                raise TraceError(f"traced function {target.module}.{target.attr} "
                                 f"not found: {exc}") from None
            wrapper = rec.wrap(target, original)
            owners = {id(owner): owner}
            owners.update((id(m), m) for m in _package_modules())
            for holder in owners.values():
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)
                        patched.append((holder, name, original))
    except TraceError:
        uninstall(patched)
        raise
    return patched


def uninstall(patched: list[tuple[object, str, object]]) -> None:
    for holder, name, original in reversed(patched):
        setattr(holder, name, original)


# ------------------------------------------------------------ analysis


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the union of child intervals, per span id."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


# Layers predicted to take most of one job's busy time (reported, never gated).
PREDICTIONS = (
    ("gft", ("transforms.aggregate_to_1d", "transforms.aggregate_to_csv",
             "transforms.save_spectrum", "render.spectrum_heatmap_svg")),
    ("denoise_sweep", ("denoise.ebem_energy",)),
    ("stationarity_fgw", ("stationarity.noise",)),
)

PER_LAYER_UNITS = {
    "graphs.load_graph.s": "s",
    "cli.main.self_s": "s",
    "spectral.eigenbasis.s": "s",
    "spectral.eigenbasis.calls": "count",
    "spectral.eigenbasis.distinct_ratio": "ratio",
    "spectral.eigh_raw.s": "s",
    "spectral.eigenbasis.overhead_ratio": "ratio",
    "transforms.load_signal.s": "s",
    "transforms.gft_2d.s": "s",
    "transforms.gft_2d.gflops": "GFLOP/s",
    "transforms.inverse_gft_2d.s": "s",
    "transforms.aggregate_to_1d.s": "s",
    "transforms.aggregate_to_1d.groups": "count",
    "transforms.aggregate_to_csv.s": "s",
    "transforms.save_spectrum.s": "s",
    "transforms.save_signal.s": "s",
    "transforms.bytes_written": "B",
    "render.spectrum_heatmap_svg.s": "s",
    "filtering.spectral_filter_2d.s": "s",
    "filtering.polynomial_filter_vertex.s": "s",
    "variation.total_directional_variation.s": "s",
    "variation.local_variation_matrix.s": "s",
    "variation.local_variation_matrix.peak_mb": "MB",
    "denoise.ebem_energy.s": "s",
    "denoise.ebem_energy.calls": "count",
    "denoise.ebem_energy.peak_mb": "MB",
    "denoise.ebem_minimize.self_s": "s",
    "denoise.smooth.iterations": "count",
    "denoise.q1.iterations": "count",
    "denoise.energy_evals_per_iter": "ratio",
    "stationarity.noise.s": "s",
    "stationarity.sample_fgw.self_s": "s",
    "stationarity.sample_directional.self_s": "s",
    "stationarity.estimate_cov.s": "s",
    "stationarity.test_fgw_stationarity.s": "s",
    "stationarity.test_directional_stationarity.s": "s",
    "stationarity.samples_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[Span], passes: int) -> tuple[dict, list[dict]]:
    """Per-layer metrics per traced pass, and the dominance predictions.

    Times are self times summed over the traced passes, divided by their
    count. A ratio whose base is zero on a workload (the layer never ran)
    reads 0. `trace.overhead_ratio` is filled in by the caller.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name, key=None):
        if key is None:
            return sum(own[s.id] for s in by_name.get(name, ()))
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    def inclusive(name):
        return sum(s.end - s.start for s in by_name.get(name, ()))

    def calls(name, jobs=None):
        return sum(1 for s in by_name.get(name, ()) if jobs is None or s.job[1] in jobs)

    def iterations(job):
        return sum(s.attrs["iterations"] for s in by_name.get("denoise.ebem_minimize", ())
                   if s.job[1] == job)

    per_job_bases: dict[tuple, set] = {}
    for s in by_name.get("spectral.eigenbasis", ()):
        per_job_bases.setdefault(s.job, set()).add(s.attrs["matrix"])
    distinct = sum(len(v) for v in per_job_bases.values())
    sampled = total("stationarity.sample_fgw", "samples") + total(
        "stationarity.sample_directional", "samples")
    solve_jobs = ("denoise_smooth", "denoise_q1")
    m = {name: 0.0 for name in PER_LAYER_UNITS}
    for name in PER_LAYER_UNITS:
        layer, _, kind = name.rpartition(".")
        if kind in ("s", "self_s") and layer in by_name:
            m[name] = total(layer) / passes
    m.update({
        "spectral.eigenbasis.calls": calls("spectral.eigenbasis") / passes,
        "spectral.eigenbasis.distinct_ratio": _ratio(distinct, calls("spectral.eigenbasis")),
        "spectral.eigenbasis.overhead_ratio": _ratio(total("spectral.eigenbasis"),
                                                     total("spectral.eigh_raw")),
        "transforms.gft_2d.gflops": _ratio(total("transforms.gft_2d", "flops"),
                                           inclusive("transforms.gft_2d")) / 1e9,
        "transforms.aggregate_to_1d.groups": total("transforms.aggregate_to_1d",
                                                   "groups") / passes,
        "transforms.bytes_written": sum(total(n, "bytes") for n in (
            "transforms.save_spectrum", "transforms.save_signal",
            "transforms.aggregate_to_csv")) / passes,
        "variation.local_variation_matrix.peak_mb": max(
            (s.attrs["peak_mb"] for s in by_name.get("variation.local_variation_matrix", ())),
            default=0.0),
        "denoise.ebem_energy.calls": calls("denoise.ebem_energy") / passes,
        "denoise.ebem_energy.peak_mb": max(
            (s.attrs["peak_mb"] for s in by_name.get("denoise.ebem_energy", ())), default=0.0),
        "denoise.smooth.iterations": iterations("denoise_smooth") / passes,
        "denoise.q1.iterations": iterations("denoise_q1") / passes,
        "denoise.energy_evals_per_iter": _ratio(
            calls("denoise.ebem_energy", solve_jobs),
            sum(iterations(j) for j in solve_jobs)),
        "stationarity.samples_per_s": _ratio(sampled, inclusive("stationarity.sample_fgw")
                                             + inclusive("stationarity.sample_directional")),
    })

    predictions = []
    for job, layers in PREDICTIONS:
        job_spans = [s for s in spans if s.job and s.job[1] == job and s.name != "job"]
        if not job_spans:
            continue
        share: dict[str, float] = {}
        for s in job_spans:
            share[s.name] = share.get(s.name, 0.0) + own[s.id]
        busy = sum(share.values())
        named = sum(share.get(n, 0.0) for n in layers)
        predictions.append({
            "job": job, "layers": list(layers), "share": _ratio(named, busy),
            "top_layer": max(share, key=share.get), "holds": _ratio(named, busy) > 0.5,
        })
    return m, predictions
