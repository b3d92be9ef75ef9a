"""Spans around the public entry points of each module, installed from outside the package.

:func:`install` replaces each traced function on the module where it is
defined and on every module that imported it by name, so calls between
modules pass through the wrapper.  Each call records a span (name, start,
end, parent) and counts read from its arguments or returned arrays.  Spans
stay in memory; :func:`layer_metrics` turns them into per-layer counts and
self times once the pass is over.

Pool workers run in other processes, so their spans are never seen here: the
kernel spans must come from a ``workers=1`` pass, and the ``process.pool``
span only measures the pool from the parent's side.
"""

from __future__ import annotations

import functools
import resource
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

ROOT = "pass"

# Per-layer fields reported for each span name.  "ns_per_<unit>" is the
# layer's self time over its "<unit>s" count; "s" and "live_s" are inclusive
# durations; counts whose key starts or ends with "max" aggregate by maximum.
LAYERS = {
    "heavytail.sample_joint": ("calls", "draws", "self_s", "ns_per_draw"),
    "heavytail.mark_sample": ("draws", "self_s", "ns_per_draw"),
    "heavytail.theoretical_denominator": ("calls", "points", "self_s"),
    "heavytail.joint_tail_mc": ("calls", "draws", "self_s", "cache_hits"),
    "clusters.batch_functionals": (
        "calls", "clusters", "points", "self_s", "ns_per_point", "max_cluster_size",
    ),
    "process.batch_windows": (
        "calls", "windows", "points", "leftover_points", "self_s", "ns_per_point",
    ),
    "process.estimate_mean_sum": ("s", "self_s"),
    "process.pool": ("spawns", "live_s", "worker_cpu_s", "util"),
    "ldp.sweep": ("calls", "horizons", "self_s"),
    "estimate.tail_sample": ("values", "self_s"),
    "estimate.ratio_curve": ("self_s",),
    "estimate.hill": ("self_s",),
    "estimate.laplace": ("self_s",),
    "oracle.exact": ("self_s",),
    "oracle.sample": ("draws", "self_s"),
    "oracle.hawkes_bracket": ("calls", "self_s", "width_max"),
    "cli.run": ("calls",),
}
TRACE_FIELDS = ("wall_s", "self_sum_s", "overhead_s")


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name: str, parent: int | None, start: float = 0.0, end: float = 0.0, counts=None):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.counts = counts if counts is not None else {}

    def to_json(self) -> list:
        return [self.name, self.parent, self.start, self.end, self.counts]


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value) -> None:
        """Add to a count of the innermost open span."""
        counts = self.spans[self._stack[-1]].counts
        counts[key] = counts.get(key, 0) + value

    def wrap(self, name: str, fn, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if measure is not None:
                try:
                    span.counts.update(measure(args, kwargs, out))
                except (AttributeError, TypeError, IndexError, KeyError, ValueError):
                    self.counters["trace.measure_errors"] += 1
            return out

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def _aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    agg: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        keys = [span.name]
        tag = span.counts.get("tag")
        if tag:
            keys.append(f"{span.name}.{tag}")
        for key in keys:
            a = agg[key]
            a["calls"] += 1
            a["self_s"] += own
            a["total_s"] += span.end - span.start
            for k, v in span.counts.items():
                if k == "tag":
                    continue
                if k.startswith("max") or k.endswith("max"):
                    a[k] = max(a[k], v)
                else:
                    a[k] += v
    return agg


def _ns_per(a, unit: str) -> float:
    n = a[unit + "s"]
    return a["self_s"] * 1e9 / n if n else 0.0


def _field(a, field: str) -> float:
    if field.startswith("ns_per_"):
        return _ns_per(a, field[len("ns_per_"):])
    if field in ("s", "live_s"):
        return a["total_s"]
    if field == "cache_hits":
        # "hooked" marks calls made while the cache-miss hook was installed
        return a["hooked"] - a["computes"]
    if field == "util":
        return a["worker_cpu_s"] / a["slot_s"] if a["slot_s"] else 0.0
    return a[field]


def metric_names(horizons) -> list[str]:
    """Every per-layer metric name, in report order."""
    names = ["rng.generators"]
    for layer, fields in LAYERS.items():
        names += [f"{layer}.{f}" for f in fields]
    names += [f"process.batch_windows.T{h:g}.ns_per_point" for h in horizons]
    names.append("cli.self_s")
    names += [f"trace.{f}" for f in TRACE_FIELDS]
    return names


def layer_metrics(spans: list[Span], counters: dict[str, int], horizons) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass.

    ``trace.overhead_s`` needs an untraced pass and is left at 0 here.
    """
    agg = _aggregate(spans)
    empty = defaultdict(float)
    out = {"rng.generators": counters.get("rng.generators", 0)}
    for layer, fields in LAYERS.items():
        a = agg.get(layer, empty)
        for f in fields:
            out[f"{layer}.{f}"] = _field(a, f)
    for h in horizons:
        out[f"process.batch_windows.T{h:g}.ns_per_point"] = _ns_per(
            agg.get(f"process.batch_windows.T{h:g}", empty), "point"
        )
    out["cli.self_s"] = agg.get("cli.run", empty)["self_s"]
    roots = [s for s in spans if s.name == ROOT]
    wall = sum(s.end - s.start for s in roots)
    root_self = agg.get(ROOT, empty)["self_s"]
    out["trace.wall_s"] = wall
    out["trace.self_sum_s"] = wall - root_self
    out["trace.overhead_s"] = 0.0
    return {k: float(v) for k, v in out.items()}


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def install(tracer: Tracer) -> list[str]:
    """Wrap the package's entry points; returns the hooks this commit lacks."""
    import numpy as np
    from cluster_tails import cli, clusters, estimate, heavytail, ldp, oracle, process, rng

    missing: list[str] = []

    def patch(layer, attr, modules, measure=None):
        owners = [m for m in modules if hasattr(m, attr)]
        if not owners:
            missing.append(f"{modules[0].__name__}.{attr}")
            return
        traced = tracer.wrap(layer, getattr(owners[0], attr), measure)
        for m in owners:
            setattr(m, attr, traced)

    patch("cli.run", "run", [cli])
    patch("heavytail.sample_joint", "sample_joint", [heavytail, process, clusters],
          lambda a, k, out: {"draws": int(np.size(out[0]))})
    for law in ("ParetoLaw", "Exponential", "Constant", "BoundedUniform"):
        cls = getattr(heavytail, law, None)
        if cls is None:
            missing.append(f"heavytail.{law}")
            continue
        cls.sample = tracer.wrap("heavytail.mark_sample", cls.sample,
                                 lambda a, k, out: {"draws": int(np.size(out))})
    patch("heavytail.theoretical_denominator", "theoretical_denominator", [heavytail, ldp, estimate],
          lambda a, k, out: {"points": int(np.size(out))})
    compute = getattr(heavytail, "_oracle_compute", None)
    patch("heavytail.joint_tail_mc", "joint_tail_mc", [heavytail],
          (lambda a, k, out: {"hooked": 1}) if compute is not None else None)
    if compute is not None:
        # only runs on a cache miss; a joint_tail_mc call without it was a hit
        @functools.wraps(compute)
        def counted_compute(*args, **kwargs):
            spec = args[3] if len(args) > 3 else kwargs.get("spec")
            tracer.add("computes", 1)
            tracer.add("draws", getattr(spec, "size", 0))
            return compute(*args, **kwargs)

        heavytail._oracle_compute = counted_compute

    patch("clusters.batch_functionals", "batch_functionals", [clusters, cli],
          lambda a, k, out: {"clusters": len(out), "points": int(out.sizes.sum()),
                             "max_cluster_size": int(out.sizes.max())})

    def windows(args, kwargs, out):
        config = args[0] if args else kwargs["config"]
        left = int(out.j_leftover.sum())
        return {"windows": len(out), "points": int(out.n_events.sum()) + left,
                "leftover_points": left, "tag": f"T{config.horizon:g}"}

    patch("process.batch_windows", "batch_windows", [process, ldp], windows)
    patch("process.estimate_mean_sum", "estimate_mean_sum", [process, ldp])
    sweep_horizons = lambda a, k, out: {"horizons": len((a[0] if a else k["config"]).horizons)}
    for attr in ("ldp_max_sweep", "ldp_sum_sweep", "leftover_scaling"):
        patch("ldp.sweep", attr, [ldp, cli], sweep_horizons)

    ts = estimate.TailSample
    ts.from_values = classmethod(tracer.wrap("estimate.tail_sample", ts.from_values.__func__,
                                             lambda a, k, out: {"values": out.n}))
    patch("estimate.ratio_curve", "ratio_curve", [estimate, cli])
    patch("estimate.hill", "hill_estimator", [estimate, cli])
    patch("estimate.laplace", "laplace_derivative_table", [estimate, cli])
    patch("estimate.laplace", "tauberian_slope", [estimate, cli])

    for attr in ("exact_renewal_max_tail", "exact_renewal_sum_tail",
                 "exact_renewal_max_distribution", "exact_renewal_sum_distribution"):
        patch("oracle.exact", attr, [oracle, cli])
    patch("oracle.sample", "sample_renewal_functionals", [oracle, cli],
          lambda a, k, out: {"draws": len(out[0])})
    patch("oracle.hawkes_bracket", "truncated_hawkes_sum_tail", [oracle, cli],
          lambda a, k, out: {"width_max": out[1] - out[0]})

    generator = rng.RngStream.generator

    def counted_generator(self):
        if self._gen is None:
            tracer.counters["rng.generators"] += 1
        return generator.fget(self)

    rng.RngStream.generator = property(counted_generator, doc=generator.__doc__)

    class TracedPool(ProcessPoolExecutor):
        """A process pool that records its lifetime and its workers' CPU time."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._bench_cpu0 = _children_cpu()
            self._bench_span = tracer.open("process.pool")

        def shutdown(self, wait=True, *, cancel_futures=False):
            span, self._bench_span = self._bench_span, None
            spawned = len(getattr(self, "_processes", None) or ())
            super().shutdown(wait=wait, cancel_futures=cancel_futures)
            if span is not None:
                tracer.close(span)
                span.counts.update(
                    spawns=spawned,
                    worker_cpu_s=_children_cpu() - self._bench_cpu0,
                    slot_s=(span.end - span.start) * self._max_workers,
                )

    for m in (process, clusters):
        if hasattr(m, "ProcessPoolExecutor"):
            m.ProcessPoolExecutor = TracedPool
        else:
            missing.append(f"{m.__name__}.ProcessPoolExecutor")
    return missing
