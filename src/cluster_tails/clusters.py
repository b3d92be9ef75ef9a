"""Cluster parameters, batch cluster functionals and the chunk engine.

Two cluster shapes exist: renewal clusters carry a single generation of K
offspring at renewal times, Hawkes clusters are the full progeny forest of a
subcritical branching cascade.  The functionals of interest depend only on
marks, never on event times, which is what makes the vectorized batch path
legitimate: it skips drawing times entirely.  :func:`functional_chunks`
yields the functionals chunk by chunk, so a caller that folds each chunk
into what it reads never holds n clusters; :func:`batch_functionals` joins
the same chunks into arrays of n.  No Hawkes cluster is grown node by node:
a HawkesLightIntensity cluster, whose marks are i.i.d. and independent of
kappa, draws its size from the exact law of its total progeny (or, with
E[kappa] too near 1 for that law's table, grows its size by generation
totals) and then its marks, as a renewal cluster does; a
HawkesComonotoneIntensity one grows by generation totals, one Poisson draw
per cluster and generation.  The window kernels of
:mod:`cluster_tails.process`, which do draw times, keep their own
node-by-node generation loop.
"""

from __future__ import annotations

import ctypes
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .errors import ClusterOverflow, ModelError
from .heavytail import (
    JointMarkModel,
    LightLaw,
    _hawkes_size_table,
    _invert,
    model_constants,
    sample_joint,
)
from .rng import RngStream

__all__ = [
    "RenewalParams",
    "HawkesParams",
    "FUNCTIONALS",
    "FunctionalSample",
    "functional_chunks",
    "batch_functionals",
    "chunked_fill",
    "chunked_map",
]

DEFAULT_MAX_CLUSTER_EVENTS = 1_000_000


@dataclass(frozen=True)
class RenewalParams:
    """Inter-event waiting-time law for the renewal chain.

    Only the light laws are accepted: the mean event count of a window needs
    E[(t - S_r)^+] for the sum S_r of r waits in closed form.
    """

    waiting_law: LightLaw

    def __post_init__(self) -> None:
        if not isinstance(self.waiting_law, LightLaw):
            raise ModelError(
                "waiting law must be exponential, constant or uniform", "waiting_law"
            )


@dataclass(frozen=True)
class HawkesParams:
    """Exponential fertility profile h(t) = kappa * decay_rate * exp(-decay_rate t).

    The profile integrates to kappa exactly, whatever the decay rate; timing
    never enters the max/sum functionals.  ``max_cluster_events`` is a guard
    against (near-)critical configurations, not a truncation device.
    """

    decay_rate: float = 1.0
    max_cluster_events: int = DEFAULT_MAX_CLUSTER_EVENTS

    def __post_init__(self) -> None:
        if self.decay_rate <= 0:
            raise ModelError("decay_rate must be positive", "decay_rate")
        if self.max_cluster_events < 1:
            raise ModelError("max_cluster_events must be >= 1", "max_cluster_events")


# ---------------------------------------------------------------------------
# Vectorized batch generation


# the cluster functionals: the max H, the sum D and the total size
FUNCTIONALS = ("h", "d", "sizes")


@dataclass
class FunctionalSample:
    """n i.i.d. cluster functionals as parallel arrays (H, D, total size).

    A functional that was not asked for is None.
    """

    n: int
    h: np.ndarray | None = None
    d: np.ndarray | None = None
    sizes: np.ndarray | None = None

    def __len__(self) -> int:
        return self.n


def _renewal_functionals(x: np.ndarray, k: np.ndarray, marks: np.ndarray, fields) -> dict:
    """The ``fields`` of renewal clusters: immigrant marks ``x``, then ``k[i]`` offspring marks each.

    The sizes are made in ``k``'s array, so it is overwritten when they are kept.
    """
    seg = np.repeat(np.arange(len(x)), k)
    out = {}
    if "d" in fields:
        # with no offspring mark at all, bincount counts in int64 instead of weighing in float64
        out["d"] = d = np.bincount(seg, weights=marks, minlength=len(x)).astype(float, copy=False)
        d += x
    if "h" in fields:
        out["h"] = h = x.astype(float)
        np.maximum.at(h, seg, marks)
    if "sizes" in fields:
        out["sizes"] = k
        k += 1
    return out


def _renewal_chunk(model: JointMarkModel, n: int, rng: RngStream, fields):
    gen = rng.generator
    x, k = sample_joint(model, gen, gen, n)
    k = np.asarray(k, dtype=np.int64)
    total = int(k.sum())
    marks = np.asarray(model.mark_law.sample(gen, total))
    return _renewal_functionals(x, k, marks, fields)


def _overflow_check(grown: np.ndarray, clusters, max_events: int) -> None:
    """Raise :class:`ClusterOverflow` for the first largest of ``grown`` past ``max_events``, counted in ``clusters``."""
    worst = int(grown.argmax())
    if grown[worst] > max_events:
        raise ClusterOverflow(int(clusters[worst]), max_events)


def _grown_sizes(gen: np.random.Generator, brood: np.ndarray, children_mean, max_events: int) -> np.ndarray:
    """The sizes of Hawkes clusters grown one generation at a time from their first ``brood``, in its array.

    ``children_mean(live, nodes)`` draws what the ``nodes`` of each live
    cluster's newest generation need and gives their mean number of
    children: its next generation is one Poisson draw (superposition).  A
    cluster whose running size passes ``max_events`` raises, the first
    largest, before its next generation is drawn.
    """
    sizes = brood
    live = np.flatnonzero(brood)
    brood = brood[live]
    sizes += 1
    _overflow_check(sizes, range(sizes.size), max_events)
    while live.size:
        brood = gen.poisson(children_mean(live, brood))
        grown = sizes[live] + brood
        sizes[live] = grown
        _overflow_check(grown, live, max_events)
        kept = np.flatnonzero(brood)
        live, brood = live[kept], brood[kept]
    return sizes


def _kappa_totals(model: JointMarkModel, gen: np.random.Generator, live, nodes: np.ndarray) -> np.ndarray:
    """The kappas of each HawkesLightIntensity cluster's ``nodes`` newest nodes, drawn and summed."""
    kappa = sample_joint(model, None, gen, int(nodes.sum())).count
    return np.add.reduceat(kappa, np.cumsum(nodes) - nodes)


def _hawkes_light_chunk(model: JointMarkModel, n: int, rng: RngStream, max_events: int, fields):
    """HawkesLightIntensity clusters: each size S by inversion of one uniform, then S i.i.d. marks.

    The marks are i.i.d. and independent of kappa, so a cluster's (H, D, S)
    is a renewal cluster's with S - 1 offspring.  A size past
    ``max_events`` raises before any mark is drawn.  Where S has no table
    (E[kappa] too near 1), the sizes are grown by generation totals.
    """
    gen = rng.generator
    table = _hawkes_size_table(model, max_events)
    if table is None:
        first = gen.poisson(sample_joint(model, None, gen, n).count)
        k = _grown_sizes(gen, first, partial(_kappa_totals, model, gen), max_events)
    else:
        k = _invert(*table, gen.random(n)).astype(np.int64)
        _overflow_check(k, range(n), max_events)
    if "h" not in fields and "d" not in fields:
        return {"sizes": k} if fields else {}
    k -= 1
    x = model.mark_law.sample(gen, n)
    marks = model.mark_law.sample(gen, int(k.sum()))
    return _renewal_functionals(x, k, marks, fields)


def _hawkes_comonotone_chunk(model: JointMarkModel, n: int, rng: RngStream, max_events: int, fields):
    """HawkesComonotoneIntensity clusters, grown one generation at a time by generation totals.

    A node with mark X has Poisson(r X) children, independently, so a
    generation whose marks sum to D has Poisson(r D) children in all
    (superposition), each with an i.i.d. mark: one Poisson draw per
    cluster still growing, then its children's marks.  A cluster whose
    running size passes ``max_events`` raises, the first largest, before
    its generation's marks are drawn.
    """
    gen = rng.generator
    r = model.kappa_of_mark_factor()
    x = model.mark_law.sample(gen, n)
    # D grows in x's array once x has drawn the first generation, and x is let go of then
    out = {f: x if f == "d" else x.copy() for f in ("h", "d") if f in fields}
    h, d = out.get("h"), out.get("d")

    def mark_totals(live, nodes):
        marks = model.mark_law.sample(gen, int(nodes.sum()))
        starts = np.cumsum(nodes) - nodes
        if h is not None:
            top = np.maximum.reduceat(marks, starts)
            h[live] = np.maximum(top, h[live], out=top)
        total = np.add.reduceat(marks, starts)
        del marks, starts  # before D's update copies d[live]
        if d is not None:
            d[live] += total
        return total * r

    first = gen.poisson(x * r)
    del x
    sizes = _grown_sizes(gen, first, mark_totals, max_events)
    if "sizes" in fields:
        out["sizes"] = sizes
    return out


# the most memory one chunk's working set may take: see _chunk_size
_CHUNK_BYTES = 8 << 20

# a renewal cluster chunk's tracemalloc peak, all three functionals kept:
# x, K, H and D per cluster, the segment index and mark per offspring.
# Measured at 64.1 B per cluster at Poisson(2) counts and 89.2 to 90.5 at
# ceil(Pareto(1.5)) counts (E[K] = 3.61), 2**17 clusters.  A
# HawkesLightIntensity chunk is drawn as a renewal one with S - 1
# offspring: 32.1 B per cluster at E[kappa] = 0, 48.3 at 0.5 and 177.6 at
# 0.9, 2**16 clusters, for each of the three intensity laws; with the sizes
# grown (no table), 530 to 564 B at 0.97 (8,192 clusters) and 1,333 to 1,926
# at 0.99 (4,096)
_RENEWAL_CLUSTER_BYTES, _RENEWAL_OFFSPRING_BYTES = 34, 16
# a HawkesComonotoneIntensity chunk's: X, H, the sizes and the first
# generation's broods per cluster, then that generation's children
# (E[kappa] per cluster), the largest.  Measured at 33.0 B per cluster for
# E[kappa] = 0.25, 40.0 at 0.5, 45.9 at 0.75 and 49.1 at 0.9, 2**16
# clusters, Pareto(1.5) marks; fitted to earlier peaks 3 to 7 B higher, and
# kept, since the chunk size fixes the draws
_HAWKES_CLUSTER_BYTES, _HAWKES_CHILD_BYTES = 32, 28


def _chunk_size(bytes_per_task: float, smallest: int, largest: int) -> int:
    """Tasks per chunk: the largest power of two whose working set fits in ``_CHUNK_BYTES``.

    ``bytes_per_task`` is the kernel's measured peak memory (tracemalloc)
    per task (a window, a cluster or a draw) at the model's mean sizes,
    with everything the kernel can keep kept.  So the chunk a worker holds
    takes at most 8 MiB, up to the spread of its draws about those means,
    whatever the events per task, unless the result is clamped to
    ``[smallest, largest]``.  It depends only on the model and the task,
    never on the worker count or the kept fields, so chunk boundaries (and
    therefore every random draw) are reproducible.
    """
    raw = max(1.0, _CHUNK_BYTES / max(1.0, bytes_per_task))
    return int(min(largest, max(smallest, 1 << int(math.log2(raw)))))


@cache
def _keep_freed_memory() -> None:
    """Lets glibc keep freed chunk-sized arrays for the next chunk, once per process.

    By default glibc maps each array over its mmap threshold afresh and returns
    it, or the top of the heap, to the system when it is freed, so every chunk
    faults its temporaries in again page by page.  Arrays of up to 32 MiB now
    come from the heap, and up to 512 MiB of free heap is kept.  Output does not
    depend on it; where there is no ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # from glibc's <malloc.h>
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 512 << 20)


def _run_chunk(task):
    kernel, index, count, chunk, base = task
    try:
        return kernel(count, base.child(index))
    except ClusterOverflow as exc:
        raise ClusterOverflow(index * chunk + exc.replication, exc.limit) from None


def chunked_map(kernel, n: int, chunk: int, base: RngStream, workers: int = 1):
    """Yields ``kernel(count, rng)`` on consecutive chunks of n replications, in chunk order.

    Chunk i holds replications ``[i * chunk, (i + 1) * chunk)`` and draws
    from ``base.child(i)``, so the results are bit-identical for any worker
    count; a picklable kernel runs in a process pool when ``workers > 1``.
    Each result is yielded as it is ready, so the caller need not hold them
    all.  A :class:`ClusterOverflow` is re-raised with its replication
    counted from the first chunk.
    """
    _keep_freed_memory()
    starts = range(0, n, chunk)
    tasks = [(kernel, i, min(chunk, n - s), chunk, base) for i, s in enumerate(starts)]
    if workers > 1 and len(tasks) > 1:
        # the pool starts all its processes at once, so it asks for no more than there are chunks
        with ProcessPoolExecutor(
            max_workers=min(workers, len(tasks)), initializer=_keep_freed_memory
        ) as pool:
            yield from pool.map(_run_chunk, tasks)
    else:
        yield from map(_run_chunk, tasks)


def chunked_fill(kernel, n: int, chunk: int, base: RngStream, workers: int = 1) -> dict:
    """:func:`chunked_map`'s results, dicts of arrays over n replications, joined.

    Each array of a chunk's dict has its replications on its last axis; it
    is copied into place as the chunk arrives, so the result equals
    concatenating the chunks along that axis without holding them all.
    """
    out, start = {}, 0
    for part in chunked_map(kernel, n, chunk, base, workers):
        for name, values in part.items():
            if name not in out:
                out[name] = np.empty((*values.shape[:-1], n), values.dtype)
            out[name][..., start : start + chunk] = values
        start += chunk
        # let go of the chunk before the next is drawn (a zip or enumerate
        # would hold it in its reused result tuple until then)
        part = values = None
    return out


def _functional_kernel(
    model: JointMarkModel, params: RenewalParams | HawkesParams, n: int, fields
) -> tuple[partial, int]:
    """A cluster batch's chunk kernel and chunk size, its arguments checked first."""
    if n < 1:
        raise ValueError("n must be >= 1")
    unknown = set(fields) - set(FUNCTIONALS)
    if unknown:
        raise ValueError(f"unknown cluster functionals: {sorted(unknown)}")
    if model.is_hawkes and not isinstance(params, HawkesParams):
        raise ModelError("Hawkes model needs HawkesParams", "params")
    if model.is_renewal and not isinstance(params, RenewalParams):
        raise ModelError("renewal model needs RenewalParams", "params")

    fields = tuple(f for f in FUNCTIONALS if f in fields)
    if model.is_hawkes and model.independent_marks:
        # built once, here: pool workers inherit it
        _hawkes_size_table(model, params.max_cluster_events)
        kernel = partial(_hawkes_light_chunk, model, max_events=params.max_cluster_events, fields=fields)
    elif model.is_hawkes:
        kernel = partial(_hawkes_comonotone_chunk, model, max_events=params.max_cluster_events, fields=fields)
    else:
        kernel = partial(_renewal_chunk, model, fields=fields)
    consts = model_constants(model)
    if kernel.func is _hawkes_comonotone_chunk:
        per_cluster = _HAWKES_CLUSTER_BYTES + _HAWKES_CHILD_BYTES * consts.mean_count
    else:
        offspring = consts.mean_cluster_size - 1 if model.is_hawkes else consts.mean_count
        per_cluster = _RENEWAL_CLUSTER_BYTES + _RENEWAL_OFFSPRING_BYTES * offspring
    return kernel, _chunk_size(per_cluster, 1 << 12, 1 << 18)


def functional_chunks(
    model: JointMarkModel,
    params: RenewalParams | HawkesParams,
    n: int,
    rng: RngStream,
    workers: int = 1,
    fields=FUNCTIONALS,
):
    """n i.i.d. (H, D, size) triples, chunk by chunk: each a dict of arrays, in chunk order.

    Replications are partitioned into fixed chunks; chunk ``i`` draws from
    ``rng.child(i)``, so every chunk is bit-identical for any worker count,
    and the chunks a caller holds at once are its own choice: one, if it
    folds each into what it reads.  Waiting times and displacement times are
    never drawn here: the functionals do not depend on them.  Only the
    functionals named in ``fields`` (a subset of :data:`FUNCTIONALS`) are
    kept; every subset makes the same draws, so each kept array is the same
    whatever else is.  The arguments are checked before the first chunk is
    drawn.
    """
    kernel, chunk = _functional_kernel(model, params, n, fields)
    return chunked_map(kernel, n, chunk, rng, workers)


def batch_functionals(
    model: JointMarkModel,
    params: RenewalParams | HawkesParams,
    n: int,
    rng: RngStream,
    workers: int = 1,
    fields=FUNCTIONALS,
) -> FunctionalSample:
    """:func:`functional_chunks`' chunks joined into arrays of n: O(n) memory."""
    kernel, chunk = _functional_kernel(model, params, n, fields)
    return FunctionalSample(n, **chunked_fill(kernel, n, chunk, rng, workers))
