"""Cluster parameters, batch cluster functionals and the chunk engine.

Two cluster shapes exist: renewal clusters carry a single generation of K
offspring at renewal times, Hawkes clusters are the full progeny forest of a
subcritical branching cascade.  The functionals of interest depend only on
marks, never on event times, which is what makes the vectorized batch path
(:func:`batch_functionals`) legitimate: it skips drawing times entirely.
The Hawkes generation loop (:func:`grow_hawkes`) is shared with the window
kernels of :mod:`cluster_tails.process`, which do draw times.
"""

from __future__ import annotations

import ctypes
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .errors import ClusterOverflow, ModelError
from .heavytail import JointMarkModel, LightLaw, model_constants, sample_joint
from .rng import RngStream

__all__ = [
    "RenewalParams",
    "HawkesParams",
    "FunctionalSample",
    "batch_functionals",
    "chunked_map",
]

DEFAULT_MAX_CLUSTER_EVENTS = 1_000_000


@dataclass(frozen=True)
class RenewalParams:
    """Inter-event waiting-time law for the renewal chain."""

    waiting_law: LightLaw


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


@dataclass
class FunctionalSample:
    """n i.i.d. cluster functionals as parallel arrays (H, D, total size)."""

    h: np.ndarray
    d: np.ndarray
    sizes: np.ndarray

    def __len__(self) -> int:
        return len(self.h)

    def __getitem__(self, i):
        return (float(self.h[i]), float(self.d[i]), int(self.sizes[i]))


def _renewal_functionals(x: np.ndarray, k: np.ndarray, marks: np.ndarray):
    """(H, D) of renewal clusters: immigrant marks ``x``, then ``k[i]`` offspring marks each."""
    seg = np.repeat(np.arange(len(x)), k)
    d = x + np.bincount(seg, weights=marks, minlength=len(x))
    h = x.astype(float)
    np.maximum.at(h, seg, marks)
    return h, d


def _renewal_chunk(model: JointMarkModel, n: int, rng: RngStream):
    x, k = sample_joint(model, rng, n)
    k = np.asarray(k, dtype=np.int64)
    total = int(k.sum())
    marks = np.asarray(model.mark_law.sample(rng.generator, total))
    return (*_renewal_functionals(x, k, marks), 1 + k)


def _run_starts(owner: np.ndarray) -> np.ndarray:
    """Where each run of equal values starts in a sorted, nonempty array.

    ``owner[_run_starts(owner)]`` are the clusters present in a generation,
    so per-generation reductions cost the generation's size, not the chunk's.
    """
    first = np.empty(owner.size, dtype=bool)
    first[0] = True
    np.not_equal(owner[1:], owner[:-1], out=first[1:])
    return np.flatnonzero(first)


def _add_broods(
    sizes: np.ndarray, live: np.ndarray, starts: np.ndarray, brood: np.ndarray, limit: int
) -> int | None:
    """Adds each live cluster's brood to its size; the first largest cluster over ``limit``.

    ``brood`` holds the child counts of the generation's nodes, in runs per
    cluster: ``live`` and ``starts`` name each run's cluster and first node.
    Called before the next generation is allocated, so one node with a huge
    brood fails fast instead of exhausting memory.
    """
    grown = np.add.reduceat(brood, starts)
    grown += sizes[live]
    sizes[live] = grown
    worst = int(grown.argmax())
    return int(live[worst]) if grown[worst] > limit else None


def grow_hawkes(gen: np.random.Generator, kappa, limit: int, draw) -> np.ndarray:
    """Grows Hawkes clusters from their immigrants, one generation at a time; returns their sizes.

    ``kappa`` holds the immigrants' intensities, and every node has
    Poisson(kappa) children.  A generation's nodes come in runs, one per
    cluster still growing.  ``draw(brood, owner, starts, live)`` gets each
    parent's child count, each child's cluster, and each run's first child
    and cluster; it draws the children and returns their intensities.  A
    cluster that grows past ``limit`` events raises :class:`ClusterOverflow`
    with its index, before its generation is drawn.
    """
    sizes = np.ones(len(kappa), dtype=np.int64)
    owner = live = starts = np.arange(len(kappa))
    kappa = np.asarray(kappa, dtype=float)
    while owner.size:
        brood = gen.poisson(kappa)
        if not brood.any():
            break
        bad = _add_broods(sizes, live, starts, brood, limit)
        if bad is not None:
            raise ClusterOverflow(bad, limit)
        owner = np.repeat(owner, brood)
        starts = _run_starts(owner)
        live = owner[starts]
        kappa = np.asarray(draw(brood, owner, starts, live), dtype=float)
    return sizes


def _hawkes_chunk(model: JointMarkModel, n: int, rng: RngStream, max_events: int):
    x, kappa = sample_joint(model, rng, n)
    h = x.astype(float)
    d = x.astype(float)

    def draw(brood, owner, starts, live):
        local = np.zeros(owner.size, dtype=np.intp)
        local[starts[1:]] = 1
        np.cumsum(local, out=local)
        xc, kc = sample_joint(model, rng, owner.size)
        np.maximum.at(h, owner, xc)
        d[live] += np.bincount(local, weights=xc, minlength=live.size)
        return kc

    return h, d, grow_hawkes(rng.generator, kappa, max_events, draw)


def _chunk_size(events_per_task: float, smallest: int, largest: int) -> int:
    """Tasks per chunk: about 2**21 events' worth, rounded down to a power of two.

    The result is clamped to ``[smallest, largest]``.  It depends only on
    the model and the task, never on the worker count, so chunk boundaries
    (and therefore every random draw) are reproducible.
    """
    raw = max(1.0, (1 << 21) / max(1.0, events_per_task))
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


def chunked_map(kernel, n: int, chunk: int, base: RngStream, workers: int = 1) -> list:
    """``kernel(count, rng)`` on consecutive chunks of n replications, in chunk order.

    Chunk i holds replications ``[i * chunk, (i + 1) * chunk)`` and draws
    from ``base.child(i)``, so the results are bit-identical for any worker
    count; a picklable kernel runs in a process pool when ``workers > 1``.
    A :class:`ClusterOverflow` is re-raised with its replication counted
    from the first chunk.
    """
    _keep_freed_memory()
    starts = range(0, n, chunk)
    tasks = [(kernel, i, min(chunk, n - s), chunk, base) for i, s in enumerate(starts)]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_keep_freed_memory) as pool:
            return list(pool.map(_run_chunk, tasks))
    return [_run_chunk(t) for t in tasks]


def batch_functionals(
    model: JointMarkModel,
    params: RenewalParams | HawkesParams,
    n: int,
    rng: RngStream,
    workers: int = 1,
) -> FunctionalSample:
    """n i.i.d. (H, D, size) triples, O(n) memory, worker-count independent.

    Replications are partitioned into fixed chunks; chunk ``i`` draws from
    ``rng.child(i)``, so the output is bit-identical for any worker count.
    Waiting times and displacement times are never drawn here: the
    functionals do not depend on them.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if model.is_hawkes and not isinstance(params, HawkesParams):
        raise ModelError("Hawkes model needs HawkesParams", "params")
    if model.is_renewal and not isinstance(params, RenewalParams):
        raise ModelError("renewal model needs RenewalParams", "params")

    if model.is_hawkes:
        kernel = partial(_hawkes_chunk, model, max_events=params.max_cluster_events)
    else:
        kernel = partial(_renewal_chunk, model)
    chunk = _chunk_size(model_constants(model).mean_cluster_size, 1 << 12, 1 << 18)
    parts = chunked_map(kernel, n, chunk, rng.fresh(), workers)
    h = np.concatenate([p[0] for p in parts])
    d = np.concatenate([p[1] for p in parts])
    sizes = np.concatenate([p[2] for p in parts])
    return FunctionalSample(h=h, d=d, sizes=sizes)
