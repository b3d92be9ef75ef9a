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


@dataclass
class FunctionalSample:
    """n i.i.d. cluster functionals as parallel arrays (H, D, total size)."""

    h: np.ndarray
    d: np.ndarray
    sizes: np.ndarray

    def __len__(self) -> int:
        return len(self.h)


def _renewal_functionals(x: np.ndarray, k: np.ndarray, marks: np.ndarray):
    """(H, D) of renewal clusters: immigrant marks ``x``, then ``k[i]`` offspring marks each."""
    seg = np.repeat(np.arange(len(x)), k)
    d = x + np.bincount(seg, weights=marks, minlength=len(x))
    h = x.astype(float)
    np.maximum.at(h, seg, marks)
    return h, d


def _renewal_chunk(model: JointMarkModel, n: int, rng: RngStream):
    gen = rng.generator
    x, k = sample_joint(model, gen, gen, n)
    k = np.asarray(k, dtype=np.int64)
    total = int(k.sum())
    marks = np.asarray(model.mark_law.sample(gen, total))
    return (*_renewal_functionals(x, k, marks), 1 + k)


def _runs(owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each run of equal values starts in a sorted, nonempty array, and its value.

    ``owner[starts]`` are the clusters present in a generation, so
    per-generation reductions cost the generation's size, not the chunk's.
    """
    first = np.empty(owner.size, dtype=bool)
    first[0] = True
    np.not_equal(owner[1:], owner[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return starts, owner[starts]


def _add_broods(
    born: np.ndarray, live: np.ndarray, starts: np.ndarray, brood: np.ndarray, limit: int
) -> int | None:
    """Adds each live cluster's brood to ``born``; the first largest cluster over ``limit``.

    ``born`` counts each cluster's events after its immigrant, so a cluster
    is over ``limit`` when its count plus one is.  ``brood`` holds the child
    counts of the generation's nodes, in runs per cluster: ``live`` and
    ``starts`` name each run's cluster and first node.  Called before the
    next generation is allocated, so one node with a huge brood fails fast
    instead of exhausting memory.
    """
    grown = np.add.reduceat(brood, starts)
    grown += born[live]
    born[live] = grown
    worst = int(grown.argmax())
    return int(live[worst]) if grown[worst] + 1 > limit else None


def grow_hawkes(gen: np.random.Generator, brood: np.ndarray, limit: int, draw) -> np.ndarray:
    """Grows Hawkes clusters from their immigrants, one generation at a time; returns their sizes.

    ``brood`` holds the immigrants' child counts, Poisson(kappa) draws the
    caller makes, and every later node has Poisson(kappa) children too.  A
    generation's nodes come in runs, one per cluster still growing.
    ``draw(brood, owner, runs)`` gets each parent's child count and each
    child's cluster; it draws the children and returns their intensities.
    ``runs()`` gives each run's first child and cluster, ``(starts, live)``;
    they are built at the first call, so a draw that does not ask for them
    does not hold them.  A cluster that grows past ``limit`` events raises
    :class:`ClusterOverflow` with its index, before its generation is
    drawn.  The sizes are returned in ``brood``'s array.
    """
    # offspring per cluster, counted in the immigrants' brood array once
    # generation 1 is drawn, so no second immigrant-sized array is alive then
    born = brood
    if born.size:
        worst = int(born.argmax())
        if born[worst] + 1 > limit:
            raise ClusterOverflow(worst, limit)
    owner = np.repeat(np.arange(born.size), brood)
    while owner.size:
        runs = cache(partial(_runs, owner))
        brood = gen.poisson(np.asarray(draw(brood, owner, runs), dtype=float))
        if not brood.any():
            break
        starts, live = runs()
        bad = _add_broods(born, live, starts, brood, limit)
        if bad is not None:
            raise ClusterOverflow(bad, limit)
        owner = np.repeat(owner, brood)
    born += 1
    return born


def _hawkes_chunk(model: JointMarkModel, n: int, rng: RngStream, max_events: int):
    gen = rng.generator
    x, kappa = sample_joint(model, gen, gen, n)
    h = x.astype(float)
    d = x.astype(float)
    brood = gen.poisson(kappa)
    del x, kappa

    def draw(brood, owner, runs):
        starts, live = runs()
        local = np.zeros(owner.size, dtype=np.intp)
        local[starts[1:]] = 1
        np.cumsum(local, out=local)
        xc, kc = sample_joint(model, gen, gen, owner.size)
        np.maximum.at(h, owner, xc)
        d[live] += np.bincount(local, weights=xc, minlength=live.size)
        return kc

    return h, d, grow_hawkes(gen, brood, max_events, draw)


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
        # the pool starts all its processes at once, so it asks for no more than there are chunks
        with ProcessPoolExecutor(
            max_workers=min(workers, len(tasks)), initializer=_keep_freed_memory
        ) as pool:
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
    parts = chunked_map(kernel, n, chunk, rng, workers)
    h = np.concatenate([p[0] for p in parts])
    d = np.concatenate([p[1] for p in parts])
    sizes = np.concatenate([p[2] for p in parts])
    return FunctionalSample(h=h, d=d, sizes=sizes)
