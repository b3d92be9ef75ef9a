"""Exact samplers for one generic cluster and its max/sum functionals.

Two cluster shapes exist: renewal clusters carry a single generation of K
offspring at renewal times, Hawkes clusters are the full progeny forest of a
subcritical branching cascade.  The functionals of interest depend only on
marks, never on event times, which is what makes the vectorized batch path
(:func:`batch_functionals`) legitimate: it skips drawing times entirely.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ClusterOverflow, ModelError
from .heavytail import JointMarkModel, LightLaw, model_constants, sample_joint
from .rng import RngStream

__all__ = [
    "OffspringEvent",
    "Cluster",
    "RenewalParams",
    "HawkesParams",
    "FunctionalSample",
    "sample_renewal_cluster",
    "sample_hawkes_cluster",
    "functional_max",
    "functional_sum",
    "batch_functionals",
]

DEFAULT_MAX_CLUSTER_EVENTS = 1_000_000


@dataclass(frozen=True)
class OffspringEvent:
    """One offspring event, located relative to the cluster start."""

    time_offset: float
    mark: float
    generation: int
    parent: int | None = None  # index into the events list; None for generation 1


@dataclass(frozen=True)
class Cluster:
    immigrant_mark: float
    events: tuple[OffspringEvent, ...]
    model_kind: str  # "renewal" | "hawkes"

    @property
    def size(self) -> int:
        """Total number of points including the immigrant."""
        return 1 + len(self.events)


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


def sample_renewal_cluster(
    model: JointMarkModel, params: RenewalParams, rng: RngStream
) -> Cluster:
    """One renewal cluster: joint (X, K), then K offspring at renewal times."""
    if not model.is_renewal:
        raise ModelError(f"{model.regime.value} is not a renewal regime", "regime")
    gen = rng.generator
    x, k = sample_joint(model, rng)
    events = []
    t = 0.0
    for _ in range(int(k)):
        t += float(params.waiting_law.sample(gen))
        mark = float(model.mark_law.sample(gen))
        events.append(OffspringEvent(time_offset=t, mark=mark, generation=1))
    return Cluster(immigrant_mark=float(x), events=tuple(events), model_kind="renewal")


def sample_hawkes_cluster(
    model: JointMarkModel, params: HawkesParams, rng: RngStream
) -> Cluster:
    """One Hawkes cluster, generated breadth first.

    Every event (immigrant included) draws Poisson(kappa) children; each
    child draws a fresh joint (mark, kappa) pair and an exponential time
    displacement after its parent.  Subcriticality makes the queue die out
    almost surely; the event guard turns near-critical runaways into a
    ClusterOverflow instead of an unbounded loop.
    """
    if not model.is_hawkes:
        raise ModelError(f"{model.regime.value} is not a Hawkes regime", "regime")
    gen = rng.generator
    x0, kappa0 = sample_joint(model, rng)
    events: list[OffspringEvent] = []
    # queue entries: (parent index or None, parent offset, parent kappa, generation of children)
    queue: deque = deque([(None, 0.0, float(kappa0), 1)])
    while queue:
        parent_idx, parent_t, kappa, child_gen = queue.popleft()
        for _ in range(int(gen.poisson(kappa))):
            if 1 + len(events) >= params.max_cluster_events:
                raise ClusterOverflow(0, params.max_cluster_events)
            dt = gen.exponential(1.0 / params.decay_rate)
            xc, kc = sample_joint(model, rng)
            events.append(
                OffspringEvent(
                    time_offset=parent_t + dt,
                    mark=float(xc),
                    generation=child_gen,
                    parent=parent_idx,
                )
            )
            queue.append((len(events) - 1, parent_t + dt, float(kc), child_gen + 1))
    return Cluster(immigrant_mark=float(x0), events=tuple(events), model_kind="hawkes")


def functional_max(cluster: Cluster) -> float:
    """Largest mark in the cluster, immigrant included."""
    if not cluster.events:
        return cluster.immigrant_mark
    return max(cluster.immigrant_mark, max(e.mark for e in cluster.events))


def functional_sum(cluster: Cluster) -> float:
    """Sum of all marks in the cluster, immigrant included."""
    return cluster.immigrant_mark + sum(e.mark for e in cluster.events)


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


def _renewal_chunk(model: JointMarkModel, n: int, rng: RngStream):
    x, k = sample_joint(model, rng, n)
    k = np.asarray(k, dtype=np.int64)
    total = int(k.sum())
    marks = np.asarray(model.mark_law.sample(rng.generator, total))
    seg = np.repeat(np.arange(n), k)
    d = x + np.bincount(seg, weights=marks, minlength=n)
    h = x.astype(float)
    np.maximum.at(h, seg, marks)
    return h, d, 1 + k


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


def _hawkes_chunk(model: JointMarkModel, n: int, rng: RngStream, max_events: int):
    gen = rng.generator
    x, kappa = sample_joint(model, rng, n)
    h = x.astype(float)
    d = x.astype(float)
    sizes = np.ones(n, dtype=np.int64)
    owner = live = starts = np.arange(n)
    active_kappa = np.asarray(kappa, dtype=float)
    while owner.size:
        children = gen.poisson(active_kappa)
        total = int(children.sum())
        if total == 0:
            break
        bad = _add_broods(sizes, live, starts, children, max_events)
        if bad is not None:
            raise ClusterOverflow(bad, max_events)
        owner = np.repeat(owner, children)
        starts = _run_starts(owner)
        live = owner[starts]
        local = np.zeros(owner.size, dtype=np.intp)
        local[starts[1:]] = 1
        np.cumsum(local, out=local)
        xc, kc = sample_joint(model, rng, total)
        np.maximum.at(h, owner, xc)
        d[live] += np.bincount(local, weights=xc, minlength=live.size)
        active_kappa = np.asarray(kc, dtype=float)
    return h, d, sizes


def _chunk_sizes(n: int, chunk: int) -> list[int]:
    return [min(chunk, n - s) for s in range(0, n, chunk)]


def _functional_chunk_size(model: JointMarkModel, target_events: int = 1 << 21) -> int:
    """Power-of-two chunk size targeting roughly ``target_events`` draws.

    Depends only on the model, never on the worker count, so chunk
    boundaries (and therefore every random draw) are reproducible.
    """
    consts = model_constants(model)
    if model.is_hawkes:
        per = 1.0 / (1.0 - consts.mean_count)
    else:
        per = 1.0 + consts.mean_count
    raw = max(1.0, target_events / per)
    return int(min(1 << 18, max(1 << 12, 1 << int(math.log2(raw)))))


def _functional_worker(args):
    model, params, chunk_index, count, chunk_span, base = args
    rng = base.child(chunk_index)
    if model.is_hawkes:
        try:
            return chunk_index, _hawkes_chunk(model, count, rng, params.max_cluster_events)
        except ClusterOverflow as exc:
            raise ClusterOverflow(
                chunk_index * chunk_span + exc.replication, exc.limit
            ) from None
    return chunk_index, _renewal_chunk(model, count, rng)


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

    chunk = _functional_chunk_size(model)
    counts = _chunk_sizes(n, chunk)
    base = rng.fresh()
    tasks = [(model, params, i, c, chunk, base) for i, c in enumerate(counts)]

    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = sorted(pool.map(_functional_worker, tasks), key=lambda r: r[0])
        parts = [r[1] for r in results]
    else:
        parts = [_functional_worker(t)[1] for t in tasks]

    h = np.concatenate([p[0] for p in parts])
    d = np.concatenate([p[1] for p in parts])
    sizes = np.concatenate([p[2] for p in parts])
    return FunctionalSample(h=h, d=d, sizes=sizes)
