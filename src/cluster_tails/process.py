"""Simulation of the full marked process on finite windows [0, T].

Clusters are seeded by a homogeneous Poisson immigration process on [0, T];
every event of every started cluster is classified as in-window (time <= T)
or leftover.  The per-window statistics are exactly the quantities entering
the large-deviation decompositions: event count, leftover count, in-window
mark sum, in-window mark max, leftover mark sum, and cluster count.

A sweep over horizons T_1 <= ... <= T_k simulates one path on [0, T_k] per
replication and reads every horizon off it (:func:`sweep_windows`): the
immigrants that arrive by T_i are a Poisson(nu T_i) process on [0, T_i], so
each horizon keeps its exact marginal law, while the horizons of one
replication share their early clusters and are positively correlated.

Clusters born before time 0 are ignored by construction; the decomposition
identities (sum + leftover == total cluster mass, window max <= cluster max)
then hold pathwise on every replication and at every horizon.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .clusters import HawkesParams, RenewalParams, _add_broods, _run_starts
from .errors import ClusterOverflow, ModelError
from .heavytail import JointMarkModel, model_constants, sample_joint
from .rng import RngStream

__all__ = [
    "WindowConfig",
    "WindowStats",
    "WindowBatch",
    "MeanSumEstimate",
    "simulate_window",
    "WINDOW_FIELDS",
    "sweep_windows",
    "batch_windows",
    "estimate_mean_sums",
    "estimate_mean_sum",
]


@dataclass(frozen=True)
class WindowConfig:
    model: JointMarkModel
    cluster_params: RenewalParams | HawkesParams
    nu: float
    horizon: float

    def __post_init__(self) -> None:
        if self.nu <= 0:
            raise ModelError("immigration rate nu must be positive", "nu")
        if self.horizon <= 0:
            raise ModelError("horizon must be positive", "horizon")
        if self.model.is_hawkes and not isinstance(self.cluster_params, HawkesParams):
            raise ModelError("Hawkes model needs HawkesParams", "cluster_params")
        if self.model.is_renewal and not isinstance(self.cluster_params, RenewalParams):
            raise ModelError("renewal model needs RenewalParams", "cluster_params")


@dataclass(frozen=True)
class WindowStats:
    """Summary of one simulated window."""

    n_events: int
    j_leftover: int
    sum_in_window: float
    max_in_window: float
    leftover_sum: float
    n_clusters: int


@dataclass
class WindowBatch:
    """Structure-of-arrays view of n i.i.d. windows (sequence of WindowStats)."""

    n_events: np.ndarray
    j_leftover: np.ndarray
    sum_in_window: np.ndarray
    max_in_window: np.ndarray
    leftover_sum: np.ndarray
    n_clusters: np.ndarray

    def __len__(self) -> int:
        return len(self.n_events)

    def __getitem__(self, i: int) -> WindowStats:
        return WindowStats(
            n_events=int(self.n_events[i]),
            j_leftover=int(self.j_leftover[i]),
            sum_in_window=float(self.sum_in_window[i]),
            max_in_window=float(self.max_in_window[i]),
            leftover_sum=float(self.leftover_sum[i]),
            n_clusters=int(self.n_clusters[i]),
        )


WINDOW_FIELDS = tuple(f.name for f in dataclasses.fields(WindowBatch))


def _segmented_offsets(waits: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Running sums of waits within each segment of the given lengths."""
    if counts.size == 0:
        return np.empty(0)
    cs = np.cumsum(waits)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    prefix = np.concatenate(([0.0], cs))
    return cs - np.repeat(prefix[starts], counts)


# statistics reduced per (slot, window) and accumulated over slots; the
# leftover ones are tallied per horizon directly
_SLOTTED = {"n_events", "sum_in_window", "max_in_window", "n_clusters"}


class _HorizonTally:
    """Window statistics at every horizon, reduced from one path per window.

    A point's slot is the number of horizons before its time, so
    ``len(horizons)`` means past the last one.  At horizon i a window holds
    the immigrants and offspring in slots <= i, so in-window statistics are
    reduced per (slot, window) and accumulated over slots at the end.  An
    offspring point is leftover at horizon i when its immigrant's slot is
    <= i < its own slot.  Only the statistics named in ``fields`` are kept.
    """

    def __init__(self, horizons: np.ndarray, n: int, fields) -> None:
        self.horizons = horizons
        self.n = n
        k = len(horizons)
        dtype = {"n_events": np.int64, "j_leftover": np.int64, "n_clusters": np.int64}
        self.slotted = {
            f: np.zeros((k + 1) * n, dtype.get(f, float)) for f in fields if f in _SLOTTED
        }
        self.leftover = {
            f: np.zeros((k, n), dtype.get(f, float)) for f in fields if f not in _SLOTTED
        }

    def slot(self, times: np.ndarray) -> np.ndarray:
        """The slot of each time, in the narrowest dtype that holds it."""
        slot = np.zeros(times.size, dtype=np.min_scalar_type(len(self.horizons)))
        for h in self.horizons:
            slot += times > h
        return slot

    def _reduce(self, win, slot, marks, counts: tuple[str, ...]) -> None:
        acc = self.slotted
        if not acc.keys() & {*counts, "sum_in_window", "max_in_window"}:
            return
        key = slot.astype(np.intp)
        key *= self.n
        key += win
        size = (len(self.horizons) + 1) * self.n
        for f in counts:
            if f in acc:
                acc[f] += np.bincount(key, minlength=size)
        if "sum_in_window" in acc:
            acc["sum_in_window"] += np.bincount(key, weights=marks, minlength=size)
        if "max_in_window" in acc:
            np.maximum.at(acc["max_in_window"], key, marks)

    def immigrants(self, win: np.ndarray, slot: np.ndarray, marks: np.ndarray) -> None:
        self._reduce(win, slot, marks, ("n_events", "n_clusters"))

    def offspring(
        self, win: np.ndarray, slot: np.ndarray, marks: np.ndarray, home: np.ndarray | None
    ) -> None:
        """Offspring points; ``home`` (their immigrants' slots) is needed for leftover only."""
        self._reduce(win, slot, marks, ("n_events",))
        if not self.leftover:
            return
        out = slot > home
        win, slot, home, marks = win[out], slot[out], home[out], marks[out]
        j, eps = self.leftover.get("j_leftover"), self.leftover.get("leftover_sum")
        for i in range(len(self.horizons)):
            hit = (home <= i) & (slot > i)
            if j is not None:
                j[i] += np.bincount(win[hit], minlength=self.n)
            if eps is not None:
                eps[i] += np.bincount(win[hit], weights=marks[hit], minlength=self.n)

    def result(self) -> dict[str, np.ndarray]:
        """Each kept statistic as a (horizon, window) array."""
        out = dict(self.leftover)
        k = len(self.horizons)
        for f, flat in self.slotted.items():
            per_slot = flat.reshape(k + 1, self.n)[:k]
            out[f] = (np.maximum.accumulate if f == "max_in_window" else np.cumsum)(
                per_slot, axis=0
            )
        return out


def _renewal_windows(
    config: WindowConfig, horizons: np.ndarray, n: int, rng: RngStream, fields
) -> dict[str, np.ndarray]:
    gen = rng.generator
    model, t_max = config.model, float(horizons[-1])
    c_t = gen.poisson(config.nu * t_max, n)
    m = int(c_t.sum())
    win_of_cluster = np.repeat(np.arange(n), c_t)
    tau = gen.uniform(0.0, t_max, m)
    x, k = sample_joint(model, rng, m)
    k = np.asarray(k, dtype=np.int64)
    total = int(k.sum())
    waits = np.asarray(config.cluster_params.waiting_law.sample(gen, total), dtype=float)
    marks = np.asarray(model.mark_law.sample(gen, total), dtype=float)
    offsets = _segmented_offsets(waits, k)
    evt_time = np.repeat(tau, k) + offsets

    tally = _HorizonTally(horizons, n, fields)
    home = tally.slot(tau)
    tally.immigrants(win_of_cluster, home, x)
    tally.offspring(
        np.repeat(win_of_cluster, k),
        tally.slot(evt_time),
        marks,
        np.repeat(home, k) if tally.leftover else None,
    )
    return tally.result()


def _hawkes_windows(
    config: WindowConfig, horizons: np.ndarray, n: int, rng: RngStream, fields
) -> dict[str, np.ndarray]:
    gen = rng.generator
    model, t_max = config.model, float(horizons[-1])
    params: HawkesParams = config.cluster_params
    c_t = gen.poisson(config.nu * t_max, n)
    m = int(c_t.sum())
    win_of_cluster = np.repeat(np.arange(n), c_t)
    evt_time = gen.uniform(0.0, t_max, m)
    x0, kappa = sample_joint(model, rng, m)

    tally = _HorizonTally(horizons, n, fields)
    home = tally.slot(evt_time)
    tally.immigrants(win_of_cluster, home, x0)
    # chunk-sized arrays: hold only what the generation loop needs, whose
    # first generation is the chunk's memory peak
    del x0
    cluster_sizes = np.ones(m, dtype=np.int64)

    owner = live = starts = np.arange(m)
    kappa = np.asarray(kappa, dtype=float)
    while owner.size:
        brood = gen.poisson(kappa)
        total = int(brood.sum())
        if total == 0:
            break
        bad = _add_broods(cluster_sizes, live, starts, brood, params.max_cluster_events)
        if bad is not None:
            raise ClusterOverflow(int(win_of_cluster[bad]), params.max_cluster_events)
        owner = np.repeat(owner, brood)
        starts = _run_starts(owner)
        live = owner[starts]
        dt = gen.exponential(1.0 / params.decay_rate, total)
        evt_time = np.repeat(evt_time, brood) + dt
        xc, kc = sample_joint(model, rng, total)
        tally.offspring(
            win_of_cluster[owner],
            tally.slot(evt_time),
            np.asarray(xc, dtype=float),
            home[owner] if tally.leftover else None,
        )
        kappa = np.asarray(kc, dtype=float)
    return tally.result()


def simulate_window(config: WindowConfig, rng: RngStream) -> WindowStats:
    """One window drawn directly from the given stream."""
    kernel = _hawkes_windows if config.model.is_hawkes else _renewal_windows
    out = kernel(config, np.array([config.horizon]), 1, rng, WINDOW_FIELDS)
    return _as_batch(out)[0]


def _as_batch(out: dict[str, np.ndarray]) -> WindowBatch:
    return WindowBatch(**{name: out[name][0] for name in WINDOW_FIELDS})


def _window_chunk_size(
    config: WindowConfig, t_max: float, target_events: int = 1 << 21
) -> int:
    consts = model_constants(config.model)
    if config.model.is_hawkes:
        per_cluster = 1.0 / (1.0 - consts.mean_count)
    else:
        per_cluster = 1.0 + consts.mean_count
    events_per_window = max(1.0, config.nu * t_max * per_cluster)
    raw = max(1.0, target_events / events_per_window)
    return int(min(1 << 16, max(1 << 6, 1 << int(math.log2(raw)))))


def _window_worker(args):
    config, horizons, fields, chunk_index, count, chunk_span, base = args
    rng = base.child(chunk_index)
    kernel = _hawkes_windows if config.model.is_hawkes else _renewal_windows
    try:
        return chunk_index, kernel(config, horizons, count, rng, fields)
    except ClusterOverflow as exc:
        raise ClusterOverflow(
            chunk_index * chunk_span + exc.replication, exc.limit
        ) from None


def sweep_windows(
    config: WindowConfig,
    horizons,
    n: int,
    rng: RngStream,
    workers: int = 1,
    fields=WINDOW_FIELDS,
) -> dict[str, np.ndarray]:
    """n i.i.d. paths on [0, max(horizons)], each summarised at every horizon.

    Returns each statistic named in ``fields`` (a subset of
    :data:`WINDOW_FIELDS`) as an array of shape ``(len(horizons), n)``.  Row
    i has the exact law of a window of length ``horizons[i]``: its
    immigrants are the Poisson(nu * horizons[i]) subset of the path's
    immigrants that arrive by then.  Rows of one call come from the same
    paths, so they are positively correlated, and the in-window statistics
    never decrease along a column.  ``config.horizon`` is not used.

    Output is bit-identical for any worker count: chunk boundaries depend
    only on the configuration and the longest horizon, and chunk i always
    draws from ``rng.child(i)``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    hs = np.asarray(horizons, dtype=float)
    if hs.ndim != 1 or hs.size == 0 or hs[0] <= 0 or np.any(np.diff(hs) < 0):
        raise ModelError("horizons must be a nonempty ascending list of positive numbers", "horizons")
    unknown = set(fields) - set(WINDOW_FIELDS)
    if unknown:
        raise ValueError(f"unknown window statistics: {sorted(unknown)}")
    fields = tuple(f for f in WINDOW_FIELDS if f in fields)
    chunk = _window_chunk_size(config, float(hs[-1]))
    base = rng.fresh()
    tasks = [
        (config, hs, fields, i, c, chunk, base)
        for i, c in enumerate(min(chunk, n - s) for s in range(0, n, chunk))
    ]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = sorted(pool.map(_window_worker, tasks), key=lambda r: r[0])
        parts = [r[1] for r in results]
    else:
        parts = [_window_worker(t)[1] for t in tasks]
    return {name: np.concatenate([p[name] for p in parts], axis=1) for name in fields}


def batch_windows(
    config: WindowConfig, n: int, rng: RngStream, workers: int = 1
) -> WindowBatch:
    """n i.i.d. windows of length ``config.horizon``, with every statistic.

    The one-horizon case of :func:`sweep_windows`, and bit-identical for any
    worker count in the same way.
    """
    return _as_batch(sweep_windows(config, (config.horizon,), n, rng, workers))


@dataclass(frozen=True)
class MeanSumEstimate:
    """Pilot Monte Carlo estimate of E[S_T] with its standard error."""

    value: float
    se: float
    pilot_n: int


def estimate_mean_sums(
    config: WindowConfig, horizons, pilot_n: int, rng: RngStream, workers: int = 1
) -> list[MeanSumEstimate]:
    """Pilot estimates of the window mean sum at each horizon, from shared paths.

    Used to center deviation sweeps; the estimates of one call are
    positively correlated (see :func:`sweep_windows`).
    """
    if pilot_n < 1_000:
        raise ValueError("pilot_n must be at least 1000")
    sums = sweep_windows(config, horizons, pilot_n, rng, workers, ("sum_in_window",))
    return [
        MeanSumEstimate(
            value=float(s.mean()),
            se=float(s.std(ddof=1) / math.sqrt(pilot_n)),
            pilot_n=pilot_n,
        )
        for s in sums["sum_in_window"]
    ]


def estimate_mean_sum(
    config: WindowConfig, pilot_n: int, rng: RngStream, workers: int = 1
) -> MeanSumEstimate:
    """Pilot estimate of the mean sum of a window of length ``config.horizon``."""
    return estimate_mean_sums(config, (config.horizon,), pilot_n, rng, workers)[0]
