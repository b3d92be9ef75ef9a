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

Hawkes windows can also keep ``leftover_intensity``, Lambda_T = sum over the
points p with t_p <= T of kappa_p exp(-beta (T - t_p)): the mean number of
children that the points by T still have after T.  Those children are
Poisson, independent of the path up to T, and each starts a subtree of mean
size 1 / (1 - E[kappa]) and mean mark sum E[X] / (1 - E[kappa]), so
Lambda_T / (1 - E[kappa]) and Lambda_T E[X] / (1 - E[kappa]) are the
conditional means of the leftover count and mark sum given that path.

The mean in-window event count E[N_T] has a closed form in every regime
(:func:`mean_events`), by Campbell's formula: an immigrant arriving u
before T has on average 1 + sum_r P(K >= r) P(S_r <= u) points by T in a
renewal cluster, S_r the sum of r waits, and 1 + m (1 - exp(-beta (1 - m) u)) / (1 - m)
in a Hawkes cluster with m = E[kappa] (Hawkes & Oakes 1974; Daley &
Vere-Jones, *An Introduction to the Theory of Point Processes*).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .clusters import HawkesParams, RenewalParams, _chunk_size, chunked_map, grow_hawkes
from .errors import ClusterOverflow, ModelError
from .heavytail import JointMarkModel, count_survival, model_constants, sample_joint
from .rng import RngStream

__all__ = ["WindowConfig", "WINDOW_FIELDS", "mean_events", "sweep_windows"]


@dataclass(frozen=True)
class WindowConfig:
    model: JointMarkModel
    cluster_params: RenewalParams | HawkesParams
    nu: float

    def __post_init__(self) -> None:
        if self.nu <= 0:
            raise ModelError("immigration rate nu must be positive", "nu")
        if self.model.is_hawkes and not isinstance(self.cluster_params, HawkesParams):
            raise ModelError("Hawkes model needs HawkesParams", "cluster_params")
        if self.model.is_renewal and not isinstance(self.cluster_params, RenewalParams):
            raise ModelError("renewal model needs RenewalParams", "cluster_params")


def mean_events(config: WindowConfig, horizons) -> np.ndarray:
    """E[N_T], the mean number of points in a window of length T, for each horizon T.

    Hawkes: nu T / (1 - m) - nu m (1 - exp(-beta (1 - m) T)) / (beta (1 - m)**2),
    with m = E[kappa] and beta the decay rate.  Renewal:
    nu T + nu sum_{r >= 1} P(K >= r) E[(T - S_r)^+], S_r the sum of r waits,
    which are independent of K.  The r-sum stops at the first n of 64, 128,
    256, ... with E[(T - S_n)^+] E[K] <= 1e-15 T: the shortfall never grows
    with r, so the terms past n add at most E[(T - S_n)^+] sum_{r > n} P(K >= r)
    <= E[(T - S_n)^+] E[K], which is below 1e-15 of E[N_T] >= nu T.
    """
    ts = np.asarray(horizons, dtype=float)
    model, nu = config.model, config.nu
    m = model_constants(model).mean_count
    if model.is_hawkes:
        decay = config.cluster_params.decay_rate
        fade = -np.expm1(-decay * (1.0 - m) * ts)
        return nu * ts / (1.0 - m) - nu * m * fade / (decay * (1.0 - m) ** 2)
    waiting = config.cluster_params.waiting_law
    out = np.empty(ts.size)
    for i, t in enumerate(ts):
        n = 64
        while True:
            r = np.arange(1, n + 1)
            shortfall = waiting.shortfall(t, r)
            if shortfall[-1] * m <= 1e-15 * t:
                break
            n *= 2
        out[i] = nu * (t + count_survival(model, r - 1) @ shortfall)
    return out


# the per-window statistics, in output order
WINDOW_FIELDS = (
    "n_events",
    "j_leftover",
    "sum_in_window",
    "max_in_window",
    "leftover_sum",
    "n_clusters",
)


# and the Hawkes kernel's own statistic: only Hawkes points carry an intensity kappa
_FIELDS = (*WINDOW_FIELDS, "leftover_intensity")

# statistics reduced per (window, slot) and combined over slots; the
# leftover ones are tallied per horizon directly
_SLOTTED = {"n_events", "sum_in_window", "max_in_window", "n_clusters", "leftover_intensity"}


class _HorizonTally:
    """Window statistics at every horizon, reduced from one path per window.

    A point's slot is the number of horizons before its time, so
    ``len(horizons)`` means past the last one.  At horizon i a window holds
    the immigrants and offspring in slots <= i, so in-window statistics are
    reduced per (window, slot) and accumulated over slots at the end.  An
    offspring point is leftover at horizon i when its immigrant's slot is
    <= i < its own slot.  Only the statistics named in ``fields`` are kept;
    ``leftover_intensity`` needs the Hawkes ``decay`` rate beta.
    """

    def __init__(self, horizons: np.ndarray, n: int, fields, decay: float | None = None) -> None:
        if "leftover_intensity" in fields and decay is None:
            raise ModelError(
                "leftover_intensity needs a Hawkes model: renewal points carry no intensity",
                "fields",
            )
        self.horizons = horizons
        self.n = n
        self.decay = decay
        k = len(horizons)
        dtype = {"n_events": np.int64, "j_leftover": np.int64, "n_clusters": np.int64}
        # flat over (window, slot), window-major: see _reduce
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

    def intensity(self, win, slot, times, kappa) -> None:
        """Adds each point's term of Lambda, kappa * exp(-beta (T_slot - t)), to its cell.

        The term is 0 past the last horizon, so no exponent is positive.  The
        points go a block at a time, so the terms and keys stay in cache and
        no array the size of the points is made.  Does nothing unless
        ``leftover_intensity`` is kept.
        """
        acc = self.slotted.get("leftover_intensity")
        if acc is None:
            return
        ends = np.append(self.horizons, np.inf)
        width = len(self.horizons) + 1
        # each block's bincount costs the size of acc, so a block is at least 4 times that
        step = max(1 << 15, 4 * acc.size)
        for lo in range(0, times.size, step):
            part = slice(lo, lo + step)
            cell = slot[part].astype(np.intp)  # take is several times faster on intp
            term = np.take(ends, cell)
            np.subtract(times[part], term, out=term)
            term *= self.decay
            np.exp(term, out=term)
            term *= kappa[part]
            cell += np.multiply(win[part], width, dtype=np.intp)
            acc += np.bincount(cell, weights=term, minlength=acc.size)

    def _reduce(self, win, slot, marks, counts: tuple[str, ...]) -> None:
        acc = self.slotted
        if not acc.keys() & {*counts, "sum_in_window", "max_in_window"}:
            return
        # window-major keys, so an intp ``win`` becomes the key in place with
        # no temporary the size of the points
        key = win.astype(np.intp, copy=False)
        key *= len(self.horizons) + 1
        key += slot
        size = (len(self.horizons) + 1) * self.n
        for f in counts:
            if f in acc:
                acc[f] += np.bincount(key, minlength=size)
        if "sum_in_window" in acc:
            acc["sum_in_window"] += np.bincount(key, weights=marks, minlength=size)
        if "max_in_window" in acc:
            np.maximum.at(acc["max_in_window"], key, marks)

    def immigrants(self, win: np.ndarray, slot: np.ndarray, marks: np.ndarray) -> None:
        """Immigrant points; an intp ``win`` is overwritten."""
        self._reduce(win, slot, marks, ("n_events", "n_clusters"))

    def offspring(
        self, win: np.ndarray, slot: np.ndarray, marks: np.ndarray, home: np.ndarray | None
    ) -> None:
        """Offspring points; an intp ``win`` is overwritten.

        ``home`` (their immigrants' slots) is needed for leftover only.
        """
        if self.leftover:
            out = slot > home
            self._leftover(win[out], slot[out], home[out], marks[out])
        self._reduce(win, slot, marks, ("n_events",))

    def _leftover(self, win, slot, home, marks) -> None:
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
            per_slot = flat.reshape(self.n, k + 1)[:, :k].T
            if f == "leftover_intensity":
                # Lambda_i = Lambda_{i-1} exp(-beta (T_i - T_{i-1})) + slot i's terms
                out[f] = lam = np.array(per_slot)
                for i, fade in enumerate(np.exp(-self.decay * np.diff(self.horizons)), 1):
                    lam[i] += lam[i - 1] * fade
            else:
                out[f] = (np.maximum.accumulate if f == "max_in_window" else np.cumsum)(
                    per_slot, axis=0
                )
        return out


def _renewal_windows(
    config: WindowConfig, horizons: np.ndarray, n: int, rng: RngStream, fields
) -> dict[str, np.ndarray]:
    # chunk-sized arrays are freed as soon as they are used: the draws keep
    # their order, but no array lives longer than its last use
    tally = _HorizonTally(horizons, n, fields)
    gen = rng.generator
    model, t_max = config.model, float(horizons[-1])
    c_t = gen.poisson(config.nu * t_max, n)
    m = int(c_t.sum())
    tau = gen.uniform(0.0, t_max, m)
    x, k = sample_joint(model, rng, m)
    home = tally.slot(tau)
    tally.immigrants(np.repeat(np.arange(n), c_t), home, x)
    del x
    k = np.asarray(k, dtype=np.int64)
    total = int(k.sum())
    evt_time = np.asarray(config.cluster_params.waiting_law.sample(gen, total), dtype=float)
    # one running sum of the waits over the whole chunk, restarted at each
    # cluster's birth time by subtracting what the earlier clusters' waits add up to
    first = np.zeros(m + 1, dtype=np.int64)  # first[c]: index of cluster c's first offspring
    np.cumsum(k, out=first[1:])
    np.cumsum(evt_time, out=evt_time)
    # first never decreases, so the clusters with earlier offspring are a suffix
    later = np.searchsorted(first[:-1], 0, side="right")
    tau[later:] -= evt_time[first[later:-1] - 1]
    evt_time += np.repeat(tau, k)
    per_window = np.diff(first[np.cumsum(c_t)], prepend=0)  # offspring per window
    del tau, first
    slot = tally.slot(evt_time)
    del evt_time
    marks = np.asarray(model.mark_law.sample(gen, total), dtype=float)
    tally.offspring(
        np.repeat(np.arange(n), per_window),
        slot,
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
    # a chunk holds at most 2**16 windows, so this is uint16 or narrower
    win_of_cluster = np.repeat(np.arange(n, dtype=np.min_scalar_type(n - 1)), c_t)
    evt_time = gen.uniform(0.0, t_max, m)
    x0, kappa = sample_joint(model, rng, m)

    tally = _HorizonTally(horizons, n, fields, params.decay_rate)
    home = tally.slot(evt_time)
    tally.intensity(win_of_cluster, home, evt_time, kappa)
    tally.immigrants(win_of_cluster, home, x0)
    # chunk-sized arrays: hold only what the generation loop needs, whose
    # first generation is the chunk's memory peak
    del x0
    brood = gen.poisson(kappa)
    del kappa

    def draw(brood, owner, runs):
        nonlocal evt_time
        dt = gen.exponential(1.0 / params.decay_rate, owner.size)
        evt_time = np.repeat(evt_time, brood)
        evt_time += dt
        del dt
        xc, kc = sample_joint(model, rng, owner.size)
        win, slot = win_of_cluster[owner], tally.slot(evt_time)
        tally.intensity(win, slot, evt_time, kc)
        tally.offspring(
            win, slot, np.asarray(xc, dtype=float), home[owner] if tally.leftover else None
        )
        return kc

    try:
        grow_hawkes(gen, brood, params.max_cluster_events, draw)
    except ClusterOverflow as exc:
        raise ClusterOverflow(int(win_of_cluster[exc.replication]), exc.limit) from None
    return tally.result()


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
    :data:`WINDOW_FIELDS`, plus ``"leftover_intensity"`` for a Hawkes model:
    see the module docstring) as an array of shape ``(len(horizons), n)``.  Row
    i has the exact law of a window of length ``horizons[i]``: its
    immigrants are the Poisson(nu * horizons[i]) subset of the path's
    immigrants that arrive by then.  Rows of one call come from the same
    paths, so they are positively correlated, and the in-window statistics
    never decrease along a column.  Every subset of ``fields`` reads the
    same draws.

    Output is bit-identical for any worker count: chunk boundaries depend
    only on the configuration and the longest horizon, and chunk i always
    draws from ``rng.child(i)``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    hs = np.asarray(horizons, dtype=float)
    if hs.ndim != 1 or hs.size == 0 or hs[0] <= 0 or np.any(np.diff(hs) <= 0):
        raise ModelError(
            "horizons must be a nonempty strictly ascending list of positive numbers", "horizons"
        )
    unknown = set(fields) - set(_FIELDS)
    if unknown:
        raise ValueError(f"unknown window statistics: {sorted(unknown)}")
    fields = tuple(f for f in _FIELDS if f in fields)
    kernel = _hawkes_windows if config.model.is_hawkes else _renewal_windows
    events = config.nu * float(hs[-1]) * model_constants(config.model).mean_cluster_size
    chunk = _chunk_size(events, 1 << 6, 1 << 16)
    parts = chunked_map(partial(kernel, config, hs, fields=fields), n, chunk, rng, workers)
    return {name: np.concatenate([p[name] for p in parts], axis=1) for name in fields}
