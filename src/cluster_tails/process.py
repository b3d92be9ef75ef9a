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
Hawkes windows draw that process per horizon slot (T_{s-1}, T_s]: a Poisson
count for each (slot, window) cell and uniform times in the slot, the same
law, since a Poisson process restricted to disjoint intervals has
independent Poisson counts there with uniform points (Daley & Vere-Jones).
The counts come first (:func:`_cell_counts`), then the times cell by cell
(:func:`_cell_times`), so each immigrant's slot is known from its draw.

Clusters born before time 0 are ignored by construction; the decomposition
identity sum + leftover == total cluster mass then holds pathwise on every
replication and at every horizon.

Each chunk splits its randomness by spawn key (:meth:`RngStream.branch`):
the structure (immigrant times, K or kappa, waits, broods) comes from the
chunk's own stream ``(stream_id, i)``, the marks from ``(stream_id, i, 1)``
and the window maxima from ``(stream_id, i, 2)``.  Marks are drawn only when
a kept statistic reads them (``sum_in_window``, ``leftover_sum``) or when
the regime derives K or kappa from X (the comonotone ones).  Where the
marks are i.i.d. and independent of the counts, a window's in-window marks
are i.i.d. given its counts, so ``max_in_window`` is drawn from the
in-window counts alone: at the horizons' counts C_1 <= ... <= C_k it is the
running max of one i.i.d. sequence, the last horizon's from one uniform by
F^{-1}(U**(1/C_k)) (Devroye 1986, ch. V) and each earlier one by
conditioning on it (:meth:`~cluster_tails.heavytail.ParetoLaw.sample_running_max`).
Each statistic then has its exact law, jointly over the horizons, but
``max_in_window`` and ``sum_in_window`` are no longer read off the same
marks: their joint law within a window is not the path's.  The comonotone
regimes take the max of the drawn marks.

Hawkes windows can also keep ``leftover_intensity``, the conditional mean
of Lambda_T given the window's immigrant counts per horizon slot.
Lambda_T = sum over the points p with t_p <= T of kappa_p exp(-beta (T - t_p))
is the mean number of children that the points by T still have after T.
Those children are Poisson, independent of the path up to T, and each
starts a subtree of mean size 1 / (1 - m) and mean mark sum E[X] / (1 - m),
m = E[kappa]; so Lambda_T / (1 - m) and Lambda_T E[X] / (1 - m) are the
conditional means of the leftover count and mark sum given that path.  One
cluster's Lambda(s) at age s decays at rate beta, and its children arrive
at rate beta Lambda(s), each adding an independent kappa of mean m, so
d E[Lambda(s)] / ds = -fade E[Lambda(s)], fade = beta (1 - m).  An immigrant's
kappa is independent of its time, uniform on its slot, so C_r immigrants in
slot r give E[Lambda_{T_s} | C] = m sum_{r <= s} C_r g_r exp(-fade (T_s - T_r)),
g_r = (1 - exp(-fade dT_r)) / (fade dT_r): by the tower property the mean of
Lambda_T, by Rao-Blackwell no larger a variance.  A field set within it
and ``n_clusters`` draws no time, kappa, mark or offspring, in either regime.

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

from .clusters import (
    _CHUNK_BYTES,
    HawkesParams,
    RenewalParams,
    _chunk_size,
    chunked_fill,
    grow_hawkes,
)
from .errors import ClusterOverflow, ModelError
from .heavytail import (
    BoundedUniform,
    Exponential,
    JointMarkModel,
    _poisson_span,
    count_survival,
    count_variance,
    model_constants,
    sample_joint,
)
from .rng import RngStream

__all__ = [
    "WindowConfig",
    "WINDOW_FIELDS",
    "check_mean_events",
    "mean_events",
    "event_moments",
    "sweep_windows",
]


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


# 10^6 exponential-wait terms take mean_events about 3 s and 150 MB on a 2-core host
MEAN_EVENTS_BUDGET = 1e6


def check_mean_events(config: WindowConfig, horizons) -> None:
    """Raise ModelError on ``waiting`` where :func:`mean_events` would outgrow its budget.

    A renewal r-sum runs to about T / E[W] terms at the longest horizon T.
    For uniform waits each term is a pass over T / (hi - lo) + 1 lattice
    cells in each of the lattice's rows, one row per distinct fractional
    part of (T - r lo) / (hi - lo) over the terms r with r lo < T (see
    :func:`~cluster_tails.heavytail._irwin_hall_shortfall`).  The terms, or
    terms times rows times cells, must be at most MEAN_EVENTS_BUDGET; the
    rows are counted only once the terms are within it.
    """
    if config.model.is_hawkes:
        return
    waiting, t = config.cluster_params.waiting_law, float(np.max(horizons, initial=0.0))
    mean_wait = waiting.mean()
    work = t / mean_wait if mean_wait > 0 else np.inf
    if isinstance(waiting, BoundedUniform) and work <= MEAN_EVENTS_BUDGET:
        width = waiting.hi - waiting.lo
        y = (t - np.arange(1, int(work) + 1) * waiting.lo) / width
        rows = np.unique(y[y > 0] % 1.0).size
        work *= max(rows, 1) * (t / width + 1.0)
    if not work <= MEAN_EVENTS_BUDGET:
        raise ModelError(
            f"E[N_T] at T = {t:g} would take {work:.3g} steps, over the budget of "
            f"{MEAN_EVENTS_BUDGET:.0e}: the waits are too short for the horizon",
            "waiting",
        )


def mean_events(config: WindowConfig, horizons) -> np.ndarray:
    """E[N_T], the mean number of points in a window of length T, for each horizon T.

    The first half of :func:`event_moments`, whose checks it runs.
    """
    return event_moments(config, horizons)[0]


def event_moments(config: WindowConfig, horizons) -> tuple[np.ndarray, np.ndarray]:
    """E[N_T] and Var N_T, N_T the number of points in a window of length T, for each T.

    N_T sums Y(u), the points by age u of a cluster born u before T, over
    the Poisson(nu) immigrants, so E[N_T] = nu int_0^T E[Y(u)] du and
    Var N_T = nu int_0^T E[Y(u)**2] du (Campbell).

    Hawkes, with m = E[kappa], c = beta (1 - m) and beta the decay rate:
    E[N_T] = nu T / (1 - m) - nu m (1 - exp(-c T)) / (beta (1 - m)**2).
    An immigrant's children come at rate kappa beta exp(-beta s) and start
    independent copies of its cluster, so m1 = E[Y(u)] =
    (1 - m exp(-c u)) / (1 - m) and m2 = E[Y(u)**2] =
    2 m1 - 1 + E[kappa**2] A**2 + m B, with A = (m1 - 1) / m =
    (1 - exp(-c u)) / (1 - m) and B(u) = int_0^u beta exp(-beta s) m2(u - s) ds,
    so B' = beta (2 m1 - 1 + E[kappa**2] A**2) - c B, B(0) = 0.  The
    forcing is a sum of 1, exp(-c u) and exp(-2 c u), so B and the integral
    of m2 are closed forms; m2 tends to E[S**2] = (1 - m**2 + E[kappa**2]) / (1 - m)**3,
    S the cluster size.  HawkesComonotoneIntensity has no count control, so
    its Var N_T is not computed and reads inf.

    Renewal: E[N_T] = nu T + nu sum_{r >= 1} P(K >= r) E[(T - S_r)^+] and
    Var N_T = nu T + nu sum_{r >= 1} (2r + 1) P(K >= r) E[(T - S_r)^+],
    S_r the sum of r waits, which are independent of K: Y(u) = 1 + Z with
    Z = min(K, #{r : S_r <= u}), so E[Y**2] = 1 + sum_r (2r + 1) P(Z >= r).
    Both r-sums read one table of shortfalls and one of P(K >= r), and stop
    at the first n of 64, 128, 256, ... with E[(T - S_n)^+] E[K] <= 1e-15 T:
    the shortfall never grows with r, so the terms past n add at most
    E[(T - S_n)^+] sum_{r > n} P(K >= r) <= E[(T - S_n)^+] E[K] to the
    mean, below 1e-15 of E[N_T] >= nu T, and at most
    E[(T - S_n)^+] E[K**2 + 2K] to the variance, below
    1e-15 (E[K**2] / E[K] + 2) of Var N_T >= nu T where E[K**2] is finite.
    :func:`check_mean_events` runs first.
    """
    ts = np.asarray(horizons, dtype=float)
    check_mean_events(config, ts)
    model, nu = config.model, config.nu
    m = model_constants(model).mean_count
    if model.is_hawkes:
        decay = config.cluster_params.decay_rate
        fade = -np.expm1(-decay * (1.0 - m) * ts)
        means = nu * ts / (1.0 - m) - nu * m * fade / (decay * (1.0 - m) ** 2)
        return means, _hawkes_event_variance(model, m, decay, nu, ts)
    waiting = config.cluster_params.waiting_law
    shortfalls = [
        next(s for s in _shortfalls(waiting, t) if s[-1] * m <= 1e-15 * t) for t in ts
    ]
    # P(K > r), r = 0 .. n - 1, for the longest range n: each horizon's prefix
    # is bit-equal to a call over its own range, since _poisson_sf sums from
    # the Poisson span's ends, not the range's
    survival = count_survival(model, np.arange(max((s.size for s in shortfalls), default=0)))
    odd = survival * (2.0 * np.arange(1, survival.size + 1) + 1.0)
    means = np.array([nu * (t + survival[: s.size] @ s) for t, s in zip(ts, shortfalls)])
    variances = np.array([nu * (t + odd[: s.size] @ s) for t, s in zip(ts, shortfalls)])
    return means, variances


def _hawkes_event_variance(
    model: JointMarkModel, m: float, decay: float, nu: float, ts: np.ndarray
) -> np.ndarray:
    """Var N_T = nu int_0^T m2(u) du for a Hawkes window, m = E[kappa], in closed form.

    See :func:`event_moments`.  With d = 1 - m and k2 = E[kappa**2],
    2 m1 - 1 + k2 A**2 is a0 + a1 exp(-c u) + a2 exp(-2 c u), so
    B = beta (a0 (1 - exp(-c u)) / c + a1 u exp(-c u) + a2 (exp(-c u) - exp(-2 c u)) / c),
    and beta / c = 1 / d.  With no offspring (m = 0, so kappa = 0) this is
    nu T; with E[kappa**2] = inf, m2(u) >= E[kappa**2] A**2 is infinite for
    every u > 0, and so is Var N_T.  :func:`count_variance` gives inf for the
    comonotone regime, whose variance no count control reads.
    """
    d, k2 = 1.0 - m, count_variance(model) + m * m
    if np.isinf(k2):
        return np.full(ts.shape, np.inf)
    a0, a1, a2 = (1.0 + m) / d + k2 / d**2, -2.0 * (m / d + k2 / d**2), k2 / d**2
    c = decay * d
    e1 = -np.expm1(-c * ts) / c  # int_0^T exp(-c u) du
    e2 = -np.expm1(-2.0 * c * ts) / (2.0 * c)  # int_0^T exp(-2 c u) du
    u1 = (e1 - ts * np.exp(-c * ts)) / c  # int_0^T u exp(-c u) du
    direct = a0 * ts + a1 * e1 + a2 * e2
    offspring = a0 * (ts - e1) / d + decay * a1 * u1 + a2 * (e1 - e2) / d
    return nu * (direct + m * offspring)


def _shortfalls(waiting, t: float):
    """E[(t - S_r)^+] for r = 1 .. n, for n = 64, 128, 256, ... in turn.

    Exponential waits ask once: from the upper end of the Poisson(rate t)
    span on the shortfall is 0, so the doubling stops at the first n past
    it at the latest, and since :meth:`Exponential.shortfall` sums down
    from that end whatever r it is asked for, each prefix of the one vector
    is bit-equal to its own call.  Other laws are asked for each n.
    """
    n, whole = 64, None
    if isinstance(waiting, Exponential):
        last = max(n, 1 << (_poisson_span(waiting.rate * t)[1] - 1).bit_length())
        whole = waiting.shortfall(t, np.arange(1, last + 1))
    while True:
        yield waiting.shortfall(t, np.arange(1, n + 1)) if whole is None else whole[:n]
        n *= 2


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
# leftover count and sum are tallied per horizon directly
_SLOTTED = {"n_events", "sum_in_window", "max_in_window", "n_clusters"}

# the Hawkes statistics read off the cell counts alone: see _HorizonTally.cell_counts
_CELL_FIELDS = {"leftover_intensity", "n_clusters"}

# the branches of a window chunk's stream (RngStream.branch): the chunk's own
# generator draws the structure (immigrant times, K or kappa, waits, broods)
_MARKS, _MAXIMA = 1, 2


class _HorizonTally:
    """Window statistics at every horizon, reduced from one path per window.

    A point's slot is the number of horizons before its time, so
    ``len(horizons)`` means past the last one.  At horizon i a window holds
    the immigrants and offspring in slots <= i, so in-window statistics are
    reduced per (window, slot) and accumulated over slots at the end.  An
    offspring point is leftover at horizon i when its immigrant's slot is
    <= i < its own slot.  Only the statistics named in ``fields`` are kept;
    ``leftover_intensity`` needs the Hawkes decay rate ``decay``.

    Hawkes immigrants come cell by cell (:func:`_cell_counts`), so their
    counts and ``leftover_intensity`` are read off the cell counts
    (:meth:`cell_counts`); renewal immigrants and all offspring are keyed
    by window and slot.

    Where the model's marks are independent of its counts, ``max_in_window``
    reads no mark: it is drawn from the in-window event counts alone
    (:meth:`result`).  ``reads_marks`` says whether a kept statistic reads
    the points' marks; the comonotone regimes draw marks in any case, since
    their counts derive from them (:meth:`mark_generator`).
    """

    def __init__(
        self, horizons: np.ndarray, n: int, fields, model: JointMarkModel, decay: float | None = None
    ) -> None:
        if "leftover_intensity" in fields and decay is None:
            raise ModelError(
                "leftover_intensity needs a Hawkes model: renewal points carry no intensity",
                "fields",
            )
        self.horizons = horizons
        self.n = n
        self.decay = decay
        self.fields = set(fields)
        self.model = model
        slotted = self.fields & _SLOTTED
        if model.independent_marks and "max_in_window" in slotted:
            # drawn from the in-window counts at the end: see result
            slotted = (slotted - {"max_in_window"}) | {"n_events"}
        self.reads_marks = bool(slotted & {"sum_in_window", "max_in_window"}) or (
            "leftover_sum" in self.fields
        )
        k = len(horizons)
        dtype = {"n_events": np.int64, "j_leftover": np.int64, "n_clusters": np.int64}
        # flat over (window, slot), window-major: see _reduce
        self.slotted = {
            f: np.zeros((k + 1) * n, dtype.get(f, float)) for f in _FIELDS if f in slotted
        }
        self.leftover = {
            f: np.zeros((k, n), dtype.get(f, float))
            for f in ("j_leftover", "leftover_sum")
            if f in self.fields
        }
        self.lam = None

    def mark_generator(self, rng: RngStream) -> np.random.Generator | None:
        """The chunk's marks branch, if a kept statistic reads marks or the counts derive from them."""
        if self.reads_marks or not self.model.independent_marks:
            return rng.branch(_MARKS).generator
        return None

    def slot(self, times: np.ndarray) -> np.ndarray:
        """The slot of each time, in the narrowest dtype that holds it."""
        slot = np.zeros(times.size, dtype=np.min_scalar_type(len(self.horizons)))
        for h in self.horizons:
            slot += times > h
        return slot

    def _per_slot(self, flat: np.ndarray) -> np.ndarray:
        """A window-major tally's (slot, window) view, without the slot past the last horizon."""
        return flat.reshape(self.n, len(self.horizons) + 1)[:, :-1].T

    def cell_counts(self, cells: np.ndarray) -> None:
        """Immigrants counted per cell (``cells[s, w]`` in window w's slot s), and their ``leftover_intensity``."""
        for f in ("n_events", "n_clusters"):
            if f in self.slotted:
                self._per_slot(self.slotted[f])[...] += cells
        if "leftover_intensity" in self.fields:
            # an immigrant of slot r adds E[kappa] g_r to E[Lambda_{T_r}], which
            # decays by exp(-fade (T_s - T_r)) by T_s: see the module docstring
            m = model_constants(self.model).mean_count
            fade = self.decay * (1.0 - m) * np.diff(self.horizons, prepend=0.0)
            g = np.ones_like(fade)  # g's limit where fade dT underflows to 0
            np.divide(-np.expm1(-fade), fade, out=g, where=fade > 0)
            self.lam = lam = cells * (m * g)[:, None]
            for i, carry in enumerate(np.exp(-fade[1:]), 1):
                lam[i] += lam[i - 1] * carry

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

    def immigrants(
        self, win: np.ndarray, slot: np.ndarray, marks: np.ndarray | None, counted: bool = False
    ) -> None:
        """Immigrant points; an intp ``win`` is overwritten.

        ``marks`` may be None unless ``reads_marks``.  ``counted`` says that
        :meth:`cell_counts` has counted them already.
        """
        self._reduce(win, slot, marks, () if counted else ("n_events", "n_clusters"))

    def offspring(
        self,
        win: np.ndarray,
        slot: np.ndarray,
        marks: np.ndarray | None,
        home: np.ndarray | None,
    ) -> None:
        """Offspring points; an intp ``win`` is overwritten.

        ``marks`` may be None unless ``reads_marks``; ``home`` (their
        immigrants' slots) is needed for leftover only.
        """
        if self.leftover:
            out = slot > home
            self._leftover(win[out], slot[out], home[out], None if marks is None else marks[out])
        self._reduce(win, slot, marks, ("n_events",))

    def _leftover(self, win, slot, home, marks) -> None:
        j, eps = self.leftover.get("j_leftover"), self.leftover.get("leftover_sum")
        for i in range(len(self.horizons)):
            hit = (home <= i) & (slot > i)
            if j is not None:
                j[i] += np.bincount(win[hit], minlength=self.n)
            if eps is not None:
                eps[i] += np.bincount(win[hit], weights=marks[hit], minlength=self.n)

    def result(self, rng: RngStream) -> dict[str, np.ndarray]:
        """Each kept statistic as a (horizon, window) array.

        A max read from the counts is drawn here, from ``rng``'s maxima
        branch: a window's in-window marks are i.i.d. and independent of its
        event counts, so its max at each horizon is the running max of one
        i.i.d. sequence, read at the in-window counts (the mark law's
        ``sample_running_max``).  The last horizon's max takes the first
        uniforms, so it does not depend on the other horizons.
        """
        out = dict(self.leftover)
        for f, flat in self.slotted.items():
            out[f] = (np.maximum.accumulate if f == "max_in_window" else np.cumsum)(
                self._per_slot(flat), axis=0
            )
        if self.lam is not None:
            out["leftover_intensity"] = self.lam
        if "max_in_window" in self.fields and "max_in_window" not in out:
            gen = rng.branch(_MAXIMA).generator
            out["max_in_window"] = self.model.mark_law.sample_running_max(gen, out["n_events"])
        return {f: out[f] for f in self.fields}


# a renewal window chunk's tracemalloc peak, every statistic kept: per
# immigrant, per offspring and per (window, slot) cell, for the tallies and
# results.  An offspring point costs 18 B in its immigrant's slot and up to
# 54 B past a horizon its immigrant is not past (the leftover tallies copy
# it); it is priced at the upper end, since the horizons decide the share.
# Measured over 1 to 100 horizons, T = 1 to 100 and E[K] = 0 to 100
_IMMIGRANT_BYTES, _OFFSPRING_BYTES, _CELL_BYTES = 40, 56, 72


def _renewal_windows(
    config: WindowConfig, horizons: np.ndarray, n: int, rng: RngStream, fields
) -> dict[str, np.ndarray]:
    # chunk-sized arrays are freed as soon as they are used: the draws keep
    # their order, but no array lives longer than its last use
    model, t_max = config.model, float(horizons[-1])
    tally = _HorizonTally(horizons, n, fields, model)
    gen, marks = rng.generator, tally.mark_generator(rng)
    c_t = gen.poisson(config.nu * t_max, n)
    m = int(c_t.sum())
    tau = gen.uniform(0.0, t_max, m)
    x, k = sample_joint(model, marks, gen, m)
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
    tally.offspring(
        np.repeat(np.arange(n), per_window),
        slot,
        np.asarray(model.mark_law.sample(marks, total), dtype=float) if tally.reads_marks else None,
        np.repeat(home, k) if tally.leftover else None,
    )
    return tally.result(rng)


def _cell_counts(gen: np.random.Generator, nu: float, horizons: np.ndarray, n: int) -> np.ndarray:
    """The immigrant counts of n windows on [0, T_k], per (slot, window) cell.

    A Poisson process restricted to disjoint intervals has independent
    Poisson counts there, each with uniform points (Daley & Vere-Jones), so
    window w has ``cells[s, w]`` ~ Poisson(nu (T_s - T_{s-1})) immigrants in
    slot s (T_0 = 0).  With one horizon the draw is that of
    ``gen.poisson(nu T, n)``, bit for bit.  Each slot is drawn with its
    scalar mean, the same draws as one broadcast call, in less time.
    """
    return np.stack([gen.poisson(lam, n) for lam in nu * np.diff(horizons, prepend=0.0)])


def _cell_times(gen: np.random.Generator, horizons: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """The immigrants' times given their cell counts: T_{s-1} + (T_s - T_{s-1}) U in slot s.

    They are stored slot-major, windows ascending within a slot, so each
    (slot, window) cell is one stretch.  A time is rounded, so a gap between
    horizons narrower than its rounding can put it on T_{s-1}; it stays in
    slot s.  With one horizon the draw is that of
    ``gen.uniform(0, T, cells.sum())``, bit for bit.
    """
    start = np.concatenate(([0.0], horizons[:-1]))
    width = horizons - start
    per_slot = cells.sum(axis=1)
    times = gen.random(int(per_slot.sum()))
    lo = 0
    for t0, dt, hi in zip(start, width, np.cumsum(per_slot)):
        times[lo:hi] *= dt
        times[lo:hi] += t0
        lo = hi
    return times


def _hawkes_windows(
    config: WindowConfig, horizons: np.ndarray, n: int, rng: RngStream, fields
) -> dict[str, np.ndarray]:
    model, k = config.model, len(horizons)
    params: HawkesParams = config.cluster_params
    tally = _HorizonTally(horizons, n, fields, model, params.decay_rate)
    gen = rng.generator
    cells = _cell_counts(gen, config.nu, horizons, n)
    tally.cell_counts(cells)
    # the cell counts alone give leftover_intensity and n_clusters; a cascade
    # draws the times, x0 and kappa, and the broods after them
    if tally.fields <= _CELL_FIELDS:
        return tally.result(rng)
    marks = tally.mark_generator(rng)
    evt_time = _cell_times(gen, horizons, cells)
    x0, kappa = sample_joint(model, marks, gen, evt_time.size)
    brood = gen.poisson(kappa)
    del kappa
    # chunk-sized arrays: hold only what the generation loop needs, whose
    # first generation is the chunk's memory peak
    home = np.repeat(np.arange(k, dtype=np.min_scalar_type(k)), cells.sum(axis=1))
    # a chunk holds at most 2**16 windows, so this is uint16 or narrower
    windows = np.tile(np.arange(n, dtype=np.min_scalar_type(n - 1)), k)
    win_of_cluster = np.repeat(windows, cells.ravel())
    tally.immigrants(win_of_cluster, home, x0, counted=True)
    del x0, windows

    def draw(brood, owner, runs):
        nonlocal evt_time
        dt = gen.exponential(1.0 / params.decay_rate, owner.size)
        evt_time = np.repeat(evt_time, brood)
        evt_time += dt
        del dt
        xc, kc = sample_joint(model, marks, gen, owner.size)
        win, slot = win_of_cluster[owner], tally.slot(evt_time)
        tally.offspring(win, slot, xc, home[owner] if tally.leftover else None)
        return kc

    try:
        grow_hawkes(gen, brood, params.max_cluster_events, draw)
    except ClusterOverflow as exc:
        raise ClusterOverflow(int(win_of_cluster[exc.replication]), exc.limit) from None
    return tally.result(rng)


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
    same draws, so each statistic is the same array whatever else is kept:
    the marks, the maxima and the structure come from separate streams (see
    the module docstring), and a subset that reads no mark draws none.  In
    the independent-mark regimes ``max_in_window`` is drawn from the
    in-window counts, not read off the marks that ``sum_in_window`` sums.

    Output is bit-identical for any worker count: chunk boundaries depend
    only on the configuration and the longest horizon, and chunk i always
    draws from ``rng.child(i)``.  A Hawkes field set within
    ``leftover_intensity`` and ``n_clusters`` runs in this process whatever
    ``workers`` is: each of its chunks is one Poisson draw of the cell
    counts, far cheaper than starting a process pool.
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
    if config.model.is_hawkes and set(fields) <= _CELL_FIELDS:
        workers = 1
    immigrants, consts = config.nu * float(hs[-1]), model_constants(config.model)
    if config.model.is_hawkes:
        # about 2**21 expected points a chunk, not the byte budget: the
        # cell-count-only leftover sweep must use the cascade's chunk
        # boundaries (field-subset invariance), and at a quarter of this size
        # a leftover-hawkes pass ran slower (14 to 18 against 9 to 11.5 ms)
        # at no lower peak RSS
        per_window = immigrants * consts.mean_cluster_size * (_CHUNK_BYTES / (1 << 21))
    else:
        per_cluster = _IMMIGRANT_BYTES + _OFFSPRING_BYTES * consts.mean_count
        per_window = immigrants * per_cluster + _CELL_BYTES * (hs.size + 1)
    chunk = _chunk_size(per_window, 1 << 6, 1 << 16)
    out = chunked_fill(partial(kernel, config, hs, fields=fields), n, chunk, rng, workers)
    return {name: out[name] for name in fields}
