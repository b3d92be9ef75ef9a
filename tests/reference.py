"""Object-level reference samplers for one cluster, exact means and joint tails, used only by the tests.

Each sampler draws one cluster event by event, with its times, marks and
family tree, from scalar draws.  The tests check the vectorized batch and
window kernels of the package against these, as an independent route.  The
joint tails P(X + c K > x) are computed one x at a time, by a series or a
walk over slices, against the package's forms that take a whole grid, and
by a Monte Carlo oracle drawn from its own seed.  The
exact cluster-max laws of the regimes with independent marks, by their
pgfs, check the conditional estimator of the cluster-max tail; the exact
window-max law of a Poisson-count renewal model checks the ldp-max sweep's.
The conditional estimator as it was before the count became its control
variate is kept here, to check that the estimator without a control mean
is still that one, bit for bit; so is the node-by-node Hawkes cluster
cascade (:func:`grow_hawkes`), which shares no code with the package's one
generation loop and checks the batch functionals' generation totals.  The
bracket on the discrete Hawkes cluster sum by dynamic programming over a
truncated branching tree checks that law's transform, and so does the
same transform in extended precision, up to the largest lattice it takes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import ceil, comb, exp, expm1, factorial, floor, log1p, sqrt

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammainc, gammaln

from cluster_tails.clusters import HawkesParams, RenewalParams, _chunk_size, chunked_map
from cluster_tails.errors import ClusterOverflow, ModelError
from cluster_tails.heavytail import (
    BoundedUniform,
    Constant,
    JointMarkModel,
    Regime,
    _count_pmf,
    _poisson_pmf,
    _poisson_sf,
    sample_joint,
)
from cluster_tails.oracle import DiscreteJointModel, _hawkes_lattice, _lattice_step
from cluster_tails.rng import RngStream


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


def sample_renewal_cluster(
    model: JointMarkModel, params: RenewalParams, rng: RngStream
) -> Cluster:
    """One renewal cluster: joint (X, K), then K offspring at renewal times."""
    if not model.is_renewal:
        raise ModelError(f"{model.regime.value} is not a renewal regime", "regime")
    gen = rng.generator
    x, k = sample_joint(model, gen, gen)
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
    x0, kappa0 = sample_joint(model, gen, gen)
    events: list[OffspringEvent] = []
    # queue entries: (parent index or None, parent offset, parent kappa, generation of children)
    queue: deque = deque([(None, 0.0, float(kappa0), 1)])
    while queue:
        parent_idx, parent_t, kappa, child_gen = queue.popleft()
        for _ in range(int(gen.poisson(kappa))):
            if 1 + len(events) >= params.max_cluster_events:
                raise ClusterOverflow(0, params.max_cluster_events)
            dt = gen.exponential(1.0 / params.decay_rate)
            xc, kc = sample_joint(model, gen, gen)
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
    """Grows Hawkes clusters from their immigrants, one generation at a time, node by node; returns their sizes.

    The package's window kernels grew their cascades by this loop before
    they grew them through :func:`~cluster_tails.clusters._grown_sizes`.
    ``brood`` holds the immigrants' child counts, Poisson(kappa) draws the
    caller makes, and every later node has Poisson(kappa) children too.  A
    generation's nodes come in runs, one per cluster still growing.
    ``draw(brood, owner)`` gets each parent's child count and each child's
    cluster; it draws the children and returns their intensities.  A
    cluster that grows past ``limit`` events raises
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
        brood = gen.poisson(np.asarray(draw(brood, owner), dtype=float))
        if not brood.any():
            break
        starts, live = _runs(owner)
        bad = _add_broods(born, live, starts, brood, limit)
        if bad is not None:
            raise ClusterOverflow(bad, limit)
        owner = np.repeat(owner, brood)
    born += 1
    return born


def hawkes_cascade_functionals(
    model: JointMarkModel, n: int, rng: RngStream, max_events: int = 10**7
) -> dict[str, np.ndarray]:
    """The max H, sum D and size of n Hawkes clusters, grown node by node.

    Every node draws its own (X, kappa) and then Poisson(kappa) children, a
    generation of all n clusters at a time, with :func:`grow_hawkes`, a
    generation loop over nodes that shares no code with the package's
    :func:`~cluster_tails.clusters._grown_sizes`: the route the batch
    functionals took before they drew sizes from the exact size law or
    grew by generation totals.
    """
    gen = rng.generator
    x, kappa = sample_joint(model, gen, gen, n)
    h, d = x.astype(float), x.astype(float)

    def draw(brood, owner):
        xc, kc = sample_joint(model, gen, gen, owner.size)
        np.maximum.at(h, owner, xc)
        d[:] += np.bincount(owner, weights=xc, minlength=n)
        return kc

    sizes = grow_hawkes(gen, gen.poisson(kappa), max_events, draw)
    return {"h": h, "d": d, "sizes": sizes}


def functional_max(cluster: Cluster) -> float:
    """Largest mark in the cluster, immigrant included."""
    if not cluster.events:
        return cluster.immigrant_mark
    return max(cluster.immigrant_mark, max(e.mark for e in cluster.events))


def functional_sum(cluster: Cluster) -> float:
    """Sum of all marks in the cluster, immigrant included."""
    return cluster.immigrant_mark + sum(e.mark for e in cluster.events)


def hawkes_leftover_mean(nu: float, mean_kappa: float, decay: float, horizon: float) -> float:
    """E[J_T] of a Hawkes window by Campbell's formula: nu * sum_g m**g E[min(Gamma_g, T)].

    An immigrant arrives u before T, uniformly on [0, T]; it has m**g
    generation-g descendants on average, each Gamma(g, decay) after it, and
    such a descendant is left over when its delay exceeds u.
    """
    g = np.arange(1, 400)
    bt = decay * horizon
    expected_min = horizon * (1.0 - gammainc(g, bt)) + g / decay * gammainc(g + 1, bt)
    return nu * float(np.sum(mean_kappa**g * expected_min))


def immigrant_intensity(
    cells: np.ndarray, times: np.ndarray, kappa: np.ndarray, horizons, fade: float
) -> np.ndarray:
    """Sum of kappa_i exp(-fade (T - t_i)) over each window's immigrants by T, per horizon T.

    ``cells[s, w]`` counts window w's immigrants in horizon slot s, and
    ``times`` and ``kappa`` hold them slot-major, windows ascending within a
    slot.  With fade = beta (1 - E[kappa]) this is E[Lambda_T | immigrants],
    Lambda_T a Hawkes window's decayed intensity at T.  Returns a (horizon,
    window) array.
    """
    k, n = cells.shape
    win = np.repeat(np.tile(np.arange(n), k), cells.ravel())
    slot = np.repeat(np.arange(k), cells.sum(axis=1))
    out = np.empty((k, n))
    for i, horizon in enumerate(horizons):
        by_t = slot <= i
        terms = kappa[by_t] * np.exp(-fade * (horizon - times[by_t]))
        out[i] = np.bincount(win[by_t], weights=terms, minlength=n)
    return out


def irwin_hall_shortfall(y: Fraction, r: int) -> Fraction:
    """E[(y - U_r)^+] for U_r the sum of r independent U(0, 1), in exact rationals.

    It is the integral of the Irwin-Hall cdf over [0, y]:
    sum_{k <= y} (-1)**k C(r, k) (y - k)**(r + 1) / (r + 1)!.  The terms
    alternate and cancel, which rational arithmetic survives and floats do
    not; it takes seconds at y in the hundreds.
    """
    y = Fraction(y)
    terms = (
        (-1) ** k * comb(r, k) * (y - k) ** (r + 1) for k in range(r + 1) if y > k
    )
    return sum(terms, Fraction(0)) / factorial(r + 1)


def independent_count_joint_tail(model: JointMarkModel, c: float, x: float) -> float:
    """P(X + c K > x) for a count K independent of X and c > 0, by conditioning on K.

    From k0, the first count with x - c k0 at or below the mark support,
    every mark qualifies, so this is
    sum_{k < k0} P(K = k) P(X > x - c k) + P(K >= k0), with the count's pmf
    and tail built afresh for this x alone.
    """
    lo = model.mark_law.support_min
    if x <= lo:
        return 1.0
    k0 = ceil((x - lo) / c)
    ks = np.arange(k0)
    if model.regime is Regime.INDEPENDENT_LIGHT_COUNT:
        pmf = _poisson_pmf(ks, model.count_param)
        tail = float(_poisson_sf(k0 - 1, model.count_param))
    else:  # K = ceil(Z): P(K = k) = P(Z > k - 1) - P(Z > k)
        z = model.count_param
        pmf = np.asarray(z.survival(ks - 1.0)) - np.asarray(z.survival(ks.astype(float)))
        tail = float(z.survival(float(k0 - 1)))
    vals = np.asarray(model.mark_law.survival(x - c * ks))
    return float(np.dot(pmf, vals) + tail)


def comonotone_count_joint_tail(model: JointMarkModel, c: float, x: float) -> float:
    """P(X + c ceil(X) > x) for Pareto X, slice by slice of K = ceil(X).

    On the slice {K = k}, X in (k - 1, k], the event is {X > x - c k}; the
    walk over k stops at the first slice that lies wholly inside the event,
    where the rest of the tail is added at once.
    """
    law = model.mark_law
    lo = law.support_min
    if x <= lo:
        return 1.0
    total = 0.0
    k = floor(lo) + 1
    while True:
        slice_lo = max(lo, float(k - 1))
        if x - c * k <= slice_lo:
            total += float(law.survival(slice_lo))
            break
        threshold = x - c * k
        if threshold < k:
            total += float(law.survival(threshold)) - float(law.survival(float(k)))
        k += 1
    return min(1.0, total)


@dataclass(frozen=True)
class OracleSpec:
    """How to draw the MC-oracle joint tails: sample size and seed."""

    size: int = 10_000_000
    seed: int = 0


# an oracle chunk's tracemalloc peak per draw: X, the count and their sum.
# Measured at 24.0 to 24.3 B, and 32.0 B where the count is ceil(Pareto)
_ORACLE_DRAW_BYTES = 33


def _oracle_counts(model: JointMarkModel, c: float, xs: np.ndarray, m: int, rng: RngStream):
    """How many of m joint draws have X + c*count > x, for each x of ``xs``."""
    gen = rng.generator
    pair = sample_joint(model, gen, gen, m)
    # the same sums as x + c * float(count), built and sorted in one array
    total = np.multiply(pair.count, c, dtype=float)
    total += pair.x
    del pair
    total.sort()
    return m - np.searchsorted(total, xs, side="right")


def joint_tail_mc(model: JointMarkModel, c: float, x, spec: OracleSpec) -> np.ndarray:
    """P(X + c*count > x) by high-precision MC: ``spec.size`` draws from ``spec.seed``.

    The draws depend only on the model and the spec, so a rerun reproduces
    the probabilities bit for bit.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    kernel = partial(_oracle_counts, model, c, xs)
    chunk = _chunk_size(_ORACLE_DRAW_BYTES, 1 << 12, 1 << 20)
    # root 1: an experiment runs on root 0, so at equal seeds the two share no draws
    parts = chunked_map(kernel, spec.size, chunk, RngStream(spec.seed, 1))
    return sum(parts, np.zeros(len(xs), dtype=np.int64)) / float(spec.size)


def renewal_cluster_max_tail(model: JointMarkModel, x: float) -> float:
    """P(H > x) for a renewal cluster whose marks are independent of K, by the pgf G of K.

    H <= x when the immigrant and each of the K offspring marks are, so
    P(H <= x) = F G(F), F = F(x).  It is written as
    sf + F sum_k P(K = k) (1 - F**k), each 1 - F**k as an expm1, so no
    digit is lost to 1 - (a number near 1).  For K = ceil(Z) the series
    runs to kmax, where F**kmax < e**-40, and P(K >= kmax) stands in for
    the rest of it, which lies between P(K >= kmax) (1 - F**kmax) and that.
    """
    sf = float(model.mark_law.survival(x))
    log_f = log1p(-sf)
    if model.regime is Regime.INDEPENDENT_LIGHT_COUNT:
        # G(F) = exp(mu (F - 1))
        return -expm1(log_f - model.count_param * sf)
    if model.regime not in (Regime.INDEPENDENT_HEAVY_COUNT, Regime.INDEPENDENT_TAIL_EQUIVALENT):
        raise ValueError(f"{model.regime.value} has no independent renewal count")
    kmax = max(1_000, ceil(40.0 / sf))
    pmf = _count_pmf(model, kmax)
    rest = float(model.count_param.survival(kmax - 1.0))  # P(K >= kmax) = P(Z > kmax - 1)
    series = float(pmf @ -np.expm1(np.arange(kmax) * log_f)) + rest
    return sf + (1.0 - sf) * series


def _intensity_mgf(model: JointMarkModel, t: float) -> float:
    """E[exp(t kappa)] for t <= 0 in HawkesLightIntensity, kappa = s U with U the base law."""
    base, s = model.count_param, model.intensity_scale_factor()
    if isinstance(base, Constant):
        return exp(t * s * base.value)
    if isinstance(base, BoundedUniform):
        a, b = t * s * base.lo, t * s * base.hi
        return 1.0 if a == b else (expm1(b) - expm1(a)) / (b - a)
    raise ValueError(f"no mgf for the intensity base law {base!r}")


def hawkes_cluster_size_pmf(model: JointMarkModel, kmax: int) -> np.ndarray:
    """P(S = k), k = 0 .. kmax - 1, for the size S of a HawkesLightIntensity cluster.

    A point has Poisson(kappa) children, so P(C = j) = E[exp(-kappa) kappa**j / j!],
    for kappa = s U uniform on [a, b] the difference of the regularised
    lower incomplete gammas P(j + 1, b) - P(j + 1, a) over b - a.  S is the
    total progeny of a branching process, and by Dwass's formula
    P(S = n) = P(C_1 + ... + C_n = n - 1) / n.
    """
    if model.regime is not Regime.HAWKES_LIGHT_INTENSITY:
        raise ValueError(f"{model.regime.value} is not HawkesLightIntensity")
    base, s = model.count_param, model.intensity_scale_factor()
    j = np.arange(kmax)
    if isinstance(base, Constant):
        children = np.exp(j * np.log(s * base.value) - s * base.value - gammaln(j + 1.0))
    elif isinstance(base, BoundedUniform):
        a, b = s * base.lo, s * base.hi
        children = (gammainc(j + 1.0, b) - gammainc(j + 1.0, a)) / (b - a)
    else:
        raise ValueError(f"no children's pmf for the intensity base law {base!r}")
    pmf, power = np.zeros(kmax), np.zeros(kmax)
    power[0] = 1.0
    for n in range(1, kmax):
        power = np.convolve(power, children)[:kmax]  # the law of C_1 + ... + C_n
        pmf[n] = power[n - 1] / n
    return pmf


def hawkes_cluster_max_tail(model: JointMarkModel, x: float) -> float:
    """P(H > x) for a HawkesLightIntensity cluster, by the fixed point of its pgf.

    A node's subtree stays at or below x when its own mark does and each of
    its Poisson(kappa) children's subtrees does, so g = P(H <= x) solves
    g = F E[exp(kappa (g - 1))], F = F(x).  q = 1 - g is found by ``brentq``
    on [sf(x), 1]: the fixed point is unique there since E[kappa] < 1.
    """
    if model.regime is not Regime.HAWKES_LIGHT_INTENSITY:
        raise ValueError(f"{model.regime.value} is not HawkesLightIntensity")
    sf = float(model.mark_law.survival(x))
    f = 1.0 - sf
    return brentq(
        lambda q: q - (1.0 - f * _intensity_mgf(model, -q)), sf, 1.0, xtol=1e-300, rtol=1e-15
    )


def laplace_derivative_table(values: np.ndarray, s_grid, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The transform derivative's mean and MC standard error on an s-grid, a new summand array per s.

    The summands at s are (-v)**order * exp(-s * v), written as one
    expression over the sorted ``values``.
    """
    vals = np.empty(len(s_grid))
    ses = np.empty(len(s_grid))
    v = values
    power = (-v) ** order
    for i, s in enumerate(s_grid):
        summand = power * np.exp(-s * v)
        vals[i] = summand.mean()
        ses[i] = summand.std(ddof=1) / sqrt(len(v))
    return vals, ses


def renewal_window_max_tail(
    model: JointMarkModel, wait_rate: float, nu: float, horizon: float, x: float
) -> float:
    """P(M_T > x) for an IndependentLightCount model with Exp(``wait_rate``) waits, in closed form.

    An immigrant born u before T has its own mark and min(K, Pi(u)) offspring
    marks by T, Pi the Poisson process of its waits.  With Poisson(nu T)
    immigrants, P(M_T <= x) = exp(-Lambda), where
    Lambda = nu int_0^T (1 - F E[F**min(K, Pi(u))]) du
           = nu (T sf + F sf sum_{r >= 1} F**(r - 1) P(K >= r) E[(T - S_r)^+]),
    since 1 - E[z**M] = (1 - z) sum_r z**(r - 1) P(M >= r), P(M >= r) =
    P(K >= r) P(S_r <= u), and int_0^T P(S_r <= u) du = E[(T - S_r)^+] for
    S_r ~ Gamma(r, wait_rate).  Both probabilities are regularized
    incomplete gammas: P(K >= r) = P(Gamma(r, 1) <= E[K]).
    """
    if model.regime is not Regime.INDEPENDENT_LIGHT_COUNT:
        raise ValueError(f"{model.regime.value} has no Poisson count")
    mu = float(model.count_param)
    sf = float(model.mark_law.survival(x))
    f = 1.0 - sf
    r = np.arange(1, int(mu + 40.0 * sqrt(mu + 1.0)) + 50)
    rate_t = wait_rate * horizon
    shortfall = horizon * gammainc(r, rate_t) - r / wait_rate * gammainc(r + 1, rate_t)
    series = float(np.sum(f ** (r - 1.0) * gammainc(r, mu) * shortfall)) if mu > 0 else 0.0
    return -expm1(-nu * (horizon * sf + f * sf * series))


def renewal_window_count_variance(
    model: JointMarkModel, wait_rate: float, nu: float, horizon: float
) -> float:
    """Var N_T for an IndependentLightCount model with Exp(``wait_rate``) waits, by incomplete gammas.

    An immigrant born u before T has Y(u) = 1 + min(K, Pi(u)) points by T,
    Pi the Poisson process of its waits, and Var N_T = nu int_0^T E[Y(u)**2] du
    (Campbell).  E[Y**2] = 1 + sum_{r >= 1} (2r + 1) P(K >= r) P(S_r <= u),
    so Var N_T = nu (T + sum_r (2r + 1) P(K >= r) E[(T - S_r)^+]), with the
    shortfalls and P(K >= r) as in :func:`renewal_window_max_tail`.
    """
    if model.regime is not Regime.INDEPENDENT_LIGHT_COUNT:
        raise ValueError(f"{model.regime.value} has no Poisson count")
    mu = float(model.count_param)
    r = np.arange(1, int(mu + 40.0 * sqrt(mu + 1.0)) + 50)
    rate_t = wait_rate * horizon
    shortfall = horizon * gammainc(r, rate_t) - r / wait_rate * gammainc(r + 1, rate_t)
    series = float(np.sum((2.0 * r + 1.0) * gammainc(r, mu) * shortfall)) if mu > 0 else 0.0
    return nu * (horizon + series)


def slot_window_counts(
    model: JointMarkModel, rate: float, nu: float, horizons, n: int, gen: np.random.Generator
) -> np.ndarray:
    """In-window event counts of n renewal windows with Exp(rate) waits, drawn cluster by cluster.

    Slot s = (T_{s-1}, T_s] of length L_s has Poisson(nu L_s) immigrants a
    window.  Each draws its K, then Y ~ Poisson(rate L_s U), U uniform, the
    points of its waits' Poisson process before the slot's end, and keeps
    min(K, Y) offspring in its slot; each later slot t takes
    Poisson(rate L_t) more of what is left.  Returns the in-window and
    leftover counts, each a (horizon, window) array.
    """
    lengths = np.diff(np.asarray(horizons, dtype=float), prepend=0.0)
    counts, mass = np.zeros((2, lengths.size, n))
    for s, length in enumerate(lengths):
        win = np.repeat(np.arange(n), gen.poisson(nu * length, n))
        kids = np.asarray(sample_joint(model, None, gen, win.size).count, dtype=np.int64)
        mass[s] += np.bincount(win, 1 + kids, n)
        step = np.minimum(kids, gen.poisson(rate * length * gen.random(win.size)))
        rest = kids - step
        counts[s] += np.bincount(win, 1 + step, n)
        for t in range(s + 1, lengths.size):
            step = np.minimum(rest, gen.poisson(rate * lengths[t], rest.size))
            rest -= step
            counts[t] += np.bincount(win, step, n)
    counts, mass = np.cumsum(counts, axis=0), np.cumsum(mass, axis=0)
    return counts.astype(np.int64), (mass - counts).astype(np.int64)


def sample_variance_z(values: np.ndarray, variance: float) -> float:
    """(sample variance - ``variance``) over the sample variance's standard error, from the fourth moment.

    The sample variance of n i.i.d. values has variance (mu4 - sigma**4) / n
    to first order, mu4 the fourth central moment; both are estimated from
    the sample.
    """
    dev = values - values.mean()
    s2 = dev.var(ddof=1)
    return (s2 - variance) / sqrt(max(float(np.mean(dev**4)) - s2 * s2, 0.0) / values.size)


def plain_conditional_max_tail(counts: np.ndarray, survival: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mean over replications of 1 - F(x)**N and its standard error, grouped by distinct N.

    The package's estimator with no control mean, as it stood before the
    count became its control variate, each x reduced on its own: the tests
    check that it still gives these bits.
    """
    if int(counts.max()) >= counts.size:
        values, weights = np.unique(counts, return_counts=True)
    else:
        tally = np.bincount(counts)
        values = np.flatnonzero(tally)
        weights = tally[values]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = -np.expm1(np.multiply.outer(np.log1p(-survival), values))
    terms[:, values == 0] = 0.0
    n = counts.size
    mean = (terms * weights).sum(axis=1) / n
    var = ((terms - mean[:, None]) ** 2 * weights).sum(axis=1) / (n - 1)
    return mean, np.sqrt(var / n)


def _bshift(u: np.ndarray, shift: int, cap: int) -> np.ndarray:
    out = np.zeros(cap + 1)
    if shift >= cap:
        out[cap] = u.sum()
        return out
    out[shift:cap] = u[: cap - shift]
    out[cap] = u[cap] + u[cap - shift : cap].sum()
    return out


def _bconv(u: np.ndarray, v: np.ndarray, cap: int) -> np.ndarray:
    """Convolution on the lattice with an absorbing 'exceeds x' bucket."""
    w = np.convolve(u[:cap], v[:cap])
    out = np.zeros(cap + 1)
    out[:cap] = w[:cap]
    out[cap] = u[cap] * v.sum() + u[:cap].sum() * v[cap] + w[cap:].sum()
    return out


def truncated_hawkes_sum_tail(
    model: DiscreteJointModel, x: float, max_children: int, max_depth: int
) -> tuple[float, float]:
    """Bracket [lower, upper] for P(D > x) of the discrete Hawkes cascade.

    Dynamic programming over depth, tracking jointly the partial sum on the
    lattice and whether any truncation happened (a node drawing more than
    ``max_children`` children, or any child request at depth ``max_depth``).
    The lower bound gives truncated mass no further contribution; the upper
    bound counts it as exceedance.  Enlarging the truncation never widens
    the bracket.  The work is quadratic in the lattice cells up to x: this
    checks the package's transform, ``oracle.hawkes_sum_tail``.
    """
    if model.kind != "hawkes":
        raise ModelError("hawkes oracle needs a hawkes-kind model", "kind")
    if not x >= 0:  # D >= 0, and the lattice below would count v = 0 as v <= x
        raise ModelError("x must be >= 0", "x")
    step = _lattice_step([x0 for x0, _, _ in model.support])
    cap = max(1, int(floor(x / step + 1e-9)) + 1)  # indices 0..cap-1 hold v <= x
    rows = [(int(round(x0 / step)), kappa, p) for x0, kappa, p in model.support]
    kappas = np.array([kappa for _, kappa, _ in rows])
    # P(l children) for each row, l = 0..max_children, and P(more): the same at every depth
    child_pmf = [_poisson_pmf(l, kappas)[:, None] for l in range(max_children + 1)]
    dropped = _poisson_sf(max_children, kappas)

    # depth-budget 0: resolved iff the node asks for no children at all
    resolved = np.zeros(cap + 1)
    cut = np.zeros(cap + 1)
    for idx, kappa, p in rows:
        p0 = exp(-kappa)
        tgt = min(idx, cap)
        resolved[tgt] += p * p0
        cut[tgt] += p * (1.0 - p0)

    for _ in range(max_depth):
        total_child = resolved + cut
        # each row's mix of l-fold child convolutions, l = 0..max_children,
        # accumulated in order as the powers are built, so only one power is held
        res_pow = np.zeros(cap + 1)
        res_pow[0] = 1.0
        tot_pow = res_pow
        res_mix = np.zeros((len(rows), cap + 1))
        tot_mix = np.zeros((len(rows), cap + 1))
        for l, pl in enumerate(child_pmf):
            if l:
                res_pow = _bconv(res_pow, resolved, cap)
                tot_pow = _bconv(tot_pow, total_child, cap)
            res_mix += pl * res_pow
            tot_mix += pl * tot_pow
        cut_mix = tot_mix - res_mix
        cut_mix[cut_mix < 0] = 0.0
        cut_mix[:, 0] += dropped  # children dropped entirely: partial sum += 0
        resolved = np.zeros(cap + 1)
        cut = np.zeros(cap + 1)
        for (idx, _, p), res_row, cut_row in zip(rows, res_mix, cut_mix):
            resolved += p * _bshift(res_row, idx, cap)
            cut += p * _bshift(cut_row, idx, cap)

    lower = float(resolved[cap] + cut[cap])
    upper = float(resolved[cap] + cut.sum())
    return lower, upper


def hawkes_sum_tail_extended(model: DiscreteJointModel, xs) -> list[float]:
    """P(D > x) for each x from ``oracle.hawkes_sum_tail``'s transform, in ``np.longdouble``.

    The same lattice and the same n tilted points (``oracle._hawkes_lattice``),
    so the values carry the same aliases; but the root is taken by Newton's
    method until its steps are below 1e-17, and each x's cell is inverted by
    a direct sum over all n points, so they carry none of the package's
    double rounding.  This checks its rounding bound up to the largest
    lattice that it takes.
    """
    step, _, n = _hawkes_lattice(model, max(xs))
    rows = [(round(x0 / step), kappa, p) for x0, kappa, p in model.support]
    pi = np.longdouble("3.14159265358979323846264338327950288")
    j = np.arange(n).astype(np.longdouble)
    log_z = (np.longdouble(-30.0) / n + 1j * (2 * pi * j / n)).astype(np.clongdouble)
    u = sum(np.longdouble(p) * np.expm1(c * log_z) for c, _, p in rows)
    for _ in range(100):
        f, slope = u.copy(), np.ones_like(u)
        for c, kappa, p in rows:
            w = np.expm1(c * log_z + np.longdouble(kappa) * u)
            f -= np.longdouble(p) * w
            slope -= np.longdouble(p * kappa) * (w + 1)
        newton = f / slope
        u -= newton
        if np.abs(newton).max() < 1e-17:
            break
    values = u / np.expm1(log_z)
    out = []
    for x in xs:
        k = floor(x / step + 1e-9)
        kernel = np.exp(-1j * (2 * pi * ((j * k) % n) / n)).astype(np.clongdouble)
        out.append(float((values * kernel).sum().real / n * np.exp(np.longdouble(30.0) * k / n)))
    return out
