"""Object-level reference samplers for one cluster, exact means and joint tails, used only by the tests.

Each sampler draws one cluster event by event, with its times, marks and
family tree, from scalar draws.  The tests check the vectorized batch and
window kernels of the package against these, as an independent route.  The
joint tails P(X + c K > x) are computed one x at a time, by a series or a
walk over slices, against the package's forms that take a whole grid.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, factorial, floor, sqrt

import numpy as np
from scipy.special import gammainc

from cluster_tails.clusters import HawkesParams, RenewalParams
from cluster_tails.errors import ClusterOverflow, ModelError
from cluster_tails.heavytail import JointMarkModel, Regime, _poisson_pmf, _poisson_sf, sample_joint
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
