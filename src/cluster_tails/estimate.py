"""Empirical-tail machinery.

One tail table behind every printed tail (:func:`tail_table`: a tail
estimate with its 95% band over a denominator, certified by exceedance
counts), ratio curves against the asymptotic denominators, the Hill
tail-index estimator, and numeric Laplace-transform slope checks of
regular variation.

Where the marks are i.i.d. and independent of the counts
(:attr:`~cluster_tails.heavytail.JointMarkModel.independent_marks`), the
max of N marks exceeds x with probability 1 - F(x)**N given N, so the tail
of a max is estimated by conditional Monte Carlo from the counts alone
(:func:`conditional_max_tail`): N is a window's event count for the ldp-max
sweep, and a cluster's size for the cluster max H.  Where N also has a
finite second moment, N minus its exact mean is a control variate for that
estimate, and where it has a finite fourth moment, so is (N - E[N])**2
minus the exact Var N
(:attr:`~cluster_tails.heavytail.JointMarkModel.count_control_order`).

A cluster experiment never holds its n clusters: each chunk of them is
folded into what its outputs read, and dropped.  A :class:`TailFold` keeps a
functional's m largest values, all that a quantile grid or a Hill estimate
reads; a :class:`CountTally` keeps the sizes' distinct values and their
counts, all that :func:`conditional_max_tail` reads; and
:func:`laplace_derivative_table` merges each chunk's moments into its
running ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTail, InsufficientExceedances, UnstableEstimate
from .heavytail import (
    JointMarkModel,
    denominator_label,
    model_constants,
    theoretical_denominator,
)

__all__ = [
    "TailSample",
    "TailFold",
    "CountTally",
    "QuantileGrid",
    "RatioCurve",
    "HillEstimate",
    "tail_table",
    "conditional_max_tail",
    "size_control",
    "cluster_max_tail",
    "crude_tail_estimator",
    "max_tail_estimator",
    "ratio_curve",
    "hill_estimator",
    "laplace_derivative_table",
    "table_slope",
    "wilson_interval",
]

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class TailSample:
    """The largest ``values.size`` order statistics of a sample of n real values, ascending.

    :meth:`from_values` keeps the whole sample, and a :class:`TailFold` the
    top that a quantile grid or a Hill estimate reads.  Every quantile and
    exceedance count read off the kept part has the whole sample's bits; one
    that needs an order statistic below it raises ValueError.
    """

    values: np.ndarray
    n: int

    @classmethod
    def from_values(cls, values) -> "TailSample":
        arr = np.sort(np.asarray(values, dtype=float))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("need a nonempty 1-d sample")
        return cls(values=arr, n=int(arr.size))

    def _order_statistics(self, index: np.ndarray) -> np.ndarray:
        """The order statistics at ``index``, 0 the least of all n; each must be kept."""
        kept = index - (self.n - self.values.size)
        if np.any(kept < 0):
            raise ValueError(
                f"order statistic {int(np.min(index))} of {self.n} is below the "
                f"{self.values.size} largest that the sample keeps"
            )
        return self.values[kept]

    def exceedances(self, x) -> np.ndarray | int:
        """Number of sample values strictly above x."""
        x = np.asarray(x, dtype=float)
        if self.values.size < self.n and np.any(x < self.values[0]):
            raise ValueError(
                f"x below the least of the {self.values.size} largest of {self.n} values that the sample keeps"
            )
        idx = np.searchsorted(self.values, x, side="right")
        out = self.values.size - idx
        return out if np.ndim(x) else int(out)

    def quantile(self, level) -> np.ndarray | float:
        """The sample quantile at each level, by numpy's "linear" rule, bit for bit.

        The values are sorted, so the order statistics at h = (n - 1) level
        are read off directly, with no partition; between the two that
        bracket h the interpolation is numpy's, from the nearer one.
        """
        h = (self.n - 1) * np.asarray(level, dtype=float)
        lo = np.floor(h)
        below = self._order_statistics(lo.astype(np.intp))
        above = self._order_statistics(np.minimum(lo + 1, self.n - 1).astype(np.intp))
        t = h - lo
        diff = above - below
        return np.where(t >= 0.5, above - diff * (1 - t), below + diff * t)[()]


class TailFold:
    """A sample fed chunk by chunk, folded into its size n, its sum and its m largest values.

    Each chunk's values above the least kept one are ``np.partition``ed
    with the kept ones, and the chunk is dropped, so the fold holds m
    values.  :meth:`sample` is their :class:`TailSample`: its values are
    ``np.sort(v)[-m:]`` of the concatenated chunks ``v``, bit for bit.  The
    sum adds each chunk's ``sum()`` in chunk order.
    """

    def __init__(self, m: int) -> None:
        if m < 1:
            raise ValueError(f"need m >= 1, got {m}")
        self.m, self.n, self.total = m, 0, 0.0
        self._top = np.empty(0)
        self._least = None  # the least kept value, once m are kept

    def add(self, chunk) -> None:
        chunk = np.asarray(chunk, dtype=float)
        self.n += chunk.size
        self.total += float(chunk.sum())
        if self._least is not None:
            # a value no larger than the least kept one changes no kept value
            chunk = chunk[chunk > self._least]
        # the old top is let go of as soon as it is copied: 2m + chunk values at most
        self._top = np.concatenate((self._top, chunk))
        cut = self._top.size - self.m
        if cut > 0:
            self._top.partition(cut)
            self._top = self._top[cut:].copy()
            self._least = self._top[0]

    def sample(self) -> TailSample:
        return TailSample(values=np.sort(self._top), n=self.n)


def wilson_interval(count: int, n: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (always contains count/n)."""
    p = count / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return max(0.0, min(center - half, p)), min(1.0, max(center + half, p))


def _distinct_counts(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a nonnegative integer array, ascending, and how often each occurs.

    They are tallied by ``np.bincount``, which makes no sorted copy of the
    array, unless the largest value reaches the array's length; then by
    ``np.unique``, so the tally is never longer than the array.
    """
    if counts.size and int(counts.max()) >= counts.size:
        return np.unique(counts, return_counts=True)
    tally = np.bincount(counts)
    values = np.flatnonzero(tally)
    return values, tally[values]


class CountTally:
    """Nonnegative integer counts fed chunk by chunk, folded into their distinct values and weights.

    ``tally`` is the (distinct values, occurrences) pair that
    :func:`_distinct_counts` gives of the concatenated chunks, bit for bit,
    or None before the first chunk.
    """

    def __init__(self) -> None:
        self.tally = None

    def add(self, counts) -> None:
        values, weights = _distinct_counts(np.asarray(counts))
        if self.tally is not None:
            kept, kept_weights = self.tally
            # np.union1d, or np.unique with no return_* flag, would import
            # numpy.ma, which a run must not load (see tests' TestColdStart)
            merged, where = np.unique(np.concatenate((kept, values)), return_inverse=True)
            total = np.zeros(merged.size, dtype=weights.dtype)
            np.add.at(total, where, np.concatenate((kept_weights, weights)))
            values, weights = merged, total
        self.tally = values, weights


def conditional_max_tail(
    tally: tuple[np.ndarray, np.ndarray],
    survival: np.ndarray,
    count_mean: float | None = None,
    count_var: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Conditional Monte Carlo estimate of P(max > x) and its standard error, per x.

    ``tally`` is the replications' numbers N of i.i.d. marks, which must
    be independent of them, grouped by their distinct N: the (distinct N,
    replications) pair that :func:`_distinct_counts` or a
    :class:`CountTally` gives.  ``survival`` is the mark law's P(X > x) at
    each x.  Each replication contributes g(N) = P(max > x | N) =
    1 - F(x)**N, computed as -expm1(N * log1p(-sf(x))) so that a small tail
    loses no digits.  Each x costs one term per distinct count, and each x
    is reduced on its own, so its bits do not depend on the other points of
    ``survival``.

    ``count_mean`` and ``count_var``, the exact mu = E[N] and sigma**2 =
    Var N, make g's Taylor terms about mu control variates (Asmussen &
    Glynn 2007, *Stochastic Simulation*, section V.2): each replication
    then contributes g(N) - beta1(x) (N - mu) with ``count_mean`` alone,
    and also + beta2(x) ((N - mu)**2 - sigma**2) with both, where
    beta1 = g'(mu) = a F(x)**mu, beta2 = -g''(mu) / 2 = a**2 F(x)**mu / 2,
    a = -log F(x), and every beta is 0 where F(x) = 0.  The coefficients
    are fixed, not fitted, so the estimate stays exactly unbiased; what is
    left of the variance is g's third and higher Taylor terms, small
    wherever a sigma is.  The linear control needs E[N**2] < inf, the
    quadratic one E[N**4] < inf
    (:attr:`~cluster_tails.heavytail.JointMarkModel.count_control_order`).
    """
    values, weights = tally
    n = int(weights.sum())
    if n < 2:
        raise ValueError(f"a standard error needs at least two replications, got {n}")
    with np.errstate(divide="ignore", invalid="ignore"):
        log_f = np.log1p(-survival)
        terms = -np.expm1(np.multiply.outer(log_f, values))
        if count_mean is not None:
            # where F(x) = 0, a F(x)**mu is inf * 0: g is 1 for every N >= 1
            beta1 = np.where(survival < 1.0, -log_f * np.exp(count_mean * log_f), 0.0)
            beta2 = np.where(survival < 1.0, -0.5 * log_f * beta1, 0.0)
    terms[:, values == 0] = 0.0  # the max of no mark exceeds nothing, even where F(x) = 0
    if count_mean is not None:
        deviation = values - count_mean
        terms -= np.multiply.outer(beta1, deviation)
        if count_var is not None:
            terms += np.multiply.outer(beta2, deviation**2 - count_var)
    # one reduction per x, never a matrix product over the grid: the bits of
    # a point's estimate do not depend on how many points are reduced with it
    mean = (terms * weights).sum(axis=1) / n
    var = ((terms - mean[:, None]) ** 2 * weights).sum(axis=1) / (n - 1)
    return mean, np.sqrt(var / n)


def size_control(model: JointMarkModel) -> tuple[float, ...]:
    """The exact moments of a cluster's size that :func:`conditional_max_tail` of the sizes uses.

    (), (mean,) or (mean, variance), as
    :attr:`~cluster_tails.heavytail.JointMarkModel.count_control_order` says.
    """
    constants = model_constants(model)
    moments = (constants.mean_cluster_size, constants.cluster_size_variance)
    return moments[: model.count_control_order]


def cluster_max_tail(model: JointMarkModel, tally, xs) -> tuple[np.ndarray, np.ndarray]:
    """P(H > x) at each x of ``xs`` and its standard error, from the tally of the cluster sizes.

    This is :func:`conditional_max_tail` of the sizes, with the controls
    that :func:`size_control` gives; the marks of ``model`` must be
    independent of the counts.
    """
    survival = np.asarray(model.mark_law.survival(xs))
    return conditional_max_tail(tally, survival, *size_control(model))


def crude_tail_estimator(over: str, statistic: str) -> str:
    """The crude estimator of P(``statistic`` > x) over ``over``, and its band."""
    return f"crude Monte Carlo: fraction of {over} with {statistic} > x; 95% Wilson score band"


def max_tail_estimator(
    model: JointMarkModel, over: str = "clusters", count: str = "size", maximum: str = "H"
) -> str:
    """The estimator of P(``maximum`` > x) over ``over`` for ``model``, and its band.

    Where the marks are independent of the counts it is
    :func:`conditional_max_tail` with N = ``count``, with as many of its
    Taylor controls as
    :attr:`~cluster_tails.heavytail.JointMarkModel.count_control_order`
    says; in the comonotone regimes, the crude exceedance fraction.  The
    defaults name the cluster max H.
    """
    band = "95% band p +- 1.96 sd/sqrt(n), clipped to [0, 1]"
    order = model.count_control_order
    if order == 2:
        dev = f"({count} - E[{count}])"
        return (
            f"conditional Monte Carlo with control variates: mean over {over} of "
            f"1 - F(x)**{count} - beta1(x) {dev} + beta2(x) ({dev}**2 - Var {count}), "
            f"E[{count}] and Var {count} exact, a(x) = -log F(x), "
            f"beta1(x) = a(x) F(x)**E[{count}], beta2(x) = a(x)**2 F(x)**E[{count}] / 2; {band}"
        )
    if order == 1:
        return (
            f"conditional Monte Carlo with control variate: mean over {over} of "
            f"1 - F(x)**{count} - beta(x) ({count} - E[{count}]), E[{count}] exact, "
            f"beta(x) = -log F(x) F(x)**E[{count}]; {band}"
        )
    if model.independent_marks:
        return f"conditional Monte Carlo: mean over {over} of 1 - F(x)**{count}; {band}"
    return crude_tail_estimator(over, maximum)


@dataclass(frozen=True)
class QuantileGrid:
    """Grid specification by empirical quantile levels.

    Quantile placement keeps exceedance counts predictable across models;
    below ``min_exceedances`` the Wilson band swamps the ratio.
    """

    levels: tuple[float, ...] = (0.99, 0.995, 0.999, 0.9995, 0.9999)
    min_exceedances: int = 50

    def __post_init__(self) -> None:
        if not self.levels or any(not 0 < v < 1 for v in self.levels):
            raise ValueError("quantile levels must lie in (0, 1)")
        if list(self.levels) != sorted(self.levels):
            raise ValueError("quantile levels must be ascending")

    def kept(self, n: int) -> int:
        """How many of the largest of n values the grid's quantiles read.

        They are the order statistics from floor((n - 1) levels[0]) up, so a
        :class:`TailFold` of that many gives every quantile on the grid, and
        every exceedance count at or above them, the whole sample's bits.
        """
        return n - math.floor((n - 1) * self.levels[0])


@dataclass
class RatioCurve:
    """One tail table: a tail estimate and its band at each grid point, over a denominator.

    ``certified`` marks the points with at least ``min_exceedances``
    exceedances of the sample, and ``sup_abs_dev`` is sup |ratio - 1| over
    them, nan when none is certified.
    """

    grid: np.ndarray
    empirical: np.ndarray
    denominator: np.ndarray
    ratio: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    exceedances: np.ndarray
    certified: np.ndarray
    sup_abs_dev: float
    provenance: str = ""


def tail_table(sample: TailSample, xs, min_exceedances: int, estimate=None, denominator=None) -> RatioCurve:
    """The tail table of ``sample`` at each x of ``xs``: the routine behind every printed tail.

    Without ``estimate`` the tail is the exceedance fraction of ``sample``
    with its Wilson band.  ``estimate`` is a (tail, standard error) pair of
    arrays over ``xs``; its band is p +- 1.96 se, clipped to [0, 1].  The
    tail and its band are divided by ``denominator``, or by ones without
    one, which leaves their bits.  A point is certified by the exceedances
    of ``sample``, whichever estimate its tail is.
    """
    xs = np.asarray(xs, dtype=float)
    counts = np.asarray(sample.exceedances(xs))
    if estimate is None:
        tail = counts / sample.n
        low, high = np.array([wilson_interval(int(c), sample.n) for c in counts]).T
    else:
        tail, se = estimate
        low, high = np.clip(tail - _Z95 * se, 0.0, 1.0), np.clip(tail + _Z95 * se, 0.0, 1.0)
    denom = np.ones(xs.size) if denominator is None else np.asarray(denominator)
    ratio = tail / denom
    certified = counts >= min_exceedances
    sup_dev = float(np.abs(ratio[certified] - 1.0).max()) if certified.any() else math.nan
    return RatioCurve(xs, tail, denom, ratio, low / denom, high / denom, counts, certified, sup_dev)


def ratio_curve(
    sample: TailSample,
    model: JointMarkModel,
    functional: str,
    grid: QuantileGrid = QuantileGrid(),
    *,
    size_tally: tuple[np.ndarray, np.ndarray] | None = None,
) -> RatioCurve:
    """Empirical survival of the sample against the model's tail asymptotics.

    ``functional`` ('max' or 'sum') and the model's family pick the
    denominator (see :func:`~cluster_tails.heavytail.theoretical_denominator`).
    The confidence band propagates only the numerator's Monte Carlo error;
    the denominator is exact.

    The numerator is the exceedance fraction of ``sample`` with its Wilson
    band, unless ``size_tally`` gives the sizes of the clusters whose
    maxima ``sample`` holds, tallied as :func:`conditional_max_tail` takes
    them: then it is :func:`cluster_max_tail` of the sizes, which needs a
    max and a model whose marks are independent of the counts, and the
    provenance says so.  The sample's quantiles place the grid and its
    exceedance counts certify it either way.
    """
    xs = np.asarray(sample.quantile(list(grid.levels)), dtype=float)
    estimate = None
    if size_tally is not None:
        if functional != "max" or not model.independent_marks:
            raise ValueError(
                "cluster sizes give the tail of the max where the marks are independent of the counts"
            )
        tallied = int(size_tally[1].sum())
        if tallied != sample.n:
            raise ValueError(f"{tallied} cluster sizes for {sample.n} maxima")
        estimate = cluster_max_tail(model, size_tally, xs)
    denom = np.asarray(theoretical_denominator(model, functional, xs))
    curve = tail_table(sample, xs, grid.min_exceedances, estimate, denom)
    if not curve.certified[-1]:
        raise InsufficientExceedances(float(xs[-1]), int(curve.exceedances[-1]), grid.min_exceedances)
    curve.provenance = f"denominator={denominator_label(model, functional)} joint=closed"
    if estimate is not None:
        curve.provenance += " estimator=conditional"
    return curve


@dataclass(frozen=True)
class HillEstimate:
    k: int
    alpha_hat: float
    se: float


def hill_estimator(sample: TailSample, k: int) -> HillEstimate:
    """Hill estimate of the tail index from the top k order statistics.

    alpha_hat is the reciprocal mean log-excess of the k largest values over
    the (k+1)-th largest, so it reads a sample's top k + 1 alone.
    Scale-invariant by construction.
    """
    n = sample.n
    if not 2 <= k < n:
        raise ValueError(f"need 2 <= k < n, got k={k}, n={n}")
    if sample.values.size < k + 1:
        raise ValueError(f"need the top k + 1 = {k + 1} values, the sample keeps {sample.values.size}")
    top = sample.values[-k:]
    base = sample.values[-k - 1]
    if base <= 0 or top[0] <= 0:
        raise ValueError("Hill estimation needs positive order statistics")
    mean_excess = float(np.mean(np.log(top) - math.log(base)))
    if mean_excess == 0.0:
        raise DegenerateTail(f"top {k} values are all equal to {base:g}")
    alpha_hat = 1.0 / mean_excess
    return HillEstimate(k=k, alpha_hat=alpha_hat, se=alpha_hat / math.sqrt(k))


# values per block of laplace_derivative_table: two 512 KiB buffers
_LAPLACE_BLOCK = 1 << 16


def laplace_derivative_table(sample, s_grid, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Transform derivative and its MC standard error on an s-grid.

    The derivative of order ``order`` at s is the sample mean of
    (-x)**order * exp(-s*x).  ``sample`` is a :class:`TailSample` that
    keeps every value, or an iterable of 1-d arrays whose concatenation is
    the sample, consumed one at a time.  Each array is reduced in blocks of
    ``_LAPLACE_BLOCK`` values, so the working set is two blocks, not two
    copies of the sample: each s's block mean and sum of squared deviations
    are merged into the running ones (Chan, Golub & LeVeque 1983), so the
    variance is never a difference of large sums.  A sample of one block
    gives the bits of ``summand.mean()`` and ``summand.std(ddof=1) / sqrt(n)``.
    """
    if isinstance(sample, TailSample):
        if sample.values.size < sample.n:
            raise ValueError("the transform reads every value of the sample, not only its largest")
        sample = (sample.values,)
    size = len(s_grid)
    means, squares = np.zeros(size), np.zeros(size)  # squares: about the means
    block_means, block_squares = np.empty(size), np.empty(size)
    # (-x)**order and each s's summands in two reused buffers: the same
    # operations on the same operands as (-v)**order * np.exp(-s * v)
    power = summand = np.empty(0)
    seen = 0
    for v in sample:
        for lo in range(0, v.size, _LAPLACE_BLOCK):
            block = v[lo : lo + _LAPLACE_BLOCK]
            m = block.size
            if power.size < m:
                power, summand = np.empty(m), np.empty(m)
            p, term = power[:m], summand[:m]
            np.negative(block, out=p)
            p **= order
            for i, s in enumerate(s_grid):
                np.multiply(block, -s, out=term)
                np.exp(term, out=term)
                term *= p
                block_means[i] = mean = term.mean()
                term -= mean
                np.square(term, out=term)
                block_squares[i] = term.sum()
            total = seen + m
            delta = block_means - means
            means += delta * (m / total)
            squares += block_squares + delta * delta * (seen * m / total)
            seen = total
        # let go of the array before the next is drawn
        v = block = None
    ses = np.sqrt(squares / (seen - 1)) / math.sqrt(seen)
    return means, ses


def table_slope(s_grid, vals: np.ndarray, ses: np.ndarray) -> float:
    """Least-squares slope of log |transform derivative| against log s.

    ``vals`` and ``ses`` are a :func:`laplace_derivative_table` on the
    positive ``s_grid``.  Under an exact power tail of noninteger index
    alpha the ceil(alpha)-th transform derivative blows up like
    s**(alpha - ceil(alpha)) as s -> 0, so the fitted slope converges to
    alpha - ceil(alpha); light-tailed input gives a slope near zero.
    Raises :class:`UnstableEstimate` when a derivative or its standard error
    is not finite, or when a derivative's relative standard error exceeds 25%.
    """
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(ses))):
        raise UnstableEstimate("a transform derivative or its MC standard error is not finite")
    rel = np.abs(ses / vals)
    if np.any(rel > 0.25):
        worst = float(rel.max())
        raise UnstableEstimate(
            f"MC relative error {worst:.1%} exceeds 25% on the s-grid"
        )
    slope = np.polyfit(np.log(s_grid), np.log(np.abs(vals)), 1)[0]
    return float(slope)
