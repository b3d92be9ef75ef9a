"""Empirical-tail machinery.

Survival estimates with Wilson bands, ratio curves against the asymptotic
denominators, the Hill tail-index estimator, and numeric Laplace-transform
slope checks of regular variation.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTail, InsufficientExceedances, UnstableEstimate
from .heavytail import (
    JointMarkModel,
    OracleSpec,
    denominator_label,
    theoretical_denominator,
)

__all__ = [
    "TailSample",
    "QuantileGrid",
    "RatioCurve",
    "HillEstimate",
    "ratio_curve",
    "hill_estimator",
    "laplace_derivative_table",
    "table_slope",
    "wilson_interval",
]

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class TailSample:
    """A sorted sample of nonnegative values."""

    values: np.ndarray
    n: int

    @classmethod
    def from_values(cls, values) -> "TailSample":
        arr = np.sort(np.asarray(values, dtype=float))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("need a nonempty 1-d sample")
        return cls(values=arr, n=int(arr.size))

    def exceedances(self, x) -> np.ndarray | int:
        """Number of sample values strictly above x."""
        idx = np.searchsorted(self.values, np.asarray(x, dtype=float), side="right")
        out = self.n - idx
        return out if np.ndim(x) else int(out)

    def quantile(self, level) -> np.ndarray | float:
        return np.quantile(self.values, level)


def wilson_interval(count: int, n: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (always contains count/n)."""
    p = count / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return max(0.0, min(center - half, p)), min(1.0, max(center + half, p))


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


@dataclass
class RatioCurve:
    """Pointwise empirical survival over a theoretical denominator."""

    grid: np.ndarray
    empirical: np.ndarray
    denominator: np.ndarray
    ratio: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    exceedances: np.ndarray
    provenance: str = ""

    def to_csv(self) -> str:
        buf = io.StringIO()
        if self.provenance:
            buf.write(f"# {self.provenance}\n")
        buf.write("x,exceedances,empirical,denominator,ratio,ci_low,ci_high\n")
        for i in range(len(self.grid)):
            buf.write(
                f"{float(self.grid[i])!r},{int(self.exceedances[i])},"
                f"{float(self.empirical[i])!r},{float(self.denominator[i])!r},"
                f"{float(self.ratio[i])!r},{float(self.ci_low[i])!r},"
                f"{float(self.ci_high[i])!r}\n"
            )
        return buf.getvalue()


def ratio_curve(
    sample: TailSample,
    model: JointMarkModel,
    functional: str,
    grid: QuantileGrid = QuantileGrid(),
    *,
    joint: str = "closed",
    oracle: OracleSpec | None = None,
) -> RatioCurve:
    """Empirical survival of the sample against the model's tail asymptotics.

    ``functional`` ('max' or 'sum') and the model's family pick the
    denominator (see :func:`~cluster_tails.heavytail.theoretical_denominator`).
    The confidence band propagates only the numerator's Monte Carlo error;
    the denominator is exact (or a high-precision MC oracle, whose size and
    seed the curve's provenance records).
    """
    xs = np.asarray(sample.quantile(list(grid.levels)), dtype=float)
    counts = np.asarray(sample.exceedances(xs))
    if counts[-1] < grid.min_exceedances:
        raise InsufficientExceedances(
            float(xs[-1]), int(counts[-1]), grid.min_exceedances
        )
    if joint == "mc":
        oracle = oracle or OracleSpec()
    denom = np.asarray(theoretical_denominator(model, functional, xs, joint=joint, oracle=oracle))
    provenance = f"denominator={denominator_label(model, functional)} joint={joint}"
    if joint == "mc":
        provenance += f" oracle_size={oracle.size} oracle_seed={oracle.seed}"
    emp = counts / sample.n
    bands = np.array([wilson_interval(int(c), sample.n) for c in counts])
    return RatioCurve(
        grid=xs,
        empirical=emp,
        denominator=denom,
        ratio=emp / denom,
        ci_low=bands[:, 0] / denom,
        ci_high=bands[:, 1] / denom,
        exceedances=counts,
        provenance=provenance,
    )


@dataclass(frozen=True)
class HillEstimate:
    k: int
    alpha_hat: float
    se: float


def hill_estimator(sample: TailSample, k: int) -> HillEstimate:
    """Hill estimate of the tail index from the top k order statistics.

    alpha_hat is the reciprocal mean log-excess of the k largest values over
    the (k+1)-th largest.  Scale-invariant by construction.
    """
    n = sample.n
    if not 2 <= k < n:
        raise ValueError(f"need 2 <= k < n, got k={k}, n={n}")
    top = sample.values[n - k :]
    base = sample.values[n - k - 1]
    if base <= 0 or top[0] <= 0:
        raise ValueError("Hill estimation needs positive order statistics")
    mean_excess = float(np.mean(np.log(top) - math.log(base)))
    if mean_excess == 0.0:
        raise DegenerateTail(f"top {k} values are all equal to {base:g}")
    alpha_hat = 1.0 / mean_excess
    return HillEstimate(k=k, alpha_hat=alpha_hat, se=alpha_hat / math.sqrt(k))


def laplace_derivative_table(
    sample: TailSample, s_grid, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Transform derivative and its MC standard error on an s-grid.

    The derivative of order ``order`` at s is the sample mean of
    (-x)**order * exp(-s*x).
    """
    vals = np.empty(len(s_grid))
    ses = np.empty(len(s_grid))
    v = sample.values
    power = (-v) ** order
    for i, s in enumerate(s_grid):
        summand = power * np.exp(-s * v)
        vals[i] = summand.mean()
        ses[i] = summand.std(ddof=1) / math.sqrt(sample.n)
    return vals, ses


def table_slope(s_grid, vals: np.ndarray, ses: np.ndarray) -> float:
    """Least-squares slope of log |transform derivative| against log s.

    ``vals`` and ``ses`` are a :func:`laplace_derivative_table` on the
    positive ``s_grid``.  Under an exact power tail of noninteger index
    alpha the ceil(alpha)-th transform derivative blows up like
    s**(alpha - ceil(alpha)) as s -> 0, so the fitted slope converges to
    alpha - ceil(alpha); light-tailed input gives a slope near zero.
    Raises :class:`UnstableEstimate` when a derivative's relative standard
    error exceeds 25%.
    """
    rel = np.abs(ses / vals)
    if np.any(rel > 0.25):
        worst = float(rel.max())
        raise UnstableEstimate(
            f"MC relative error {worst:.1%} exceeds 25% on the s-grid"
        )
    slope = np.polyfit(np.log(s_grid), np.log(np.abs(vals)), 1)[0]
    return float(slope)
