"""Precise large-deviation sweeps over growing windows.

A sweep simulates one batch of paths on [0, T_k] for its longest horizon and
reads every horizon T_i off the same paths (see
:func:`~cluster_tails.process.sweep_windows`).  Each horizon's windows have
their exact marginal law, but the horizons of one sweep are positively
correlated: differences between horizons are not independent draws.  For
each horizon the harness estimates the deviation tail on a grid starting
at gamma*nu*T, and divides by the theoretical normalizer: mean event count
times the mark tail for the max, nu*T times the cluster-sum tail
approximation for the sum.  The certified range of a sweep is the part of
the grid with enough exceedances for the Wilson band to mean anything; the
per-horizon sup deviation is reported over that range only.

The sum is centred on its exact mean, E[S_T] = E[X] E[N_T] by Campbell's
formula: in every regime a point's mark has mean E[X] and does not depend
on whether the point falls in the window, which only its ancestors decide.
E[N_T] is :func:`~cluster_tails.process.mean_events`.

Where the marks are i.i.d. and independent of the counts
(:attr:`~cluster_tails.heavytail.JointMarkModel.independent_marks`), the max
sweep estimates P(M_T > x) by conditional Monte Carlo: the mean over windows
of P(M_T > x | N_T) = 1 - F(x)**N_T, which is unbiased and uses the same
paths.  Its band is the normal one, p +- 1.96 sd/sqrt(n).  The crude maxima
still place and certify the grid, and their exceedance counts stay in the
output as a cross-check.  The comonotone regimes keep the crude exceedance
fraction and its Wilson band.

The leftover table of a Hawkes model is conditional Monte Carlo too: each
window contributes E[J_T | path to T] = Lambda_T / (1 - E[kappa]) and
E[eps_T | path to T] = Lambda_T E[X] / (1 - E[kappa]), where Lambda_T is the
decayed intensity of the window's points by T (the ``leftover_intensity``
of :func:`~cluster_tails.process.sweep_windows`).  Only E[kappa] and E[X]
enter, so this holds in both Hawkes regimes.  Renewal models average the
leftover counts and mark sums themselves.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .estimate import _Z95, wilson_interval
from .heavytail import JointMarkModel, OracleSpec, model_constants, theoretical_denominator
from .process import WindowConfig, mean_events, sweep_windows
from .rng import RngStream

__all__ = [
    "SweepConfig",
    "SweepRow",
    "LeftoverRow",
    "ldp_max_sweep",
    "max_estimator",
    "ldp_sum_sweep",
    "SUM_CENTRING",
    "leftover_scaling",
    "leftover_estimator",
    "sweep_to_csv",
    "sweep_summary",
    "leftover_to_csv",
]


@dataclass(frozen=True)
class SweepConfig:
    """Declarative description of one multi-horizon sweep."""

    window: WindowConfig
    horizons: tuple[float, ...]
    gamma: float = 0.5
    replications: int = 1_000_000
    x_levels: int = 12
    min_exceedances: int = 50

    def __post_init__(self) -> None:
        h = self.horizons
        if not h or any(b <= a for a, b in zip(h, h[1:])):
            raise ModelError("horizons must be a nonempty strictly ascending list", "horizons")
        if self.gamma <= 0:
            raise ModelError("gamma must be positive", "gamma")
        if self.replications < 10_000:
            raise ModelError("need at least 10^4 replications", "replications")
        if self.x_levels < 1:
            raise ModelError("x_levels must be >= 1", "x_levels")


@dataclass(frozen=True)
class SweepRow:
    horizon: float
    x: float
    empirical: float
    denominator: float
    ratio: float
    ci_low: float
    ci_high: float
    exceedances: int
    certified: bool
    sup_abs_dev: float  # per-horizon sup over certified rows, repeated on each row


@dataclass(frozen=True)
class LeftoverRow:
    horizon: float
    j_over_t: float
    j_over_t_se: float
    eps_over_sqrt_t: float
    eps_over_sqrt_t_se: float


def _horizon_grid(
    deviations: np.ndarray, x_lo: float, levels: int, min_exc: int
) -> np.ndarray:
    """Geometric grid from the sweep threshold up to the certified tail edge."""
    srt = np.sort(deviations)
    n = len(srt)
    x_hi = float(srt[max(0, n - min_exc - 1)])
    if x_hi <= x_lo or levels == 1:
        return np.array([x_lo])
    return np.geomspace(x_lo, x_hi, levels)


def _sweep_rows(
    horizon: float,
    deviations: np.ndarray,
    grid: np.ndarray,
    denom: np.ndarray,
    min_exc: int,
    estimate: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[SweepRow]:
    """One row per grid point; ``estimate`` is a tail estimate and its SE per point.

    Without ``estimate`` the tail is the exceedance fraction of
    ``deviations`` with its Wilson band.  The exceedance counts certify the
    grid either way.
    """
    n = len(deviations)
    srt = np.sort(deviations)
    counts = n - np.searchsorted(srt, grid, side="right")
    if estimate is None:
        empirical = counts / n
        lo, hi = np.array([wilson_interval(int(c), n) for c in counts]).T
    else:
        empirical, se = estimate
        lo = np.clip(empirical - _Z95 * se, 0.0, 1.0)
        hi = np.clip(empirical + _Z95 * se, 0.0, 1.0)
    ratio = empirical / denom
    certified = counts >= min_exc
    sup_dev = float(np.abs(ratio[certified] - 1.0).max()) if certified.any() else float("nan")
    return [
        SweepRow(
            horizon=float(horizon),
            x=float(grid[i]),
            empirical=float(empirical[i]),
            denominator=float(denom[i]),
            ratio=float(ratio[i]),
            ci_low=float(lo[i] / denom[i]),
            ci_high=float(hi[i] / denom[i]),
            exceedances=int(counts[i]),
            certified=bool(certified[i]),
            sup_abs_dev=sup_dev,
        )
        for i in range(len(grid))
    ]


def _conditional_max_tail(
    n_events: np.ndarray, survival: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Conditional Monte Carlo estimate of P(M_T > x) and its standard error, per x.

    Each window contributes P(M_T > x | N_T) = 1 - F(x)**N_T, computed as
    -expm1(N_T * log1p(-sf(x))) so that a small tail loses no digits.  The
    windows are grouped by their distinct N_T, so each x costs one term per
    distinct count.
    """
    values, weights = np.unique(n_events, return_counts=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = -np.expm1(np.multiply.outer(np.log1p(-survival), values))
    terms[:, values == 0] = 0.0  # an empty window's max exceeds nothing, even where F(x) = 0
    n = n_events.size
    mean = terms @ weights / n
    var = (terms - mean[:, None]) ** 2 @ weights / (n - 1)
    return mean, np.sqrt(var / n)


def _expected_events(config: WindowConfig, horizon: float) -> float:
    """E[N_T] from the cluster-independence formula (no boundary correction)."""
    return config.nu * horizon * model_constants(config.model).mean_cluster_size


def max_estimator(model: JointMarkModel) -> str:
    """The estimator of P(M_T > x) that :func:`ldp_max_sweep` uses for ``model``, and its band."""
    if model.independent_marks:
        return (
            "conditional Monte Carlo: mean over windows of 1 - F(x)**N_T; "
            "95% band p +- 1.96 sd/sqrt(n), clipped to [0, 1]"
        )
    return "crude Monte Carlo: fraction of windows with M_T > x; 95% Wilson score band"


def ldp_max_sweep(
    config: SweepConfig, rng: RngStream, workers: int = 1
) -> list[SweepRow]:
    """Ratio of the window-max tail to E[N_T] * P(X > x), per horizon.

    The tail is estimated as :func:`max_estimator` says; the crude maxima
    place the grid and count its exceedances in every regime.
    """
    conditional = config.window.model.independent_marks
    fields = ("n_events", "max_in_window") if conditional else ("max_in_window",)
    paths = sweep_windows(
        config.window, config.horizons, config.replications, rng, workers, fields
    )
    rows: list[SweepRow] = []
    window = config.window
    for i, (horizon, dev) in enumerate(zip(config.horizons, paths["max_in_window"])):
        x_lo = config.gamma * window.nu * float(horizon)
        grid = _horizon_grid(dev, x_lo, config.x_levels, config.min_exceedances)
        survival = np.asarray(window.model.mark_law.survival(grid))
        denom = _expected_events(window, float(horizon)) * survival
        estimate = _conditional_max_tail(paths["n_events"][i], survival) if conditional else None
        rows.extend(
            _sweep_rows(horizon, dev, grid, denom, config.min_exceedances, estimate=estimate)
        )
    return rows


# what ldp_sum_sweep subtracts from S_T, as its summary names it
SUM_CENTRING = "exact Campbell mean: E[S_T] = E[X] E[N_T], with E[N_T] in closed form"


def ldp_sum_sweep(
    config: SweepConfig,
    rng: RngStream,
    workers: int = 1,
    *,
    joint: str = "closed",
    oracle: OracleSpec | None = None,
) -> list[SweepRow]:
    """Ratio of the centred-sum tail to the cluster-sum normalizer, per horizon.

    The centring is :data:`SUM_CENTRING`; the tail is the exceedance
    fraction of S_T - E[S_T] with its Wilson band.
    """
    window, horizons = config.window, config.horizons
    means = model_constants(window.model).mean_mark * mean_events(window, horizons)
    sums = sweep_windows(window, horizons, config.replications, rng, workers, ("sum_in_window",))
    rows: list[SweepRow] = []
    for horizon, mean, s in zip(horizons, means, sums["sum_in_window"]):
        dev = s - float(mean)
        x_lo = config.gamma * window.nu * float(horizon)
        grid = _horizon_grid(dev, x_lo, config.x_levels, config.min_exceedances)
        tail = theoretical_denominator(window.model, "sum", grid, joint=joint, oracle=oracle)
        denom = window.nu * float(horizon) * np.asarray(tail)
        rows.extend(_sweep_rows(horizon, dev, grid, denom, config.min_exceedances))
    return rows


def leftover_estimator(model: JointMarkModel) -> str:
    """The estimator that :func:`leftover_scaling` uses for ``model``, and its interval."""
    if model.is_hawkes:
        return (
            "conditional Monte Carlo: mean over windows of E[J_T | path to T] = "
            "Lambda_T/(1 - E[kappa]) and E[eps_T | path to T] = Lambda_T E[X]/(1 - E[kappa]), "
            "Lambda_T = sum of kappa_p exp(-beta (T - t_p)) over the points by T; "
            "SE sd/sqrt(n), finite when kappa has finite variance"
        )
    return (
        "crude Monte Carlo: mean over windows of the leftover count and mark sum; "
        "SE sd/sqrt(n), finite for eps only when the marks have finite variance"
    )


def leftover_scaling(
    config: SweepConfig, rng: RngStream, workers: int = 1
) -> list[LeftoverRow]:
    """Per-horizon E[J_T]/T and E[eps_T]/sqrt(T) with standard errors.

    The per-window values are what :func:`leftover_estimator` names.
    """
    model = config.window.model
    fields = ("leftover_intensity",) if model.is_hawkes else ("j_leftover", "leftover_sum")
    paths = sweep_windows(
        config.window, config.horizons, config.replications, rng, workers, fields
    )
    if model.is_hawkes:
        consts = model_constants(model)
        lam = paths["leftover_intensity"]
        js, epss = lam * consts.mean_cluster_size, lam * consts.sum_shift_hawkes
    else:
        js, epss = paths["j_leftover"].astype(float), paths["leftover_sum"]
    n = config.replications
    rows = []
    for horizon, j, eps in zip(config.horizons, js, epss):
        rows.append(
            LeftoverRow(
                horizon=float(horizon),
                j_over_t=float(j.mean() / horizon),
                j_over_t_se=float(j.std(ddof=1) / math.sqrt(n) / horizon),
                eps_over_sqrt_t=float(eps.mean() / math.sqrt(horizon)),
                eps_over_sqrt_t_se=float(
                    eps.std(ddof=1) / math.sqrt(n) / math.sqrt(horizon)
                ),
            )
        )
    return rows


def sweep_to_csv(rows: list[SweepRow]) -> str:
    buf = io.StringIO()
    buf.write(
        "horizon,x,exceedances,empirical,denominator,ratio,ci_low,ci_high,sup_abs_dev\n"
    )
    for r in rows:
        buf.write(
            f"{r.horizon!r},{r.x!r},{r.exceedances},{r.empirical!r},{r.denominator!r},"
            f"{r.ratio!r},{r.ci_low!r},{r.ci_high!r},{r.sup_abs_dev!r}\n"
        )
    return buf.getvalue()


def sweep_summary(rows: list[SweepRow]) -> dict:
    """Per-horizon sup deviations and certified x-ranges, JSON-ready.

    ``horizon_paths`` records that every horizon was read off the same
    simulated paths, so the per-horizon results are positively correlated.
    """
    horizons: dict[float, list[SweepRow]] = {}
    for r in rows:
        horizons.setdefault(r.horizon, []).append(r)
    out = []
    for horizon in sorted(horizons):
        hrows = horizons[horizon]
        certified = [r for r in hrows if r.certified]
        out.append(
            {
                "horizon": horizon,
                "sup_abs_dev": hrows[0].sup_abs_dev,
                "certified_x_min": min((r.x for r in certified), default=None),
                "certified_x_max": max((r.x for r in certified), default=None),
                "grid_points": len(hrows),
                "certified_points": len(certified),
            }
        )
    return {
        "horizon_paths": (
            "shared: one path per replication serves every horizon; each horizon "
            "has its exact marginal law, and the horizons are positively correlated"
        ),
        "horizons": out,
    }


def leftover_to_csv(rows: list[LeftoverRow]) -> str:
    buf = io.StringIO()
    buf.write("horizon,j_over_t,j_over_t_se,eps_over_sqrt_t,eps_over_sqrt_t_se\n")
    for r in rows:
        buf.write(
            f"{r.horizon!r},{r.j_over_t!r},{r.j_over_t_se!r},"
            f"{r.eps_over_sqrt_t!r},{r.eps_over_sqrt_t_se!r}\n"
        )
    return buf.getvalue()
