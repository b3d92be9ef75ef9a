"""Precise large-deviation sweeps over growing windows.

A sweep simulates one batch of paths on [0, T_k] for its longest horizon and
reads every horizon T_i off the same paths (see
:func:`~cluster_tails.process.sweep_windows`).  Each horizon's windows have
their exact marginal law, but the horizons of one sweep are positively
correlated: differences between horizons are not independent draws.  For
each horizon the harness estimates the deviation tail on a grid starting
at gamma*nu*T, and divides by the theoretical normalizer: nu*T E[cluster
size] times the mark tail for the max, nu*T times the cluster-sum tail
approximation for the sum (see :func:`check_left_edges`).  The certified
range of a sweep is the part of the grid with enough exceedances for the
Wilson band to mean anything; the per-horizon sup deviation is reported
over that range only.

The sum is centred on its exact mean, E[S_T] = E[X] E[N_T] by Campbell's
formula: in every regime a point's mark has mean E[X] and does not depend
on whether the point falls in the window, which only its ancestors decide.
E[N_T] is :func:`~cluster_tails.process.mean_events`.

Where the marks are i.i.d. and independent of the counts
(:attr:`~cluster_tails.heavytail.JointMarkModel.independent_marks`), the max
sweep estimates P(M_T > x) by conditional Monte Carlo: the mean over windows
of P(M_T > x | N_T) = 1 - F(x)**N_T, which is unbiased and uses the same
paths (:func:`~cluster_tails.estimate.conditional_max_tail`).  Where N_T
also has finite moments, its exact mean E[N_T] and variance Var N_T
(:func:`~cluster_tails.process.event_moments`) make the first Taylor terms
of g(N) = 1 - F(x)**N about E[N_T] control variates, as many as
:attr:`~cluster_tails.heavytail.JointMarkModel.count_control_order` says:
each window contributes g(N_T) - beta1(x) (N_T - E[N_T]) +
beta2(x) ((N_T - E[N_T])**2 - Var N_T), with the fixed Taylor coefficients
beta1 = g'(E[N_T]) and beta2 = -g''(E[N_T]) / 2, so the estimate stays
unbiased.  At the criterion-10 model's T = 100 left edge the linear term
cuts the variance about 240 times, and the quadratic one about 130 times
more; further out, where g is nearly linear in N_T, far more.  Its band is
the normal one, p +- 1.96 sd/sqrt(n).  The crude maxima still place and
certify the grid, and their exceedance counts stay in the output as a
cross-check; in these regimes they too are drawn from the in-window counts
(see :mod:`~cluster_tails.process`), so the sweep draws no mark at all.
The comonotone regimes keep the crude exceedance fraction of the drawn
marks' maxima and its Wilson band.

The leftover table of a Hawkes model is conditional Monte Carlo too: each
window contributes E[J_T | C] = L_T / (1 - E[kappa]) and
E[eps_T | C] = L_T E[X] / (1 - E[kappa]), C its immigrant counts per
horizon slot, where L_T is the conditional mean given C of the decayed
intensity of its points by T (the ``leftover_intensity`` of
:func:`~cluster_tails.process.sweep_windows`, a closed form in C), so no
cluster is grown.  Only E[kappa] and E[X] enter, so this holds in both
Hawkes regimes, and each value is linear in Poisson counts, so its
standard error is a real one in both.  Renewal models average the leftover
counts and mark sums themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .estimate import (
    RatioCurve,
    TailSample,
    _distinct_counts,
    conditional_max_tail,
    max_tail_estimator,
    tail_table,
)
from .heavytail import (
    JointMarkModel,
    ParetoLaw,
    Regime,
    model_constants,
    theoretical_denominator,
)
from .process import WindowConfig, event_moments, mean_events, sweep_windows
from .rng import RngStream

__all__ = [
    "SweepConfig",
    "SweepRow",
    "LeftoverRow",
    "check_left_edges",
    "ldp_max_sweep",
    "max_estimator",
    "ldp_sum_sweep",
    "SUM_CENTRING",
    "leftover_scaling",
    "leftover_estimator",
    "sweep_summary",
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


def _horizon_grid(config: SweepConfig, horizon: float, sample: TailSample) -> np.ndarray:
    """Geometric grid from the sweep threshold gamma*nu*T up to the certified tail edge."""
    x_lo = config.gamma * config.window.nu * float(horizon)
    x_hi = float(sample.values[max(0, sample.n - config.min_exceedances - 1)])
    if x_hi <= x_lo or config.x_levels == 1:
        return np.array([x_lo])
    return np.geomspace(x_lo, x_hi, config.x_levels)


def _sweep_rows(horizon: float, t: RatioCurve) -> list[SweepRow]:
    """One row per point of ``t``, a horizon's :func:`~cluster_tails.estimate.tail_table`."""
    columns = (t.grid, t.empirical, t.denominator, t.ratio, t.ci_low, t.ci_high, t.exceedances, t.certified)
    # tolist() gives each cell as a Python float, int or bool, in SweepRow's field order
    return [SweepRow(float(horizon), *row, t.sup_abs_dev) for row in zip(*(c.tolist() for c in columns))]


def _normalizer(config: SweepConfig, functional: str, horizon: float, grid: np.ndarray) -> np.ndarray:
    """What a sweep of ``functional`` divides its tail at T = ``horizon`` by, on ``grid``.

    The max's is nu T E[cluster size] P(X > x), where nu T E[cluster size]
    counts the points of the clusters that start by T, those after T too:
    it is not E[N_T].  The sum's is nu T times the cluster-sum tail
    approximation, whose joint term is in closed form.
    """
    model, nu_t = config.window.model, config.window.nu * horizon
    if functional == "max":
        return nu_t * model_constants(model).mean_cluster_size * np.asarray(model.mark_law.survival(grid))
    return nu_t * np.asarray(theoretical_denominator(model, "sum", grid))


def check_left_edges(config: SweepConfig, functional: str) -> None:
    """Raise ModelError on ``horizons`` where the normalizer is 0 at gamma*nu*T.

    Each grid starts there, so an underflow would make a horizon's every
    ratio nan.  No randomness is drawn.
    """
    for horizon in map(float, config.horizons):
        x = config.gamma * config.window.nu * horizon
        if _normalizer(config, functional, horizon, np.array([x]))[0] == 0.0:
            raise ModelError(f"the {functional} normalizer is 0 at T = {horizon:g}, x = {x:g}", "horizons")


def max_estimator(model: JointMarkModel) -> str:
    """The estimator of P(M_T > x) that :func:`ldp_max_sweep` uses for ``model``, and its band."""
    return max_tail_estimator(model, "windows", "N_T", "M_T")


def ldp_max_sweep(
    config: SweepConfig, rng: RngStream, workers: int = 1
) -> list[SweepRow]:
    """Ratio of the window-max tail to nu T E[cluster size] P(X > x), per horizon.

    The tail is estimated as :func:`max_estimator` says, its control
    moments E[N_T] and Var N_T from
    :func:`~cluster_tails.process.event_moments`; the crude maxima
    place the grid and count its exceedances in every regime.  Where the
    marks are independent of the counts, the sweep keeps only counts and
    maxima, which read no mark.  :func:`check_left_edges` runs first.
    """
    check_left_edges(config, "max")
    window, horizons = config.window, config.horizons
    conditional = window.model.independent_marks
    order = window.model.count_control_order
    # per horizon, the moments of N_T that the estimate's controls read
    controls = [()] * len(horizons)
    if order:
        controls = [moments[:order] for moments in zip(*event_moments(window, horizons))]
    fields = ("n_events", "max_in_window") if conditional else ("max_in_window",)
    paths = sweep_windows(window, horizons, config.replications, rng, workers, fields)
    rows: list[SweepRow] = []
    for i, (horizon, dev) in enumerate(zip(horizons, paths["max_in_window"])):
        sample = TailSample.from_values(dev)
        grid = _horizon_grid(config, horizon, sample)
        denom = _normalizer(config, "max", float(horizon), grid)
        estimate = None
        if conditional:
            tally = _distinct_counts(paths["n_events"][i])
            survival = np.asarray(window.model.mark_law.survival(grid))
            estimate = conditional_max_tail(tally, survival, *controls[i])
        rows += _sweep_rows(horizon, tail_table(sample, grid, config.min_exceedances, estimate, denom))
    return rows


# what ldp_sum_sweep subtracts from S_T, as its summary names it
SUM_CENTRING = "exact Campbell mean: E[S_T] = E[X] E[N_T], with E[N_T] in closed form"


def ldp_sum_sweep(config: SweepConfig, rng: RngStream, workers: int = 1) -> list[SweepRow]:
    """Ratio of the centred-sum tail to the cluster-sum normalizer, per horizon.

    The centring is :data:`SUM_CENTRING`; the tail is the exceedance
    fraction of S_T - E[S_T] with its Wilson band.  The normalizer's joint
    term is in closed form.  :func:`check_left_edges` runs first.
    """
    check_left_edges(config, "sum")
    window, horizons = config.window, config.horizons
    means = model_constants(window.model).mean_mark * mean_events(window, horizons)
    sums = sweep_windows(window, horizons, config.replications, rng, workers, ("sum_in_window",))
    rows: list[SweepRow] = []
    for horizon, mean, s in zip(horizons, means, sums["sum_in_window"]):
        sample = TailSample.from_values(s - float(mean))
        grid = _horizon_grid(config, horizon, sample)
        denom = _normalizer(config, "sum", float(horizon), grid)
        rows += _sweep_rows(horizon, tail_table(sample, grid, config.min_exceedances, denominator=denom))
    return rows


def leftover_estimator(model: JointMarkModel) -> str:
    """The estimator that :func:`leftover_scaling` uses for ``model``, and its interval."""
    if model.is_hawkes:
        return (
            "conditional Monte Carlo: mean over windows of E[J_T | immigrant counts per horizon "
            "slot] = L_T/(1 - E[kappa]) and E[eps_T | the same] = L_T E[X]/(1 - E[kappa]), L_T "
            "the mean decayed intensity given the counts, a closed form linear in them; "
            "SE sd/sqrt(n), finite in every Hawkes regime"
        )
    text = (
        "crude Monte Carlo: mean over windows of the leftover count and mark sum; "
        "SE sd/sqrt(n), finite for eps only when the marks have finite variance"
    )
    # K = ceil(Z): a window's leftover count has a finite variance only where K has
    z = model.mark_law if model.regime is Regime.COMONOTONE_COUNT else model.count_param
    if isinstance(z, ParetoLaw) and z.alpha <= 2:
        text += (
            f", and for J_T never here: K = ceil(Z) with Z ~ Pareto(alpha={z.alpha:g} <= 2) "
            "has infinite variance, so J_T does, and its SE is no interval"
        )
    return text


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

