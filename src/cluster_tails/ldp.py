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
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ModelError
from .estimate import _Z95, wilson_interval
from .heavytail import (
    OracleSpec,
    TailTarget,
    model_constants,
    theoretical_denominator,
)
from .process import WindowConfig, sweep_windows
from .rng import RngStream

__all__ = [
    "SweepConfig",
    "SweepRow",
    "LeftoverRow",
    "ldp_max_sweep",
    "ldp_sum_sweep",
    "leftover_scaling",
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
    pilot_windows: int = 100_000
    min_exceedances: int = 50

    def __post_init__(self) -> None:
        if list(self.horizons) != sorted(self.horizons) or not self.horizons:
            raise ModelError("horizons must be a nonempty ascending list", "horizons")
        if self.gamma <= 0:
            raise ModelError("gamma must be positive", "gamma")
        if self.replications < 10_000:
            raise ModelError("need at least 10^4 replications", "replications")
        if self.pilot_windows < 1_000:
            raise ModelError("need at least 1000 pilot windows", "pilot_windows")
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
    mu_se: float = 0.0,
) -> list[SweepRow]:
    n = len(deviations)
    srt = np.sort(deviations)
    counts = n - np.searchsorted(srt, grid, side="right")
    # pilot uncertainty in the centering shifts every threshold by +-z*se
    lo_counts = n - np.searchsorted(srt, grid + _Z95 * mu_se, side="right")
    hi_counts = n - np.searchsorted(srt, grid - _Z95 * mu_se, side="right")
    rows = []
    devs = [
        abs(c / n / d - 1.0)
        for c, d in zip(counts, denom)
        if c >= min_exc
    ]
    sup_dev = float(max(devs)) if devs else float("nan")
    for i, x in enumerate(grid):
        lo = wilson_interval(int(lo_counts[i]), n)[0]
        hi = wilson_interval(int(hi_counts[i]), n)[1]
        rows.append(
            SweepRow(
                horizon=float(horizon),
                x=float(x),
                empirical=float(counts[i] / n),
                denominator=float(denom[i]),
                ratio=float(counts[i] / n / denom[i]),
                ci_low=float(lo / denom[i]),
                ci_high=float(hi / denom[i]),
                exceedances=int(counts[i]),
                certified=bool(counts[i] >= min_exc),
                sup_abs_dev=sup_dev,
            )
        )
    return rows


def _expected_events(config: WindowConfig) -> float:
    """E[N_T] from the cluster-independence formula (no boundary correction)."""
    consts = model_constants(config.model)
    if config.model.is_hawkes:
        return config.nu * config.horizon * consts.max_constant_hawkes
    return config.nu * config.horizon * consts.max_constant_renewal


def ldp_max_sweep(
    config: SweepConfig, rng: RngStream, workers: int = 1
) -> list[SweepRow]:
    """Ratio of the window-max tail to E[N_T] * P(X > x), per horizon."""
    maxima = sweep_windows(
        config.window, config.horizons, config.replications, rng, workers, ("max_in_window",)
    )["max_in_window"]
    rows: list[SweepRow] = []
    for horizon, dev in zip(config.horizons, maxima):
        wcfg = replace(config.window, horizon=float(horizon))
        x_lo = config.gamma * wcfg.nu * wcfg.horizon
        grid = _horizon_grid(dev, x_lo, config.x_levels, config.min_exceedances)
        denom = _expected_events(wcfg) * np.asarray(
            wcfg.model.mark_law.survival(grid)
        )
        rows.extend(
            _sweep_rows(horizon, dev, grid, denom, config.min_exceedances)
        )
    return rows


def ldp_sum_sweep(
    config: SweepConfig,
    rng: RngStream,
    workers: int = 1,
    *,
    joint: str = "closed",
    oracle: OracleSpec | None = None,
) -> list[SweepRow]:
    """Ratio of the centered-sum tail to the cluster-sum normalizer, per horizon.

    The centering uses a pilot estimate of E[S_T] at each horizon, the mean
    of ``pilot_windows`` further paths drawn from stream id + 1; its standard
    error is folded into the reported band by evaluating the exceedance
    counts at thresholds shifted by +-1.96 pilot SEs.
    """
    target = (
        TailTarget.HAWKES_SUM if config.window.model.is_hawkes else TailTarget.RENEWAL_SUM
    )
    window, horizons, sum_only = config.window, config.horizons, ("sum_in_window",)
    pilot_n, pilot_rng = config.pilot_windows, RngStream(rng.seed, rng.stream_id + 1)
    pilots = sweep_windows(window, horizons, pilot_n, pilot_rng, workers, sum_only)
    sums = sweep_windows(window, horizons, config.replications, rng, workers, sum_only)
    rows: list[SweepRow] = []
    for horizon, pilot, s in zip(horizons, pilots["sum_in_window"], sums["sum_in_window"]):
        wcfg = replace(window, horizon=float(horizon))
        dev = s - float(pilot.mean())
        mu_se = float(pilot.std(ddof=1) / math.sqrt(pilot_n))
        x_lo = config.gamma * wcfg.nu * wcfg.horizon
        grid = _horizon_grid(dev, x_lo, config.x_levels, config.min_exceedances)
        denom = (
            wcfg.nu
            * wcfg.horizon
            * np.asarray(
                theoretical_denominator(
                    wcfg.model, target, grid, joint=joint, oracle=oracle
                )
            )
        )
        rows.extend(
            _sweep_rows(
                horizon, dev, grid, denom, config.min_exceedances, mu_se=mu_se
            )
        )
    return rows


def leftover_scaling(
    config: SweepConfig, rng: RngStream, workers: int = 1
) -> list[LeftoverRow]:
    """Per-horizon E[J_T]/T and E[eps_T]/sqrt(T) with standard errors."""
    paths = sweep_windows(
        config.window, config.horizons, config.replications, rng, workers,
        ("j_leftover", "leftover_sum"),
    )
    n = config.replications
    rows = []
    for horizon, j, eps in zip(config.horizons, paths["j_leftover"], paths["leftover_sum"]):
        j = j.astype(float)
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


def sweep_to_csv(rows: list[SweepRow], path: str | Path | None = None) -> str:
    buf = io.StringIO()
    buf.write(
        "horizon,x,exceedances,empirical,denominator,ratio,ci_low,ci_high,sup_abs_dev\n"
    )
    for r in rows:
        buf.write(
            f"{r.horizon!r},{r.x!r},{r.exceedances},{r.empirical!r},{r.denominator!r},"
            f"{r.ratio!r},{r.ci_low!r},{r.ci_high!r},{r.sup_abs_dev!r}\n"
        )
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text


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


def leftover_to_csv(rows: list[LeftoverRow], path: str | Path | None = None) -> str:
    buf = io.StringIO()
    buf.write("horizon,j_over_t,j_over_t_se,eps_over_sqrt_t,eps_over_sqrt_t_se\n")
    for r in rows:
        buf.write(
            f"{r.horizon!r},{r.j_over_t!r},{r.j_over_t_se!r},"
            f"{r.eps_over_sqrt_t!r},{r.eps_over_sqrt_t_se!r}\n"
        )
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text
