"""Declarative experiment runner.

One JSON config describes one experiment; ``run`` executes it and writes
``<experiment>-<seed>.csv`` / ``.json`` plus a manifest, ``validate`` checks
the config and prints the derived model constants without consuming any
randomness.  The seed is mandatory: outputs must be regenerable bit-exactly
from the manifest alone, for any worker count.

``_EXPERIMENTS`` is the one table of experiments: the top-level keys each
reads, its parse and its run.  ``ExperimentConfig.from_dict`` parses every
field into the experiment's plan before any randomness is drawn, so
``validate`` checks exactly what ``run`` uses.  A key the config does not
give is left to the library's default, which the CLI never restates.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .clusters import HawkesParams, RenewalParams, batch_functionals
from .errors import ClusterTailsError, ConfigError, LatticeMismatch, ModelError
from .estimate import (
    QuantileGrid,
    TailSample,
    hill_estimator,
    laplace_derivative_table,
    ratio_curve,
    table_slope,
    wilson_interval,
)
from .heavytail import (
    BoundedUniform,
    Constant,
    Exponential,
    JointMarkModel,
    OracleSpec,
    ParetoLaw,
    Regime,
    denominator_label,
    model_constants,
)
from .ldp import (
    SUM_CENTRING,
    SweepConfig,
    ldp_max_sweep,
    ldp_sum_sweep,
    leftover_estimator,
    leftover_scaling,
    leftover_to_csv,
    max_estimator,
    sweep_summary,
    sweep_to_csv,
)
from .oracle import (
    DiscreteJointModel,
    _bracket_lattice,
    exact_renewal_max_distribution,
    exact_renewal_max_tail,
    exact_renewal_sum_distribution,
    exact_renewal_sum_tail,
    sample_renewal_functionals,
    truncated_hawkes_sum_tail,
)
from .process import WindowConfig
from .rng import RngStream

# ---------------------------------------------------------------------------
# Config parsing


def _field(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _req(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError("missing required field", _field(path, key))
    return section[key]


def _section(parent: dict, key: str, path: str, required=False) -> dict:
    """The object at ``parent[key]``; ``{}`` when it is absent and optional."""
    if key not in parent:
        if required:
            raise ConfigError("missing required field", _field(path, key))
        return {}
    if not isinstance(parent[key], dict):
        raise ConfigError("must be an object", _field(path, key))
    return parent[key]


def _known(section: dict, path: str, keys) -> None:
    """Rejects the first key of ``section`` that no parser reads, by its path."""
    for key in section:
        if key not in keys:
            raise ConfigError("unknown field", _field(path, key))


def _seed(value, field: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < 2**64:
        raise ConfigError("seed must be a 64-bit unsigned integer", field)
    return value


def _num(section: dict, key: str, path: str, default=None, positive=False):
    if key not in section:
        if default is None:
            raise ConfigError("missing required field", _field(path, key))
        return default
    return _number(section[key], _field(path, key), positive)


def _number(value, field: str, positive=False):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError("must be a number", field)
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError("must be a finite number", field)
    if positive and value <= 0:
        raise ConfigError("must be positive", field)
    return value


def _positive(value, field: str):
    return _number(value, field, positive=True)


def _count(value, field: str, least: int = 1) -> int:
    """A whole number >= ``least``; a whole float such as 1e6 counts as one."""
    value = _number(value, field)
    if value < least or value != math.floor(value):
        whole = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise ConfigError(f"must be {whole}", field)
    return int(value)


def _list(value, field: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError("must be a nonempty list", field)
    return value


def _given(section: dict, path: str, converters: dict) -> dict:
    """The keys ``section`` gives, each through its converter, in map order.

    A key the map lacks is rejected; one whose converter is None is accepted
    and dropped.  Absent keys are left to the library's defaults.
    """
    _known(section, path, converters)
    return {
        key: convert(section[key], _field(path, key))
        for key, convert in converters.items()
        if key in section and convert is not None
    }


# each law kind's class and its parameters, with whether they must be positive
_LAWS = {
    "pareto": (ParetoLaw, (("scale", True), ("alpha", True))),
    "exponential": (Exponential, (("rate", True),)),
    "constant": (Constant, (("value", True),)),
    "uniform": (BoundedUniform, (("lo", False), ("hi", True))),
}


def _parse_law(spec, path: str):
    if not isinstance(spec, dict) or "law" not in spec:
        raise ConfigError("law spec must be an object with a 'law' key", path)
    kind = spec["law"]
    if not isinstance(kind, str) or kind not in _LAWS:
        raise ConfigError(f"unknown law kind {kind!r}", f"{path}.law")
    law, params = _LAWS[kind]
    _known(spec, path, ("law", *(key for key, _ in params)))
    try:
        return law(**{key: _num(spec, key, path, positive=pos) for key, pos in params})
    except ModelError as exc:
        raise ConfigError(str(exc), path) from None


# the model keys each regime reads besides regime and mark: the comonotone
# regimes derive their counts from the marks, and only Hawkes regimes scale E[kappa]
_MODEL_KEYS = {
    Regime.INDEPENDENT_LIGHT_COUNT: ("count",),
    Regime.INDEPENDENT_HEAVY_COUNT: ("count",),
    Regime.INDEPENDENT_TAIL_EQUIVALENT: ("count",),
    Regime.COMONOTONE_COUNT: (),
    Regime.HAWKES_LIGHT_INTENSITY: ("count", "target_mean_kappa"),
    Regime.HAWKES_COMONOTONE_INTENSITY: ("target_mean_kappa",),
}


def _parse_model(section: dict, path: str) -> JointMarkModel:
    regime_name = _req(section, "regime", path)
    try:
        regime = Regime(regime_name)
    except ValueError:
        valid = ", ".join(r.value for r in Regime)
        raise ConfigError(
            f"unknown regime {regime_name!r} (expected one of: {valid})",
            f"{path}.regime",
        ) from None
    _known(section, path, ("regime", "mark", *_MODEL_KEYS[regime]))
    mark = _parse_law(_req(section, "mark", path), f"{path}.mark")
    count_param = None
    if regime is Regime.INDEPENDENT_LIGHT_COUNT:
        count = _section(section, "count", path, required=True)
        _known(count, f"{path}.count", ("poisson_mean",))
        count_param = _num(count, "poisson_mean", f"{path}.count")
    elif "count" in _MODEL_KEYS[regime]:
        count_param = _parse_law(_section(section, "count", path, required=True), f"{path}.count")
    tmk = section.get("target_mean_kappa")
    try:
        return JointMarkModel(
            regime=regime,
            mark_law=mark,
            count_param=count_param,
            target_mean_kappa=tmk,
        )
    except ModelError as exc:
        raise ConfigError(str(exc), path) from None


def _parse_cluster_params(config: dict, model: JointMarkModel):
    section = _section(config, "cluster", "")
    if model.is_hawkes:
        keys = {"decay_rate": _positive, "max_cluster_events": _count}
        return HawkesParams(**_given(section, "cluster", keys))
    waiting = _given(section, "cluster", {"waiting": _parse_law})
    try:
        return RenewalParams(waiting_law=waiting.get("waiting", Exponential(rate=1.0)))
    except ModelError as exc:
        raise ConfigError(exc.message, "cluster.waiting") from None


def _levels(value, field: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in _list(value, field))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), field) from None


_GRID_KEYS = {"levels": _levels, "min_exceedances": _count}


def _parse_grid(config: dict) -> QuantileGrid:
    try:
        return QuantileGrid(**_given(_section(config, "grid", ""), "grid", _GRID_KEYS))
    except ValueError as exc:
        raise ConfigError(str(exc), "grid.levels") from None


# cache_dir names the oracle disk cache of older configs: accepted, and unused
_ORACLE_KEYS = {"size": _count, "seed": _seed, "cache_dir": None}


def _parse_joint(config: dict) -> tuple[str, OracleSpec | None]:
    """The joint-law route of the sum denominators, and its MC oracle if it uses one."""
    joint = config.get("joint", "closed")
    if joint not in ("closed", "mc"):
        raise ConfigError("joint must be 'closed' or 'mc'", "joint")
    oracle = OracleSpec(**_given(_section(config, "oracle", ""), "oracle", _ORACLE_KEYS))
    return joint, oracle if joint == "mc" else None


def _parse_tail_ratio(config: ExperimentConfig):
    functional = config.raw.get("functional", "max")
    if functional not in ("max", "sum"):
        raise ConfigError("functional must be 'max' or 'sum'", "functional")
    grid = _parse_grid(config.raw)
    joint, oracle = _parse_joint(config.raw)
    if functional == "max" and joint == "mc":
        raise ConfigError("joint 'mc' needs functional 'sum': the max has no joint term", "joint")
    return functional, grid, joint, oracle


def _x_grid(value, field: str) -> list[float]:
    xs = [float(_number(x, field)) for x in _list(value, field)]
    if any(x < 0 for x in xs):
        raise ConfigError("must not be negative", field)
    return xs


def _parse_discrete(config: ExperimentConfig):
    """The discrete model, and the hawkes kind's x grid (None for the renewal kind).

    The renewal kind reads an offspring mark table; the hawkes kind redraws
    every node from the joint table, and reads its truncation and x grid.
    Each x of the grid must give a bracket small enough to compute.
    """
    section = _section(config.raw, "discrete", "", required=True)
    kind = section.get("kind", "renewal")
    hawkes = kind == "hawkes"
    table = ("joint_csv", "offspring_csv") if "joint_csv" in section else ("support", "offspring")
    extra = ("max_children", "max_depth", "x_grid") if hawkes else table[1:]
    _known(section, "discrete", ("kind", table[0], *extra))
    x_grid = _x_grid(_req(section, "x_grid", "discrete"), "discrete.x_grid") if hawkes else None
    bounds = {
        k: _count(section.get(k, 0), f"discrete.{k}", 0) for k in ("max_children", "max_depth")
    }
    try:
        if "joint_csv" in section:
            model = DiscreteJointModel.from_csv(
                section["joint_csv"], section.get("offspring_csv"), kind=kind, **bounds
            )
        else:
            support = tuple(
                tuple(float(v) for v in row) for row in _req(section, "support", "discrete")
            )
            offspring = tuple(
                tuple(float(v) for v in row) for row in section.get("offspring", [])
            )
            model = DiscreteJointModel(
                kind=kind,
                support=support,
                offspring_support=offspring,
                **bounds,
            )
    except (ModelError, OSError, ValueError, TypeError) as exc:
        raise ConfigError(str(exc), "discrete") from None
    for x in x_grid or ():
        try:
            _bracket_lattice(model, x)
        except LatticeMismatch as exc:
            raise ConfigError(str(exc), "discrete") from None
        except ModelError as exc:
            raise ConfigError(exc.message, "discrete.x_grid") from None
    return model, x_grid


@dataclass
class ExperimentConfig:
    """A parsed and validated experiment description."""

    experiment: str
    seed: int
    workers: int
    output_dir: Path
    raw: dict
    model: JointMarkModel | None
    cluster_params: RenewalParams | HawkesParams | None
    clusters: int | None  # replications of the experiments that are not window sweeps
    plan: tuple = ()  # what the experiment's parse returned; its run takes it as arguments

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("top-level config must be a JSON object", "")
        experiment = _req(raw, "experiment", "")
        if experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {experiment!r} (expected one of: {', '.join(EXPERIMENTS)})",
                "experiment",
            )
        if "seed" not in raw:
            raise ConfigError(
                "seed is mandatory (reproducibility contract)", "seed"
            )
        keys, parse, _ = _EXPERIMENTS[experiment]
        seed = _seed(raw["seed"], "seed")
        workers = _count(raw.get("workers", 1), "workers")
        clusters = None
        if "clusters" in keys:
            clusters = _count(raw.get("clusters", 1_000_000), "clusters")
        output_dir = Path(raw.get("output_dir", "."))
        model = None
        params = None
        if "model" in keys:
            model = _parse_model(_section(raw, "model", "", required=True), "model")
            params = _parse_cluster_params(raw, model)
            try:
                model_constants(model)
            except ModelError as exc:
                field = f"model.{exc.field}" if exc.field else "model"
                raise type(exc)(exc.message, field) from None
        config = cls(
            experiment=experiment,
            seed=seed,
            workers=workers,
            output_dir=output_dir,
            raw=raw,
            model=model,
            cluster_params=params,
            clusters=clusters,
        )
        config.plan = parse(config)
        _known(raw, "", ("experiment", "seed", "workers", "output_dir", *keys))
        return config

    @classmethod
    def from_path(cls, path: str | Path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}", "") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON: {exc}", "") from None
        if isinstance(raw, dict) and "config_sha256" in raw and "config" in raw:
            # a manifest: rerun the embedded config verbatim
            raw = raw["config"]
        return cls.from_dict(raw)


# ---------------------------------------------------------------------------
# Experiments: each parse returns the plan its run takes after (config, rng);
# each run returns (csv_text, summary_dict)


def _functional_sample(config: ExperimentConfig, rng: RngStream):
    return batch_functionals(
        config.model, config.cluster_params, config.clusters, rng, workers=config.workers
    )


def _constants_dict(model: JointMarkModel) -> dict:
    c = model_constants(model)
    return {
        "regime": model.regime.value,
        "mean_mark": c.mean_mark,
        "mean_count": c.mean_count,
        "max_constant_renewal": None if model.is_hawkes else c.mean_cluster_size,
        "max_constant_hawkes": c.mean_cluster_size if model.is_hawkes else None,
        "sum_shift_hawkes": c.sum_shift_hawkes,
    }


def _run_cluster_tails(config: ExperimentConfig, rng: RngStream, grid: QuantileGrid):
    sample = _functional_sample(config, rng)
    lines = ["functional,level,x,exceedances,survival,ci_low,ci_high"]
    for name, values in (("max", sample.h), ("sum", sample.d)):
        ts = TailSample.from_values(values)
        xs = np.quantile(ts.values, list(grid.levels))
        for level, x in zip(grid.levels, xs):
            c = ts.exceedances(float(x))
            lo, hi = wilson_interval(c, ts.n)
            lines.append(f"{name},{level!r},{float(x)!r},{c},{c / ts.n!r},{lo!r},{hi!r}")
    summary = {
        "constants": _constants_dict(config.model),
        "n": len(sample),
        "mean_max": float(sample.h.mean()),
        "mean_sum": float(sample.d.mean()),
        "mean_size": float(sample.sizes.mean()),
    }
    return "\n".join(lines) + "\n", summary


def _run_tail_ratio(config: ExperimentConfig, rng: RngStream, functional, grid, joint, oracle):
    sample = _functional_sample(config, rng)
    values = sample.h if functional == "max" else sample.d
    curve = ratio_curve(
        TailSample.from_values(values), config.model, functional, grid, joint=joint, oracle=oracle
    )
    summary = {
        "constants": _constants_dict(config.model),
        "functional": functional,
        "target": denominator_label(config.model, functional),
        "n": len(sample),
        "max_abs_dev": float(np.max(np.abs(curve.ratio - 1.0))),
        "ratios": curve.ratio.tolist(),
        "grid": curve.grid.tolist(),
        "provenance": curve.provenance,
    }
    return curve.to_csv(), summary


def _parse_hill(config: ExperimentConfig) -> tuple[int]:
    n = config.clusters
    section = _section(config.raw, "hill", "")
    _known(section, "hill", ("k",))
    k = _count(section.get("k", math.isqrt(n)), "hill.k")
    if not 2 <= k < n:
        raise ConfigError(f"need 2 <= k < clusters = {n}", "hill.k")
    return (k,)


def _run_hill(config: ExperimentConfig, rng: RngStream, k: int):
    sample = _functional_sample(config, rng)
    lines = ["functional,k,alpha_hat,se"]
    results = {}
    for name, values in (("max", sample.h), ("sum", sample.d)):
        est = hill_estimator(TailSample.from_values(values), k)
        lines.append(f"{name},{est.k},{est.alpha_hat!r},{est.se!r}")
        results[name] = {"k": est.k, "alpha_hat": est.alpha_hat, "se": est.se}
    summary = {"constants": _constants_dict(config.model), "n": len(sample), "hill": results}
    return "\n".join(lines) + "\n", summary


def _parse_tauberian(config: ExperimentConfig):
    """The transform source, the tail index alpha and the s-grid."""
    section = _section(config.raw, "tauberian", "")
    _known(section, "tauberian", ("source", "alpha", "s_min", "s_max", "points"))
    source = section.get("source", "marks")
    if source not in ("marks", "max", "sum"):
        raise ConfigError("source must be 'marks', 'max' or 'sum'", "tauberian.source")
    if "alpha" in section:
        alpha, field = _num(section, "alpha", "tauberian", positive=True), "tauberian.alpha"
    elif isinstance(config.model.mark_law, ParetoLaw):
        alpha, field = config.model.mark_law.alpha, "model.mark.alpha"
    else:
        raise ConfigError(
            "alpha must be given when the mark law is not Pareto", "tauberian.alpha"
        )
    if float(alpha).is_integer():
        raise ConfigError("the tauberian slope needs a noninteger alpha", field)
    s_min = _num(section, "s_min", "tauberian", default=1e-3, positive=True)
    s_max = _num(section, "s_max", "tauberian", default=1e-1, positive=True)
    if s_min >= s_max:
        raise ConfigError(f"must be below s_max = {s_max!r}", "tauberian.s_min")
    # a slope is fitted through the points: one point gives no slope
    points = _count(section.get("points", 9), "tauberian.points", 2)
    return source, alpha, np.geomspace(s_min, s_max, points)


def _run_tauberian(config: ExperimentConfig, rng: RngStream, source: str, alpha, s_grid):
    n = config.clusters
    if source == "marks":
        values = config.model.mark_law.sample(rng.generator, n)
    else:
        sample = _functional_sample(config, rng)
        values = sample.h if source == "max" else sample.d
    ts = TailSample.from_values(values)
    order = math.ceil(alpha)
    vals, ses = laplace_derivative_table(ts, s_grid, order)
    slope = table_slope(s_grid, vals, ses)
    lines = ["s,derivative,se"]
    for s, v, e in zip(s_grid, vals, ses):
        lines.append(f"{float(s)!r},{float(v)!r},{float(e)!r}")
    summary = {
        "source": source,
        "alpha": alpha,
        "order": order,
        "slope": slope,
        "target_slope": alpha - order,
        "n": int(ts.n),
    }
    return "\n".join(lines) + "\n", summary


def _run_oracle_compare(config: ExperimentConfig, rng: RngStream, model, x_grid):
    n = config.clusters
    if model.kind == "hawkes":
        lines = ["x,lower,upper"]
        rows = []
        for x in x_grid:
            lo, hi = truncated_hawkes_sum_tail(model, x)
            lines.append(f"{x!r},{lo!r},{hi!r}")
            rows.append({"x": x, "lower": lo, "upper": hi})
        return "\n".join(lines) + "\n", {"kind": "hawkes", "brackets": rows}
    h, d = sample_renewal_functionals(model, n, rng)
    lines = ["functional,x,exact,mc"]
    ks_stats = {}
    for name, values, dist in (
        ("max", h, exact_renewal_max_distribution(model)),
        ("sum", d, exact_renewal_sum_distribution(model)),
    ):
        xs, pmf = dist
        exact_cdf = np.cumsum(pmf)
        emp_cdf = np.searchsorted(np.sort(values), xs, side="right") / n
        ks_stats[name] = float(np.max(np.abs(emp_cdf - exact_cdf)))
        for x, ec, mc in zip(xs, exact_cdf, emp_cdf):
            lines.append(f"{name},{float(x)!r},{float(1.0 - ec)!r},{float(1.0 - mc)!r}")
    summary = {
        "kind": "renewal",
        "n": n,
        "ks_distance": ks_stats,
        "spot_checks": {
            "max_tail_at_1": exact_renewal_max_tail(model, 1.0),
            "sum_tail_at_4": exact_renewal_sum_tail(model, 4.0),
        },
    }
    return "\n".join(lines) + "\n", summary


def _horizons(value, field: str) -> tuple[float, ...]:
    return tuple(float(_number(h, field, positive=True)) for h in _list(value, field))


_LDP_KEYS = {
    "horizons": _horizons,
    "replications": _count,
    "gamma": _positive,
    "x_levels": _count,
    # the size of the pilot run that older ldp-sum configs used to estimate
    # E[S_T]: accepted, and unused, since the sweep centres on the exact mean
    "pilot_windows": None,
    "min_exceedances": _count,
}
_LEFTOVER_KEYS = {"horizons": _horizons, "windows": _count}


def _parse_sweep(config: ExperimentConfig) -> tuple[SweepConfig]:
    """The ``leftover`` section of a leftover sweep, else the ``ldp`` section."""
    window = _section(config.raw, "window", "")
    _known(window, "window", ("nu",))
    nu = _num(window, "nu", "window", default=1.0, positive=True)
    if config.experiment == "leftover":
        name, count_key = "leftover", "windows"
        given = _given(_section(config.raw, name, ""), name, _LEFTOVER_KEYS)
        horizons = given.get("horizons", (10.0, 50.0, 100.0, 500.0))
        options = {"replications": given.get("windows", 100_000)}
    else:
        name, count_key = "ldp", "replications"
        options = _given(_section(config.raw, name, ""), name, _LDP_KEYS)
        horizons = options.pop("horizons", (10.0, 50.0, 100.0))
    try:
        window = WindowConfig(config.model, config.cluster_params, nu)
        return (SweepConfig(window=window, horizons=horizons, **options),)
    except ModelError as exc:
        key = {"replications": count_key}.get(exc.field, exc.field)
        raise ConfigError(exc.message, f"{name}.{key}") from None


def _run_ldp_max(config: ExperimentConfig, rng: RngStream, sweep: SweepConfig):
    rows = ldp_max_sweep(sweep, rng, workers=config.workers)
    return sweep_to_csv(rows), {**sweep_summary(rows), "estimator": max_estimator(config.model)}


def _run_ldp_sum(config: ExperimentConfig, rng: RngStream, sweep: SweepConfig, joint, oracle):
    rows = ldp_sum_sweep(sweep, rng, workers=config.workers, joint=joint, oracle=oracle)
    return sweep_to_csv(rows), {**sweep_summary(rows), "centring": SUM_CENTRING}


def _run_leftover(config: ExperimentConfig, rng: RngStream, sweep: SweepConfig):
    rows = leftover_scaling(sweep, rng, workers=config.workers)
    summary = {
        "horizons": [asdict(r) for r in rows],
        "estimator": leftover_estimator(config.model),
    }
    return leftover_to_csv(rows), summary


# Each experiment: the top-level keys it reads besides experiment, seed,
# workers and output_dir; its parse, which reads the config and draws no
# randomness; and its run.  The runs call the library through this module's
# globals at call time, so a wrapper set on one of them reaches every run.
_MODEL = ("model", "cluster")
_EXPERIMENTS = {
    "cluster-tails": (
        (*_MODEL, "clusters", "grid"),
        lambda config: (_parse_grid(config.raw),),
        _run_cluster_tails,
    ),
    "tail-ratio": (
        (*_MODEL, "clusters", "functional", "grid", "joint", "oracle"),
        _parse_tail_ratio,
        _run_tail_ratio,
    ),
    "hill": ((*_MODEL, "clusters", "hill"), _parse_hill, _run_hill),
    "tauberian": ((*_MODEL, "clusters", "tauberian"), _parse_tauberian, _run_tauberian),
    "oracle-compare": (("clusters", "discrete"), _parse_discrete, _run_oracle_compare),
    "ldp-max": ((*_MODEL, "window", "ldp"), _parse_sweep, _run_ldp_max),
    "ldp-sum": (
        (*_MODEL, "window", "ldp", "joint", "oracle"),
        lambda config: _parse_sweep(config) + _parse_joint(config.raw),
        _run_ldp_sum,
    ),
    "leftover": ((*_MODEL, "window", "leftover"), _parse_sweep, _run_leftover),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


# ---------------------------------------------------------------------------
# Entry points


def run(config_path: str | Path, workers: int | None = None, output_dir: str | None = None) -> list[Path]:
    """Execute the experiment and write CSV, JSON summary, and manifest."""
    config = ExperimentConfig.from_path(config_path)
    if workers is not None:
        config.workers = _count(workers, "workers")
    if output_dir is not None:
        config.output_dir = Path(output_dir)
    started = time.time()
    rng = RngStream(config.seed, 0)
    csv_text, summary = _EXPERIMENTS[config.experiment][2](config, rng, *config.plan)

    config.output_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{config.experiment}-{config.seed}"
    csv_path = config.output_dir / f"{stem}.csv"
    json_path = config.output_dir / f"{stem}.json"
    manifest_path = config.output_dir / f"{stem}.manifest.json"
    csv_path.write_text(csv_text)
    json_text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    json_path.write_text(json_text)

    config_blob = json.dumps(config.raw, sort_keys=True).encode()
    manifest = {
        "experiment": config.experiment,
        "seed": config.seed,
        "config": config.raw,
        "config_sha256": hashlib.sha256(config_blob).hexdigest(),
        "outputs": {
            csv_path.name: hashlib.sha256(csv_text.encode()).hexdigest(),
            json_path.name: hashlib.sha256(json_text.encode()).hexdigest(),
        },
        "versions": {
            "cluster_tails": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "wall_time_s": round(time.time() - started, 3),
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return [csv_path, json_path, manifest_path]


def validate(config_path: str | Path) -> dict:
    """Full validation without simulation; returns the derived constants."""
    config = ExperimentConfig.from_path(config_path)
    report: dict = {"experiment": config.experiment, "seed": config.seed, "valid": True}
    if config.model is not None:
        report["constants"] = _constants_dict(config.model)
    sweep = config.plan[0]
    if isinstance(sweep, SweepConfig):
        report["horizons"] = list(sweep.horizons)
        report["replications"] = sweep.replications
    return report


def _error_record(exc: ClusterTailsError) -> str:
    return json.dumps(
        {
            "error": type(exc).__name__,
            "message": str(exc),
            "field": getattr(exc, "field", None),
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cluster-tails",
        description="Heavy-tailed Poisson cluster process experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to the experiment JSON")
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--output-dir", default=None)
    p_val = sub.add_parser("validate", help="validate a config without simulating")
    p_val.add_argument("config", help="path to the experiment JSON")
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            outputs = run(args.config, workers=args.workers, output_dir=args.output_dir)
            for path in outputs:
                print(path)
            return 0
        report = validate(args.config)
        for key, value in report.items():
            if isinstance(value, dict):
                for k2, v2 in value.items():
                    print(f"{key}.{k2}={v2}")
            else:
                print(f"{key}={value}")
        return 0
    except ConfigError as exc:
        print(_error_record(exc), file=sys.stderr)
        return 2
    except ModelError as exc:
        print(_error_record(exc), file=sys.stderr)
        return 3
    except ClusterTailsError as exc:
        print(_error_record(exc), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
