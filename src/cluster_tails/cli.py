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
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .clusters import (
    DEFAULT_MAX_CLUSTER_EVENTS,
    FUNCTIONALS,
    HawkesParams,
    RenewalParams,
    functional_chunks,
)
from .errors import ClusterTailsError, ConfigError, LatticeMismatch, ModelError
from .estimate import (
    _LAPLACE_BLOCK,
    CountTally,
    QuantileGrid,
    TailFold,
    cluster_max_tail,
    crude_tail_estimator,
    hill_estimator,
    laplace_derivative_table,
    max_tail_estimator,
    ratio_curve,
    table_slope,
    tail_table,
)
from .heavytail import (
    BoundedUniform,
    Constant,
    Exponential,
    JointMarkModel,
    ParetoLaw,
    Regime,
    denominator_label,
    model_constants,
)
from .ldp import (
    SUM_CENTRING,
    SweepConfig,
    check_left_edges,
    ldp_max_sweep,
    ldp_sum_sweep,
    leftover_estimator,
    leftover_scaling,
    max_estimator,
    sweep_summary,
)
from .oracle import (
    DiscreteJointModel,
    _hawkes_lattice,
    _renewal_lattice,
    exact_renewal_max_distribution,
    exact_renewal_max_tail,
    exact_renewal_sum_distribution,
    exact_renewal_sum_tail,
    hawkes_sum_tail,
    renewal_functional_chunks,
)
from .process import WindowConfig, check_mean_events
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
        # a law's fields are spelt as its config keys
        raise ConfigError(exc.message, f"{path}.{exc.field}" if exc.field else path) from None


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

# the JointMarkModel attributes whose config keys are spelt otherwise
_MODEL_KEY_OF = {"count_param": "count", "mark_law": "mark"}


def _model_field(exc: ModelError, path: str) -> str:
    """The config path of the model key that ``exc`` names, or ``path`` if it names none."""
    if not exc.field:
        return path
    head, dot, rest = exc.field.partition(".")
    return f"{path}.{_MODEL_KEY_OF.get(head, head)}{dot}{rest}"


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
    tmk = None
    if "target_mean_kappa" in section:
        tmk = _number(section["target_mean_kappa"], f"{path}.target_mean_kappa")
    try:
        return JointMarkModel(
            regime=regime,
            mark_law=mark,
            count_param=count_param,
            target_mean_kappa=tmk,
        )
    except ModelError as exc:
        raise ConfigError(exc.message, _model_field(exc, path)) from None


def _parse_cluster_params(config: dict, model: JointMarkModel):
    section = _section(config, "cluster", "")
    if model.is_hawkes:
        keys = {"decay_rate": _positive, "max_cluster_events": _count}
        return HawkesParams(**_given(section, "cluster", keys))
    # a ceil(Pareto) count is at least ceil(scale): past the Hawkes clusters'
    # default guard, every renewal cluster would be drawn at that size
    comonotone = model.regime is Regime.COMONOTONE_COUNT
    law = model.mark_law if comonotone else model.count_param
    if isinstance(law, ParetoLaw) and 1 + math.ceil(law.scale) > DEFAULT_MAX_CLUSTER_EVENTS:
        raise ConfigError(
            f"every cluster has at least 1 + ceil(scale) = {1 + math.ceil(law.scale):.6g} events, "
            f"over the {DEFAULT_MAX_CLUSTER_EVENTS:,} a cluster may hold",
            "model.mark" if comonotone else "model.count",
        )
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


def _parse_tail_ratio(config: ExperimentConfig):
    _count(config.clusters, "clusters", 2)  # one cluster gives no standard error
    functional = config.raw.get("functional", "max")
    if functional not in ("max", "sum"):
        raise ConfigError("functional must be 'max' or 'sum'", "functional")
    return functional, _parse_grid(config.raw)


def _x_grid(value, field: str) -> list[float]:
    xs = [float(_number(x, field)) for x in _list(value, field)]
    if any(x < 0 for x in xs):
        raise ConfigError("must not be negative", field)
    return xs


def _parse_discrete(config: ExperimentConfig):
    """The discrete model, and the hawkes kind's x grid (None for the renewal kind).

    The renewal kind reads an offspring mark table, and its largest D must
    fit the exact law's lattice cells; the hawkes kind redraws every node
    from the joint table, and reads its x grid, whose largest x must fit the
    transform's lattice cells.  Its ``max_children`` and
    ``max_depth``, the truncation of the bracket that older configs printed,
    are checked as whole numbers >= 0 and unread.
    """
    section = _section(config.raw, "discrete", "", required=True)
    kind = section.get("kind", "renewal")
    hawkes = kind == "hawkes"
    extra = ("max_children", "max_depth", "x_grid") if hawkes else ("offspring",)
    _known(section, "discrete", ("kind", "support", *extra))
    x_grid = _x_grid(_req(section, "x_grid", "discrete"), "discrete.x_grid") if hawkes else None
    for k in ("max_children", "max_depth"):
        _count(section.get(k, 0), f"discrete.{k}", 0)
    try:
        model = DiscreteJointModel(
            kind=kind,
            support=tuple(tuple(map(float, row)) for row in _req(section, "support", "discrete")),
            offspring_support=tuple(tuple(map(float, row)) for row in section.get("offspring", [])),
        )
    except (ModelError, ValueError, TypeError) as exc:
        raise ConfigError(str(exc), "discrete") from None
    try:
        _hawkes_lattice(model, max(x_grid)) if hawkes else _renewal_lattice(model)
    except LatticeMismatch as exc:
        raise ConfigError(str(exc), "discrete") from None
    except ModelError as exc:
        # the hawkes kind's cells reach its largest x, the renewal kind's its largest D
        raise ConfigError(exc.message, "discrete.x_grid" if hawkes else "discrete") from None
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
        output_dir = raw.get("output_dir", ".")
        if not isinstance(output_dir, str):
            raise ConfigError("must be a path string", "output_dir")
        model = None
        params = None
        if "model" in keys:
            model = _parse_model(_section(raw, "model", "", required=True), "model")
            params = _parse_cluster_params(raw, model)
            try:
                model_constants(model)
            except ModelError as exc:
                raise type(exc)(exc.message, _model_field(exc, "model")) from None
        config = cls(
            experiment=experiment,
            seed=seed,
            workers=workers,
            output_dir=Path(output_dir),
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
# each run returns (csv_text, summary_dict), its CSV written by _csv


def _cell(value) -> str:
    """A string or an integer as it is, any other number as repr(float(v)): the same double."""
    if isinstance(value, (str, int, np.integer)):
        return str(value)
    return repr(float(value))


def _csv(header: str, rows, comment: str = "") -> str:
    """A ``# comment`` line if one is given, the header, then one line of cells per row."""
    lines = [f"# {comment}"] if comment else []
    lines.append(header)
    lines += [",".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _attrs(header: str, records) -> list[list]:
    """Each record's attributes, in the order that ``header`` names them."""
    keys = header.split(",")
    return [[getattr(r, k) for k in keys] for r in records]


_SWEEP_COLUMNS = "horizon,x,exceedances,empirical,denominator,ratio,ci_low,ci_high,sup_abs_dev"
_LEFTOVER_COLUMNS = "horizon,j_over_t,j_over_t_se,eps_over_sqrt_t,eps_over_sqrt_t_se"


def _cluster_chunks(config: ExperimentConfig, rng: RngStream, fields):
    """The functionals named in ``fields``, and no others, chunk by chunk (see ``functional_chunks``)."""
    return functional_chunks(
        config.model, config.cluster_params, config.clusters, rng, config.workers, fields
    )


def _fold(chunks, folds) -> None:
    """Adds each chunk's ``field`` to ``fold`` for each (field, fold) pair, in chunk order.

    No chunk is kept: a cluster experiment holds its folds and one chunk.
    """
    for part in chunks:
        for field, fold in folds:
            fold.add(part[field])
        # let go of the chunk before the next is drawn
        part = None


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


def _parse_cluster_tails(config: ExperimentConfig) -> tuple[QuantileGrid]:
    _count(config.clusters, "clusters", 2)  # one cluster gives no standard error
    return (_parse_grid(config.raw),)


def _run_cluster_tails(config: ExperimentConfig, rng: RngStream, grid: QuantileGrid):
    model, n = config.model, config.clusters
    h, d, sizes = TailFold(grid.kept(n)), TailFold(grid.kept(n)), CountTally()
    _fold(_cluster_chunks(config, rng, FUNCTIONALS), (("h", h), ("d", d), ("sizes", sizes)))
    size_values, size_weights = sizes.tally
    summary = {
        "constants": _constants_dict(model),
        "n": n,
        "mean_max": h.total / n,
        "mean_sum": d.total / n,
        "mean_size": int(size_values @ size_weights) / n,
        "estimator": {
            "max": max_tail_estimator(model),
            "sum": crude_tail_estimator("clusters", "D"),
        },
        "min_exceedances": grid.min_exceedances,
        "certified_points": {},
    }
    rows = []
    for name, fold in (("max", h), ("sum", d)):
        ts = fold.sample()
        xs = ts.quantile(list(grid.levels))
        estimate = None
        if name == "max" and model.independent_marks:
            # the max tail is read off the sizes where the marks are independent of them
            estimate = cluster_max_tail(model, sizes.tally, xs)
        t = tail_table(ts, xs, grid.min_exceedances, estimate)
        summary["certified_points"][name] = int(t.certified.sum())
        # the certified column as Python bools, which the CSV writes as True and False
        cells = zip(grid.levels, t.grid, t.exceedances, t.empirical, t.ci_low, t.ci_high, t.certified.tolist())
        rows += [(name, *row) for row in cells]
    return _csv("functional,level,x,exceedances,survival,ci_low,ci_high,certified", rows), summary


def _run_tail_ratio(config: ExperimentConfig, rng: RngStream, functional, grid):
    top = TailFold(grid.kept(config.clusters))
    folds = [("h" if functional == "max" else "d", top)]
    sizes = None
    if functional == "max" and config.model.independent_marks:
        # the max tail is read off the sizes where the marks are independent of them
        sizes = CountTally()
        folds.append(("sizes", sizes))
    _fold(_cluster_chunks(config, rng, [field for field, _ in folds]), folds)
    curve = ratio_curve(
        top.sample(),
        config.model,
        functional,
        grid,
        size_tally=None if sizes is None else sizes.tally,
    )
    summary = {
        "constants": _constants_dict(config.model),
        "functional": functional,
        "target": denominator_label(config.model, functional),
        "n": config.clusters,
        # every point is certified, since ratio_curve certifies the top one of its ascending grid
        "max_abs_dev": curve.sup_abs_dev,
        "ratios": curve.ratio.tolist(),
        "grid": curve.grid.tolist(),
        "provenance": curve.provenance,
    }
    if functional == "max":
        # a sum has one estimator, the crude fraction, which its summary does not name
        summary["estimator"] = max_tail_estimator(config.model)
    c = curve
    rows = zip(c.grid, c.exceedances, c.empirical, c.denominator, c.ratio, c.ci_low, c.ci_high)
    header = "x,exceedances,empirical,denominator,ratio,ci_low,ci_high"
    return _csv(header, rows, c.provenance), summary


def _parse_hill(config: ExperimentConfig) -> tuple[int]:
    n = config.clusters
    section = _section(config.raw, "hill", "")
    _known(section, "hill", ("k",))
    k = _count(section.get("k", math.isqrt(n)), "hill.k")
    if not 2 <= k < n:
        raise ConfigError(f"need 2 <= k < clusters = {n}", "hill.k")
    return (k,)


def _run_hill(config: ExperimentConfig, rng: RngStream, k: int):
    # a Hill estimate reads the top k + 1 values alone
    h, d = TailFold(k + 1), TailFold(k + 1)
    _fold(_cluster_chunks(config, rng, ("h", "d")), (("h", h), ("d", d)))
    results = {}
    for name, fold in (("max", h), ("sum", d)):
        est = hill_estimator(fold.sample(), k)
        results[name] = {"k": est.k, "alpha_hat": est.alpha_hat, "se": est.se}
    rows = [(name, r["k"], r["alpha_hat"], r["se"]) for name, r in results.items()]
    summary = {"constants": _constants_dict(config.model), "n": config.clusters, "hill": results}
    return _csv("functional,k,alpha_hat,se", rows), summary


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
    # a slope is fitted through the points: one point gives no slope, and
    # one cluster gives no standard error
    points = _count(section.get("points", 9), "tauberian.points", 2)
    _count(config.clusters, "clusters", 2)
    return source, alpha, np.geomspace(s_min, s_max, points)


def _run_tauberian(config: ExperimentConfig, rng: RngStream, source: str, alpha, s_grid):
    n = config.clusters
    if source == "marks":
        # one generator's marks, drawn a table block at a time
        law, gen = config.model.mark_law, rng.generator
        chunks = (law.sample(gen, min(_LAPLACE_BLOCK, n - lo)) for lo in range(0, n, _LAPLACE_BLOCK))
    else:
        field = "h" if source == "max" else "d"
        chunks = map(itemgetter(field), _cluster_chunks(config, rng, (field,)))
    order = math.ceil(alpha)
    vals, ses = laplace_derivative_table(chunks, s_grid, order)
    slope = table_slope(s_grid, vals, ses)
    summary = {
        "source": source,
        "alpha": alpha,
        "order": order,
        "slope": slope,
        "target_slope": alpha - order,
        "n": n,
    }
    return _csv("s,derivative,se", zip(s_grid, vals, ses)), summary


def _run_oracle_compare(config: ExperimentConfig, rng: RngStream, model, x_grid):
    n = config.clusters
    if model.kind == "hawkes":
        header = "x,exact,lower,upper"
        rows = [(x, *tail) for x, tail in zip(x_grid, hawkes_sum_tail(model, x_grid))]
        brackets = [dict(zip(header.split(","), row)) for row in rows]
        return _csv(header, rows), {"kind": "hawkes", "brackets": brackets}
    laws = {
        "max": ("h", *exact_renewal_max_distribution(model)),
        "sum": ("d", *exact_renewal_sum_distribution(model)),
    }
    # per functional, how many values lie at or below each support point of
    # its exact law, counted chunk by chunk
    below = {name: np.zeros(len(xs), dtype=np.int64) for name, (_, xs, _) in laws.items()}
    for part in renewal_functional_chunks(model, n, rng, config.workers):
        for name, (field, xs, _) in laws.items():
            below[name] += np.searchsorted(np.sort(part[field]), xs, side="right")
        part = None  # let go of the chunk before the next is drawn
    rows = []
    ks_stats = {}
    for name, (_, xs, pmf) in laws.items():
        exact_cdf = np.cumsum(pmf)
        emp_cdf = below[name] / n
        ks_stats[name] = float(np.max(np.abs(emp_cdf - exact_cdf)))
        rows += [(name, x, 1.0 - ec, 1.0 - mc) for x, ec, mc in zip(xs, exact_cdf, emp_cdf)]
    summary = {
        "kind": "renewal",
        "n": n,
        "ks_distance": ks_stats,
        "spot_checks": {
            "max_tail_at_1": exact_renewal_max_tail(model, 1.0),
            "sum_tail_at_4": exact_renewal_sum_tail(model, 4.0),
        },
    }
    return _csv("functional,x,exact,mc", rows), summary


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
    """The ``leftover`` section of a leftover sweep, else the ``ldp`` section, its left
    edges checked, and the work of E[N_T] on ``cluster.waiting`` where the sweep
    needs the moments of N_T: ldp-sum, and ldp-max where the count is its control
    variate."""
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
        sweep = SweepConfig(window=window, horizons=horizons, **options)
        if name == "ldp":
            check_left_edges(sweep, config.experiment.removeprefix("ldp-"))
        if config.experiment == "ldp-sum" or (
            config.experiment == "ldp-max" and config.model.count_control_order
        ):
            check_mean_events(window, horizons)
        return (sweep,)
    except ModelError as exc:
        fields = {"replications": f"{name}.{count_key}", "waiting": "cluster.waiting"}
        raise ConfigError(exc.message, fields.get(exc.field, f"{name}.{exc.field}")) from None


def _run_ldp_max(config: ExperimentConfig, rng: RngStream, sweep: SweepConfig):
    rows = ldp_max_sweep(sweep, rng, workers=config.workers)
    summary = {**sweep_summary(rows), "estimator": max_estimator(config.model)}
    return _csv(_SWEEP_COLUMNS, _attrs(_SWEEP_COLUMNS, rows)), summary


def _run_ldp_sum(config: ExperimentConfig, rng: RngStream, sweep: SweepConfig):
    rows = ldp_sum_sweep(sweep, rng, workers=config.workers)
    summary = {**sweep_summary(rows), "centring": SUM_CENTRING}
    return _csv(_SWEEP_COLUMNS, _attrs(_SWEEP_COLUMNS, rows)), summary


def _run_leftover(config: ExperimentConfig, rng: RngStream, sweep: SweepConfig):
    rows = leftover_scaling(sweep, rng, workers=config.workers)
    summary = {
        "horizons": [asdict(r) for r in rows],
        "estimator": leftover_estimator(config.model),
    }
    return _csv(_LEFTOVER_COLUMNS, _attrs(_LEFTOVER_COLUMNS, rows)), summary


# Each experiment: the top-level keys it reads besides experiment, seed,
# workers and output_dir; its parse, which reads the config and draws no
# randomness; and its run.  The runs call the library through this module's
# globals at call time, so a wrapper set on one of them reaches every run.
# "joint" and "oracle" chose the Monte Carlo route of older configs to the
# sum denominators' joint term: accepted, and unread, since it is exact.
_MODEL = ("model", "cluster")
_EXPERIMENTS = {
    "cluster-tails": (
        (*_MODEL, "clusters", "grid"),
        _parse_cluster_tails,
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
    "ldp-sum": ((*_MODEL, "window", "ldp", "joint", "oracle"), _parse_sweep, _run_ldp_sum),
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
