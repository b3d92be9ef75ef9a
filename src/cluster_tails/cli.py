"""Declarative experiment runner.

One JSON config describes one experiment; ``run`` executes it and writes
``<experiment>-<seed>.csv`` / ``.json`` plus a manifest, ``validate`` checks
the config and prints the derived model constants without consuming any
randomness.  The seed is mandatory: outputs must be regenerable bit-exactly
from the manifest alone, for any worker count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .clusters import (
    DEFAULT_MAX_CLUSTER_EVENTS,
    HawkesParams,
    RenewalParams,
    batch_functionals,
)
from .errors import ClusterTailsError, ConfigError, ModelError
from .estimate import (
    QuantileGrid,
    TailSample,
    hill_estimator,
    laplace_derivative_table,
    ratio_curve,
    tauberian_slope,
)
from .heavytail import (
    BoundedUniform,
    Constant,
    Exponential,
    JointMarkModel,
    OracleSpec,
    ParetoLaw,
    Regime,
    default_target,
    model_constants,
    sample_pareto,
)
from .ldp import (
    SweepConfig,
    ldp_max_sweep,
    ldp_sum_sweep,
    leftover_scaling,
    leftover_to_csv,
    sweep_summary,
    sweep_to_csv,
)
from .oracle import (
    DiscreteJointModel,
    exact_renewal_max_distribution,
    exact_renewal_max_tail,
    exact_renewal_sum_distribution,
    exact_renewal_sum_tail,
    sample_renewal_functionals,
    truncated_hawkes_sum_tail,
)
from .process import WindowConfig
from .rng import RngStream

EXPERIMENTS = (
    "cluster-tails",
    "tail-ratio",
    "hill",
    "tauberian",
    "oracle-compare",
    "ldp-max",
    "ldp-sum",
    "leftover",
)


# ---------------------------------------------------------------------------
# Config parsing


def _req(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError("missing required field", f"{path}.{key}")
    return section[key]


def _num(section: dict, key: str, path: str, default=None, positive=False):
    if key not in section:
        if default is None:
            raise ConfigError("missing required field", f"{path}.{key}")
        return default
    value = section[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError("must be a number", f"{path}.{key}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError("must be a finite number", f"{path}.{key}")
    if positive and value <= 0:
        raise ConfigError("must be positive", f"{path}.{key}")
    return value


def _parse_law(spec, path: str):
    if not isinstance(spec, dict) or "law" not in spec:
        raise ConfigError("law spec must be an object with a 'law' key", path)
    kind = spec["law"]
    try:
        if kind == "pareto":
            return ParetoLaw(
                scale=_num(spec, "scale", path, positive=True),
                alpha=_num(spec, "alpha", path, positive=True),
            )
        if kind == "exponential":
            return Exponential(rate=_num(spec, "rate", path, positive=True))
        if kind == "constant":
            return Constant(value=_num(spec, "value", path, positive=True))
        if kind == "uniform":
            return BoundedUniform(
                lo=_num(spec, "lo", path), hi=_num(spec, "hi", path, positive=True)
            )
    except ModelError as exc:
        raise ConfigError(str(exc), path) from None
    raise ConfigError(f"unknown law kind {kind!r}", f"{path}.law")


def _parse_model(section, path: str) -> JointMarkModel:
    if not isinstance(section, dict):
        raise ConfigError("model must be an object", path)
    regime_name = _req(section, "regime", path)
    try:
        regime = Regime(regime_name)
    except ValueError:
        valid = ", ".join(r.value for r in Regime)
        raise ConfigError(
            f"unknown regime {regime_name!r} (expected one of: {valid})",
            f"{path}.regime",
        ) from None
    mark = _parse_law(_req(section, "mark", path), f"{path}.mark")
    count_param = None
    if regime is Regime.INDEPENDENT_LIGHT_COUNT:
        count = _req(section, "count", path)
        count_param = _num(count, "poisson_mean", f"{path}.count")
    elif regime in (Regime.INDEPENDENT_HEAVY_COUNT, Regime.INDEPENDENT_TAIL_EQUIVALENT):
        count_param = _parse_law(_req(section, "count", path), f"{path}.count")
    elif regime is Regime.HAWKES_LIGHT_INTENSITY:
        count_param = _parse_law(_req(section, "count", path), f"{path}.count")
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
    section = config.get("cluster", {})
    path = "cluster"
    if model.is_hawkes:
        return HawkesParams(
            decay_rate=_num(section, "decay_rate", path, default=1.0, positive=True),
            max_cluster_events=int(
                _num(
                    section,
                    "max_cluster_events",
                    path,
                    default=DEFAULT_MAX_CLUSTER_EVENTS,
                    positive=True,
                )
            ),
        )
    waiting = section.get("waiting", {"law": "exponential", "rate": 1.0})
    return RenewalParams(waiting_law=_parse_law(waiting, f"{path}.waiting"))


def _parse_grid(config: dict) -> QuantileGrid:
    section = config.get("grid", {})
    levels = section.get("levels", list(QuantileGrid().levels))
    if not isinstance(levels, list) or not levels:
        raise ConfigError("must be a nonempty list", "grid.levels")
    try:
        return QuantileGrid(
            levels=tuple(float(v) for v in levels),
            min_exceedances=int(_num(section, "min_exceedances", "grid", default=50)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), "grid.levels") from None


def _parse_oracle(config: dict) -> OracleSpec:
    section = config.get("oracle", {})
    return OracleSpec(
        size=int(_num(section, "size", "oracle", default=10_000_000, positive=True)),
        seed=int(_num(section, "seed", "oracle", default=0)),
    )


def _parse_discrete(config: dict) -> DiscreteJointModel:
    section = config.get("discrete")
    if not isinstance(section, dict):
        raise ConfigError("missing required section", "discrete")
    kind = section.get("kind", "renewal")
    try:
        if "joint_csv" in section:
            return DiscreteJointModel.from_csv(
                section["joint_csv"],
                section.get("offspring_csv"),
                kind=kind,
                max_children=int(section.get("max_children", 0)),
                max_depth=int(section.get("max_depth", 0)),
            )
        support = tuple(tuple(float(v) for v in row) for row in _req(section, "support", "discrete"))
        offspring = tuple(
            tuple(float(v) for v in row) for row in section.get("offspring", [])
        )
        return DiscreteJointModel(
            kind=kind,
            support=support,
            offspring_support=offspring,
            max_children=int(section.get("max_children", 0)),
            max_depth=int(section.get("max_depth", 0)),
        )
    except (ModelError, OSError, ValueError, TypeError) as exc:
        raise ConfigError(str(exc), "discrete") from None


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
        seed = raw["seed"]
        if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
            raise ConfigError("seed must be a 64-bit unsigned integer", "seed")
        workers = int(_num(raw, "workers", "", default=1, positive=True))
        output_dir = Path(raw.get("output_dir", "."))
        model = None
        params = None
        if experiment != "oracle-compare":
            model = _parse_model(_req(raw, "model", ""), "model")
            params = _parse_cluster_params(raw, model)
            try:
                model_constants(model)
            except ModelError as exc:
                field = f"model.{exc.field}" if exc.field else "model"
                raise type(exc)(exc.message, field) from None
        else:
            _parse_discrete(raw)
        return cls(
            experiment=experiment,
            seed=seed,
            workers=workers,
            output_dir=output_dir,
            raw=raw,
            model=model,
            cluster_params=params,
        )

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
# Experiment handlers: each returns (csv_text, summary_dict)


def _clusters_n(config: ExperimentConfig, default=1_000_000) -> int:
    return int(_num(config.raw, "clusters", "", default=default, positive=True))


def _functional_sample(config: ExperimentConfig, rng: RngStream):
    n = _clusters_n(config)
    return batch_functionals(
        config.model, config.cluster_params, n, rng, workers=config.workers
    )


def _constants_dict(model: JointMarkModel) -> dict:
    c = model_constants(model)
    return {
        "regime": model.regime.value,
        "mean_mark": c.mean_mark,
        "mean_count": c.mean_count,
        "max_constant_renewal": c.max_constant_renewal,
        "max_constant_hawkes": c.max_constant_hawkes,
        "sum_shift_hawkes": c.sum_shift_hawkes,
    }


def _run_cluster_tails(config: ExperimentConfig, rng: RngStream):
    sample = _functional_sample(config, rng)
    grid = _parse_grid(config.raw)
    lines = ["functional,level,x,exceedances,survival"]
    for name, values in (("max", sample.h), ("sum", sample.d)):
        ts = TailSample.from_values(values)
        xs = np.quantile(ts.values, list(grid.levels))
        for level, x in zip(grid.levels, xs):
            c = ts.exceedances(float(x))
            lines.append(f"{name},{level!r},{float(x)!r},{c},{c / ts.n!r}")
    summary = {
        "constants": _constants_dict(config.model),
        "n": len(sample),
        "mean_max": float(sample.h.mean()),
        "mean_sum": float(sample.d.mean()),
        "mean_size": float(sample.sizes.mean()),
    }
    return "\n".join(lines) + "\n", summary


def _run_tail_ratio(config: ExperimentConfig, rng: RngStream):
    functional = config.raw.get("functional", "max")
    if functional not in ("max", "sum"):
        raise ConfigError("functional must be 'max' or 'sum'", "functional")
    sample = _functional_sample(config, rng)
    values = sample.h if functional == "max" else sample.d
    grid = _parse_grid(config.raw)
    joint = config.raw.get("joint", "closed")
    oracle = _parse_oracle(config.raw) if joint == "mc" else None
    curve = ratio_curve(
        TailSample.from_values(values),
        config.model,
        default_target(config.model, functional),
        grid,
        joint=joint,
        oracle=oracle,
    )
    summary = {
        "constants": _constants_dict(config.model),
        "functional": functional,
        "target": default_target(config.model, functional).value,
        "n": len(sample),
        "max_abs_dev": float(np.max(np.abs(curve.ratio - 1.0))),
        "ratios": curve.ratio.tolist(),
        "grid": curve.grid.tolist(),
        "provenance": curve.provenance,
    }
    return curve.to_csv(), summary


def _run_hill(config: ExperimentConfig, rng: RngStream):
    sample = _functional_sample(config, rng)
    section = config.raw.get("hill", {})
    k_default = int(math.isqrt(len(sample)))
    k = int(_num(section, "k", "hill", default=k_default, positive=True))
    lines = ["functional,k,alpha_hat,se"]
    results = {}
    for name, values in (("max", sample.h), ("sum", sample.d)):
        est = hill_estimator(TailSample.from_values(values), k)
        lines.append(f"{name},{est.k},{est.alpha_hat!r},{est.se!r}")
        results[name] = {"k": est.k, "alpha_hat": est.alpha_hat, "se": est.se}
    summary = {"constants": _constants_dict(config.model), "n": len(sample), "hill": results}
    return "\n".join(lines) + "\n", summary


def _run_tauberian(config: ExperimentConfig, rng: RngStream):
    section = config.raw.get("tauberian", {})
    source = section.get("source", "marks")
    if source not in ("marks", "max", "sum"):
        raise ConfigError("source must be 'marks', 'max' or 'sum'", "tauberian.source")
    n = _clusters_n(config)
    if source == "marks":
        if not isinstance(config.model.mark_law, ParetoLaw):
            values = config.model.mark_law.sample(rng.generator, n)
        else:
            values = sample_pareto(config.model.mark_law, rng, n)
    else:
        sample = _functional_sample(config, rng)
        values = sample.h if source == "max" else sample.d
    alpha = section.get("alpha")
    if alpha is None:
        if not isinstance(config.model.mark_law, ParetoLaw):
            raise ConfigError(
                "alpha must be given when the mark law is not Pareto", "tauberian.alpha"
            )
        alpha = config.model.mark_law.alpha
    s_min = _num(section, "s_min", "tauberian", default=1e-3, positive=True)
    s_max = _num(section, "s_max", "tauberian", default=1e-1, positive=True)
    points = int(_num(section, "points", "tauberian", default=9, positive=True))
    s_grid = np.geomspace(s_min, s_max, points)
    ts = TailSample.from_values(values)
    order = math.ceil(alpha)
    vals, ses = laplace_derivative_table(ts, s_grid, order)
    slope = tauberian_slope(ts, alpha, s_grid)
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


def _run_oracle_compare(config: ExperimentConfig, rng: RngStream):
    model = _parse_discrete(config.raw)
    section = config.raw["discrete"]
    n = _clusters_n(config)
    if model.kind == "hawkes":
        x_grid = [float(v) for v in _req(section, "x_grid", "discrete")]
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


def _parse_sweep(config: ExperimentConfig) -> SweepConfig:
    window = config.raw.get("window", {})
    nu = _num(window, "nu", "window", default=1.0, positive=True)
    section = config.raw.get("ldp", {})
    horizons = section.get("horizons", [10.0, 50.0, 100.0])
    if not isinstance(horizons, list) or not horizons:
        raise ConfigError("must be a nonempty list", "ldp.horizons")
    try:
        wcfg = WindowConfig(
            model=config.model,
            cluster_params=config.cluster_params,
            nu=nu,
            horizon=float(horizons[-1]),
        )
        return SweepConfig(
            window=wcfg,
            horizons=tuple(float(h) for h in horizons),
            gamma=_num(section, "gamma", "ldp", default=0.5, positive=True),
            replications=int(
                _num(section, "replications", "ldp", default=1_000_000, positive=True)
            ),
            x_levels=int(_num(section, "x_levels", "ldp", default=12, positive=True)),
            pilot_windows=int(
                _num(section, "pilot_windows", "ldp", default=100_000, positive=True)
            ),
            min_exceedances=int(
                _num(section, "min_exceedances", "ldp", default=50, positive=True)
            ),
        )
    except ModelError as exc:
        raise ConfigError(str(exc), "ldp") from None


def _run_ldp_max(config: ExperimentConfig, rng: RngStream):
    sweep = _parse_sweep(config)
    rows = ldp_max_sweep(sweep, rng, workers=config.workers)
    return sweep_to_csv(rows), sweep_summary(rows)


def _run_ldp_sum(config: ExperimentConfig, rng: RngStream):
    sweep = _parse_sweep(config)
    joint = config.raw.get("joint", "closed")
    oracle = _parse_oracle(config.raw) if joint == "mc" else None
    rows = ldp_sum_sweep(sweep, rng, workers=config.workers, joint=joint, oracle=oracle)
    return sweep_to_csv(rows), sweep_summary(rows)


def _run_leftover(config: ExperimentConfig, rng: RngStream):
    window = config.raw.get("window", {})
    nu = _num(window, "nu", "window", default=1.0, positive=True)
    section = config.raw.get("leftover", {})
    horizons = section.get("horizons", [10.0, 50.0, 100.0, 500.0])
    windows = int(_num(section, "windows", "leftover", default=100_000, positive=True))
    try:
        wcfg = WindowConfig(
            model=config.model,
            cluster_params=config.cluster_params,
            nu=nu,
            horizon=float(horizons[-1]),
        )
        sweep = SweepConfig(
            window=wcfg,
            horizons=tuple(float(h) for h in horizons),
            replications=windows,
        )
    except ModelError as exc:
        raise ConfigError(str(exc), "leftover") from None
    rows = leftover_scaling(sweep, rng, workers=config.workers)
    summary = {
        "horizons": [
            {
                "horizon": r.horizon,
                "j_over_t": r.j_over_t,
                "j_over_t_se": r.j_over_t_se,
                "eps_over_sqrt_t": r.eps_over_sqrt_t,
                "eps_over_sqrt_t_se": r.eps_over_sqrt_t_se,
            }
            for r in rows
        ]
    }
    return leftover_to_csv(rows), summary


_HANDLERS = {
    "cluster-tails": _run_cluster_tails,
    "tail-ratio": _run_tail_ratio,
    "hill": _run_hill,
    "tauberian": _run_tauberian,
    "oracle-compare": _run_oracle_compare,
    "ldp-max": _run_ldp_max,
    "ldp-sum": _run_ldp_sum,
    "leftover": _run_leftover,
}


# ---------------------------------------------------------------------------
# Entry points


def run(config_path: str | Path, workers: int | None = None, output_dir: str | None = None) -> list[Path]:
    """Execute the experiment and write CSV, JSON summary, and manifest."""
    config = ExperimentConfig.from_path(config_path)
    if workers is not None:
        config.workers = workers
    if output_dir is not None:
        config.output_dir = Path(output_dir)
    started = time.time()
    rng = RngStream(config.seed, 0)
    csv_text, summary = _HANDLERS[config.experiment](config, rng)

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
    if config.experiment in ("ldp-max", "ldp-sum"):
        sweep = _parse_sweep(config)
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
