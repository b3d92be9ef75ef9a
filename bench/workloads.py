"""The benchmark workloads: reduced-size experiment configs derived from a seed.

Each workload is a list of ``cli.run`` configs that one pass executes back to
back.  The sizes are fixed here, not by the caller, so every commit is timed
on the same work; only the random streams follow the workload seed.

* ``ldp-renewal`` -- ldp-max and ldp-sum in the criterion-10 setting.  Nearly
  all time is the renewal window kernel plus the ldp-sum pilot; the cluster
  functionals and the estimate module do nothing.
* ``leftover-hawkes`` -- the leftover sweep on Hawkes clusters at two
  workers.  The window layer is exercised generation by generation, the
  T=500 horizon makes chunks small, and it is the only workload that starts
  process pools.
* ``functionals`` -- the cluster-level experiments: batch functionals, joint
  draws, sorting, the MC oracle on a cold cache and the exact oracles.  The
  window layer does nothing here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

PARETO = {"law": "pareto", "scale": 1.0, "alpha": 1.5}
LIGHT_COUNT = {"regime": "IndependentLightCount", "mark": PARETO, "count": {"poisson_mean": 2.0}}
HAWKES_LIGHT = {
    "regime": "HawkesLightIntensity",
    "mark": PARETO,
    "count": {"law": "uniform", "lo": 0.0, "hi": 1.0},
    "target_mean_kappa": 0.5,
}

LDP_HORIZONS = [10, 50, 100]
LEFTOVER_HORIZONS = [10, 50, 100, 500]
# Every window horizon any workload runs; the traced run reports ns/point for each.
HORIZONS = sorted(set(LDP_HORIZONS) | set(LEFTOVER_HORIZONS))

LDP_REPLICATIONS = 30_000
LDP_PILOT_WINDOWS = 5_000
LEFTOVER_WINDOWS = 20_000
CLUSTERS = 1_500_000
ORACLE_SIZE = 2_000_000
HILL_K = 1_000
HAWKES_SUM_MAX_EVENTS = 10_000_000


@dataclass(frozen=True)
class Experiment:
    label: str
    config: dict


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    experiments: tuple[Experiment, ...]


def derive_seed(*parts) -> int:
    """A 63-bit experiment seed from the workload seed and a label."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).hexdigest()
    return int(digest[:15], 16)


def _ldp(kind: str) -> dict:
    return {
        "experiment": kind,
        "model": LIGHT_COUNT,
        "window": {"nu": 1.0},
        "ldp": {
            "horizons": LDP_HORIZONS,
            "gamma": 0.5,
            "replications": LDP_REPLICATIONS,
            "x_levels": 12,
            "pilot_windows": LDP_PILOT_WINDOWS,
        },
    }


def _tail_ratio(model: dict, functional: str, **extra) -> dict:
    return {
        "experiment": "tail-ratio",
        "model": model,
        "clusters": CLUSTERS,
        "functional": functional,
        **extra,
    }


_SPECS = {
    "ldp-renewal": (1, (("ldp-max", _ldp("ldp-max")), ("ldp-sum", _ldp("ldp-sum")))),
    "leftover-hawkes": (
        2,
        (
            (
                "leftover",
                {
                    "experiment": "leftover",
                    "model": HAWKES_LIGHT,
                    "window": {"nu": 1.0},
                    "leftover": {"horizons": LEFTOVER_HORIZONS, "windows": LEFTOVER_WINDOWS},
                },
            ),
        ),
    ),
    "functionals": (
        1,
        (
            (
                "cluster-tails",
                {
                    "experiment": "cluster-tails",
                    "model": {
                        "regime": "IndependentHeavyCount",
                        "mark": {"law": "exponential", "rate": 1.0},
                        "count": PARETO,
                    },
                    "clusters": CLUSTERS,
                },
            ),
            ("tail-ratio-renewal-max", _tail_ratio(LIGHT_COUNT, "max")),
            (
                "tail-ratio-hawkes-sum",
                _tail_ratio(
                    {"regime": "HawkesComonotoneIntensity", "mark": PARETO, "target_mean_kappa": 0.5},
                    "sum",
                    # Cluster sizes have a Pareto(1.5) tail in this regime: at the
                    # default guard of 10^6 events about one seed in 40 overflows.
                    cluster={"max_cluster_events": HAWKES_SUM_MAX_EVENTS},
                ),
            ),
            (
                "tail-ratio-tail-equivalent-mc",
                _tail_ratio(
                    {"regime": "IndependentTailEquivalent", "mark": PARETO, "count": PARETO},
                    "sum",
                    joint="mc",
                    # relative on purpose: it lands in the pass's empty work directory
                    oracle={"size": ORACLE_SIZE, "cache_dir": "oracle-cache"},
                ),
            ),
            (
                "hill",
                {"experiment": "hill", "model": HAWKES_LIGHT, "clusters": CLUSTERS, "hill": {"k": HILL_K}},
            ),
            (
                "tauberian",
                {
                    "experiment": "tauberian",
                    "model": LIGHT_COUNT,
                    "clusters": CLUSTERS,
                    "tauberian": {"source": "sum", "s_min": 0.001, "s_max": 0.1, "points": 9},
                },
            ),
            (
                "oracle-compare-renewal",
                {
                    "experiment": "oracle-compare",
                    "clusters": CLUSTERS,
                    "discrete": {
                        "kind": "renewal",
                        "support": [[1.0, 1, 0.5], [2.0, 2, 0.5]],
                        "offspring": [[1.0, 0.5], [2.0, 0.5]],
                    },
                },
            ),
            (
                "oracle-compare-hawkes",
                {
                    "experiment": "oracle-compare",
                    "discrete": {
                        "kind": "hawkes",
                        "support": [[1.0, 0.4, 0.5], [2.0, 0.7, 0.5]],
                        "max_children": 8,
                        "max_depth": 10,
                        "x_grid": [2.0, 4.0, 8.0, 12.0, 16.0],
                    },
                },
            ),
        ),
    ),
}

NAMES = tuple(_SPECS)


def build(name: str, seed: int) -> Workload:
    """The workload's experiments with their seeds derived from ``seed``."""
    if name not in _SPECS:
        raise KeyError(f"unknown workload {name!r} (expected one of: {', '.join(NAMES)})")
    workers, specs = _SPECS[name]
    experiments = []
    for label, template in specs:
        config = {**template, "seed": derive_seed(name, seed, label)}
        if "oracle" in config:
            config["oracle"] = {**config["oracle"], "seed": derive_seed(name, seed, label, "oracle")}
        config["output_dir"] = f"out-{label}"
        experiments.append(Experiment(label, config))
    return Workload(name, workers, tuple(experiments))
