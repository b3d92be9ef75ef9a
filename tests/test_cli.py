"""End-to-end tests of the experiment runner."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import cluster_tails
from cluster_tails import clusters, oracle
from cluster_tails.cli import main, run, validate
from cluster_tails.errors import ConfigError
from cluster_tails.estimate import QuantileGrid, wilson_interval

MODEL = {
    "regime": "IndependentLightCount",
    "mark": {"law": "pareto", "scale": 1.0, "alpha": 1.5},
    "count": {"poisson_mean": 2.0},
}
RENEWAL_DISCRETE = {
    "kind": "renewal",
    "support": [[1.0, 1, 0.5], [2.0, 2, 0.5]],
    "offspring": [[1.0, 0.5], [2.0, 0.5]],
}
HAWKES_DISCRETE = {
    "kind": "hawkes",
    "support": [[1.0, 0.5, 1.0]],
    "max_children": 4,
    "max_depth": 3,
}
HAWKES_BRACKETS = {**HAWKES_DISCRETE, "x_grid": [1.0]}
EXPONENTIAL_MARKS = {**MODEL, "mark": {"law": "exponential", "rate": 1.0}}
HAWKES_COMONOTONE = {
    "regime": "HawkesComonotoneIntensity",
    "mark": {"law": "pareto", "scale": 1.0, "alpha": 1.5},
    "target_mean_kappa": 0.5,
}


def case_ids(names) -> list[str]:
    """The names as test ids, numbered 1, 2, ... only where two or more are the same name.

    An id then stays put when a case with another name is added or removed.
    """
    names = list(names)
    seen: dict[str, int] = {}
    ids = []
    for name in names:
        seen[name] = seen.get(name, 0) + 1
        ids.append(name if names.count(name) == 1 else f"{name}-{seen[name]}")
    return ids


def write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def python(*args):
    """Runs a fresh interpreter on the package under test, with no stdin and a time limit."""
    src = str(Path(cluster_tails.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        stdin=subprocess.DEVNULL,
        timeout=60,
    )


def tail_ratio_config(tmp_path, **overrides):
    payload = {
        "experiment": "tail-ratio",
        "seed": 7,
        "model": MODEL,
        "clusters": 100_000,
        "functional": "max",
        "grid": {"levels": [0.9, 0.99, 0.999]},
        "output_dir": str(tmp_path / "out"),
    }
    payload.update(overrides)
    return write_config(tmp_path, payload)


def mc_oracle_config(tmp_path, oracle: dict) -> Path:
    """A tail-ratio sum config that names the MC route of older configs to the joint term."""
    return write_config(
        tmp_path,
        {
            "experiment": "tail-ratio",
            "seed": 17,
            "model": {
                "regime": "IndependentTailEquivalent",
                "mark": {"law": "pareto", "scale": 1.0, "alpha": 1.5},
                "count": {"law": "pareto", "scale": 1.0, "alpha": 1.5},
            },
            "clusters": 100_000,
            "functional": "sum",
            "grid": {"levels": [0.9, 0.99]},
            "joint": "mc",
            "oracle": oracle,
            "output_dir": str(tmp_path),
        },
    )


class TestRun:
    def test_happy_path_writes_outputs(self, tmp_path):
        outputs = run(tail_ratio_config(tmp_path))
        assert [p.name for p in outputs] == [
            "tail-ratio-7.csv",
            "tail-ratio-7.json",
            "tail-ratio-7.manifest.json",
        ]
        for p in outputs:
            assert p.exists()
        manifest = json.loads(outputs[2].read_text())
        assert manifest["seed"] == 7
        assert manifest["outputs"]["tail-ratio-7.csv"]
        summary = json.loads(outputs[1].read_text())
        assert summary["constants"]["max_constant_renewal"] == 3.0
        assert outputs[0].read_text().splitlines()[:2] == [
            "# denominator=renewal-max joint=closed estimator=conditional",
            "x,exceedances,empirical,denominator,ratio,ci_low,ci_high",
        ]
        assert summary["estimator"].startswith("conditional Monte Carlo")

    def test_comonotone_max_keeps_the_crude_fraction(self, tmp_path):
        model = {"regime": "ComonotoneCount", "mark": MODEL["mark"]}
        outputs = run(tail_ratio_config(tmp_path, model=model))
        summary = json.loads(outputs[1].read_text())
        assert summary["estimator"].startswith("crude Monte Carlo")
        assert outputs[0].read_text().splitlines()[0] == "# denominator=renewal-max joint=closed"
        rows = list(csv.DictReader(outputs[0].read_text().splitlines()[1:]))
        for row in rows:
            assert float(row["empirical"]) == int(row["exceedances"]) / 100_000

    def test_rerun_byte_identical(self, tmp_path):
        config = tail_ratio_config(tmp_path)
        first = run(config)
        csv1 = first[0].read_bytes()
        json1 = first[1].read_bytes()
        second = run(config)
        assert second[0].read_bytes() == csv1
        assert second[1].read_bytes() == json1

    def test_worker_count_does_not_change_outputs(self, tmp_path):
        config = tail_ratio_config(tmp_path)
        run(config, workers=1, output_dir=str(tmp_path / "w1"))
        run(config, workers=2, output_dir=str(tmp_path / "w2"))
        assert (tmp_path / "w1" / "tail-ratio-7.csv").read_bytes() == (
            tmp_path / "w2" / "tail-ratio-7.csv"
        ).read_bytes()

    def test_manifest_hash_matches_files(self, tmp_path):
        import hashlib

        outputs = run(tail_ratio_config(tmp_path))
        manifest = json.loads(outputs[2].read_text())
        for path in outputs[:2]:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert manifest["outputs"][path.name] == digest

    def test_rerun_from_manifest_regenerates_outputs(self, tmp_path):
        outputs = run(tail_ratio_config(tmp_path))
        rerun = run(outputs[2], output_dir=str(tmp_path / "from-manifest"))
        assert rerun[0].read_bytes() == outputs[0].read_bytes()
        assert rerun[1].read_bytes() == outputs[1].read_bytes()

    def test_rerun_from_another_directory(self, tmp_path, monkeypatch):
        # a discrete model is inline, so the manifest alone regenerates its outputs
        payload = {"experiment": "oracle-compare", "seed": 3, "clusters": 10_000, "discrete": RENEWAL_DISCRETE}
        outputs = run(write_config(tmp_path, payload), output_dir=str(tmp_path / "out"))
        monkeypatch.chdir(outputs[0].parent)
        rerun = run(outputs[2], output_dir="from-manifest")
        assert rerun[0].read_bytes() == outputs[0].read_bytes()
        assert rerun[1].read_bytes() == outputs[1].read_bytes()

    def test_cli_exit_codes(self, tmp_path, capsys):
        config = tail_ratio_config(tmp_path)
        assert main(["run", str(config)]) == 0
        missing_seed = write_config(
            tmp_path, {"experiment": "hill", "model": MODEL}, "bad.json"
        )
        assert main(["validate", str(missing_seed)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert err["field"] == "seed"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_flag_below_one_rejected(self, tmp_path, capsys, workers):
        config = tail_ratio_config(tmp_path)
        assert main(["run", str(config), "--workers", workers]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert err["field"] == "workers"
        assert not (tmp_path / "out").exists()

    def test_supercritical_model_error(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "experiment": "cluster-tails",
                "seed": 1,
                "clusters": 100,
                "model": {
                    "regime": "HawkesLightIntensity",
                    "mark": {"law": "pareto", "scale": 1.0, "alpha": 1.5},
                    "count": {"law": "uniform", "lo": 0.0, "hi": 1.0},
                    "target_mean_kappa": 1.2,
                },
            },
        )
        assert main(["run", str(config)]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "SupercriticalModel"
        assert "target_mean_kappa" in (err["field"] or "") + err["message"]

    def test_infinite_mean_names_the_mark_key(self, tmp_path, capsys):
        model = {**MODEL, "mark": {"law": "pareto", "scale": 1.0, "alpha": 0.8}}
        config = write_config(tmp_path, {"experiment": "hill", "seed": 1, "model": model})
        assert main(["validate", str(config)]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert (err["error"], err["field"]) == ("InfiniteMean", "model.mark.alpha")


class TestValidate:
    def test_prints_constants(self, tmp_path):
        report = validate(tail_ratio_config(tmp_path))
        assert report["valid"] is True
        assert report["constants"]["mean_mark"] == 3.0
        assert report["constants"]["mean_count"] == 2.0
        assert report["constants"]["max_constant_renewal"] == 3.0

    def test_hawkes_constants(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "experiment": "cluster-tails",
                "seed": 3,
                "model": {
                    "regime": "HawkesLightIntensity",
                    "mark": {"law": "pareto", "scale": 1.0, "alpha": 1.5},
                    "count": {"law": "uniform", "lo": 0.0, "hi": 1.0},
                    "target_mean_kappa": 0.5,
                },
            },
        )
        report = validate(config)
        assert report["constants"]["max_constant_hawkes"] == pytest.approx(2.0)

    def test_unknown_regime(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "experiment": "hill",
                "seed": 1,
                "model": {"regime": "Nope", "mark": {"law": "pareto", "scale": 1, "alpha": 1.5}},
            },
        )
        with pytest.raises(ConfigError) as excinfo:
            validate(config)
        assert excinfo.value.field == "model.regime"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            validate(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["model.mark.alpha", "ldp.replications"])
    def test_non_finite_number_rejected(self, tmp_path, capsys, field, value):
        payload = {
            "experiment": "ldp-max",
            "seed": 1,
            "model": json.loads(json.dumps(MODEL)),
            "ldp": {"horizons": [10], "replications": 10_000},
        }
        assert main(["validate", str(write_config(tmp_path, payload))]) == 0
        capsys.readouterr()
        *parents, key = field.split(".")
        section = payload
        for name in parents:
            section = section[name]
        section[key] = value  # json.dumps writes NaN, Infinity and -Infinity
        assert main(["validate", str(write_config(tmp_path, payload))]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert err["field"] == field
        assert err["message"].endswith("must be a finite number")

    def test_validate_consumes_no_randomness(self, tmp_path, monkeypatch):
        import cluster_tails.rng as rng_module

        def forbidden(*args, **kwargs):  # pragma: no cover
            raise AssertionError("validate must not build generators")

        monkeypatch.setattr(rng_module.RngStream, "generator", property(forbidden))
        validate(tail_ratio_config(tmp_path))


class TestHostileConfigs:
    """Every field that ``run`` reads is checked by ``validate`` too, with its path."""

    # keys that no parser reads
    UNKNOWN = [
        ("ldp-max", {"ldp": {"replication": 5000, "horizonz": [5]}}, "ldp.replication"),
        ("tail-ratio", {"functionl": "sum"}, "functionl"),
        ("ldp-max", {"grid": {"levels": [0.9]}}, "grid"),
        (
            "hill",
            {"model": {**MODEL, "mark": {"law": "pareto", "scale": 1.0, "alpah": 1.5}}},
            "model.mark.alpah",
        ),
        ("cluster-tails", {"grid": {"level": [0.9, 0.99]}}, "grid.level"),
        ("cluster-tails", {"cluster": {"decay_rate": 2.0}}, "cluster.decay_rate"),
        ("hill", {"model": {**MODEL, "target_mean_kappa": 0.5}}, "model.target_mean_kappa"),
    ]
    # keys that only the other discrete kind reads: the hawkes kind redraws every
    # node from the joint table, and only it is truncated
    UNKNOWN_BY_KIND = [
        (
            "oracle-compare",
            {"discrete": {**HAWKES_DISCRETE, "x_grid": [1.0], "offspring": [[1.0, 1.0]]}},
            "discrete.offspring",
        ),
        (
            "oracle-compare",
            {"discrete": {**RENEWAL_DISCRETE, "max_children": 4}},
            "discrete.max_children",
        ),
        ("oracle-compare", {"discrete": {**RENEWAL_DISCRETE, "max_depth": 3}}, "discrete.max_depth"),
    ]

    CASES = [
        ("leftover", {"leftover": {"horizons": 5}}, "leftover.horizons"),
        ("leftover", {"leftover": {"horizons": []}}, "leftover.horizons"),
        ("ldp-max", {"ldp": {"horizons": ["a"]}}, "ldp.horizons"),
        ("ldp-sum", {"ldp": {"horizons": [-1, 5]}}, "ldp.horizons"),
        ("ldp-max", {"ldp": {"horizons": [50, 10]}}, "ldp.horizons"),
        (
            "ldp-sum",
            {"cluster": {"waiting": {"law": "pareto", "scale": 1.0, "alpha": 1.5}}},
            "cluster.waiting",
        ),
        ("leftover", {"leftover": {"windows": 5_000}}, "leftover.windows"),
        ("tail-ratio", {"clusters": -5}, "clusters"),
        ("hill", {"clusters": 1_000, "hill": {"k": 1_000}}, "hill.k"),
        ("hill", {"clusters": 1_000, "hill": {"k": 1}}, "hill.k"),
        ("tauberian", {"tauberian": {"alpha": 2}}, "tauberian.alpha"),
        ("tauberian", {"tauberian": {"alpha": "a"}}, "tauberian.alpha"),
        ("cluster-tails", {"workers": 0}, "workers"),
        # fields only the tail-ratio and cluster-tails handlers read
        ("tail-ratio", {"functional": "bad"}, "functional"),
        ("tail-ratio", {"grid": {"levels": [0.99, 0.9]}}, "grid.levels"),
        ("cluster-tails", {"grid": {"levels": [{}]}}, "grid.levels"),
        # sections that are not objects
        ("ldp-max", {"window": 5}, "window"),
        ("ldp-max", {"ldp": []}, "ldp"),
        ("leftover", {"leftover": 5}, "leftover"),
        ("cluster-tails", {"cluster": 5}, "cluster"),
        ("cluster-tails", {"cluster": {"waiting": 5}}, "cluster.waiting"),
        ("cluster-tails", {"grid": 5}, "grid"),
        ("hill", {"clusters": 1_000, "hill": 5}, "hill"),
        ("tauberian", {"tauberian": 5}, "tauberian"),
        ("oracle-compare", {"discrete": 5}, "discrete"),
        ("cluster-tails", {"model": {**MODEL, "count": 5}}, "model.count"),
        ("cluster-tails", {"model": 5}, "model"),
    ] + UNKNOWN + [
        # a repeated horizon would write its grid rows twice
        ("ldp-max", {"ldp": {"horizons": [10, 10]}}, "ldp.horizons"),
        ("leftover", {"leftover": {"horizons": [10, 50, 50]}}, "leftover.horizons"),
        ("oracle-compare", {"discrete": HAWKES_DISCRETE}, "discrete.x_grid"),
        ("oracle-compare", {"discrete": {**HAWKES_DISCRETE, "x_grid": 5}}, "discrete.x_grid"),
        ("oracle-compare", {"discrete": {**HAWKES_DISCRETE, "x_grid": []}}, "discrete.x_grid"),
        ("oracle-compare", {"discrete": {**HAWKES_DISCRETE, "x_grid": ["a"]}}, "discrete.x_grid"),
        ("oracle-compare", {"discrete": {**HAWKES_DISCRETE, "x_grid": [-1]}}, "discrete.x_grid"),
    ] + UNKNOWN_BY_KIND + [
        # 10^6 lattice cells are past the transform's budget of 2^14
        ("oracle-compare", {"discrete": {**HAWKES_DISCRETE, "x_grid": [2, 1e6]}}, "discrete.x_grid"),
    ]
    # a Hawkes support whose mean intensity is 1 or more has no finite cluster
    CASES += [
        (
            "oracle-compare",
            {"discrete": {**HAWKES_BRACKETS, "support": [[1.0, 0.5, 0.5], [2.0, 1.5, 0.5]]}},
            "discrete",
        )
    ]
    # counts are whole numbers: a fraction used to be truncated, or to fail
    # only once the run had started
    COUNTS = [
        ("tail-ratio", {"clusters": 0.5}, "clusters"),
        ("cluster-tails", {"workers": 0.5}, "workers"),
        ("oracle-compare", {"clusters": 0.5, "discrete": RENEWAL_DISCRETE}, "clusters"),
        ("hill", {"clusters": 1_000, "hill": {"k": 2.5}}, "hill.k"),
        ("tauberian", {"tauberian": {"points": 4.5}}, "tauberian.points"),
        ("cluster-tails", {"grid": {"min_exceedances": -5}}, "grid.min_exceedances"),
        ("cluster-tails", {"grid": {"min_exceedances": 2.5}}, "grid.min_exceedances"),
    ] + [
        ("oracle-compare", {"discrete": {**HAWKES_BRACKETS, key: value}}, f"discrete.{key}")
        for key in ("max_children", "max_depth")
        for value in (2.5, -1)
    ]
    # a tauberian slope is fitted through at least two distinct points of the s-grid
    TAUBERIAN_GRID = [
        ("tauberian", {"tauberian": {"points": 1}}, "tauberian.points"),
        ("tauberian", {"tauberian": {"s_min": 0.01, "s_max": 0.01}}, "tauberian.s_min"),
        ("tauberian", {"tauberian": {"s_min": 0.5}}, "tauberian.s_min"),
    ]
    # fields that used to reach the library untyped and fail there, or pass as nonsense
    TYPED = [
        (
            "tail-ratio",
            {"model": {**HAWKES_COMONOTONE, "target_mean_kappa": value}},
            "model.target_mean_kappa",
        )
        for value in ("a", [], float("nan"), True)
    ] + [
        ("tail-ratio", {"output_dir": 5}, "output_dir"),
        # one cluster gives NaN standard errors, which the slope fit used to ignore
        ("tauberian", {"clusters": 1}, "clusters"),
    ]
    # a JointMarkModel error names the config key at fault, not the model section
    MODEL_KEYS = [
        (
            "hill",
            {"model": {k: v for k, v in HAWKES_COMONOTONE.items() if k != "target_mean_kappa"}},
            "model.target_mean_kappa",
        ),
        (
            "hill",
            {"model": {**HAWKES_COMONOTONE, "target_mean_kappa": -0.5}},
            "model.target_mean_kappa",
        ),
        (
            "hill",
            {"model": {"regime": "ComonotoneCount", "mark": {"law": "exponential", "rate": 1.0}}},
            "model.mark",
        ),
        (
            "hill",
            {
                "model": {
                    **HAWKES_COMONOTONE,
                    "regime": "HawkesLightIntensity",
                    "count": {"law": "uniform", "lo": 2.0, "hi": 1.0},
                }
            },
            "model.count.lo",
        ),
    ]
    # the normalizer underflows to 0 at the long horizon's left edge gamma*nu*T,
    # which would make each of its ratios nan; so it does where an older config
    # names the MC route to the sum's joint term
    LEFT_EDGES = [
        (
            experiment,
            {"model": EXPONENTIAL_MARKS, "ldp": {"horizons": [100, t], "replications": 10_000}, **joint},
            "ldp.horizons",
        )
        for experiment, t, joint in (
            ("ldp-max", 1600, {}),
            ("ldp-sum", 2100, {}),
            ("ldp-sum", 2100, {"joint": "mc", "oracle": {"size": 1000}}),
        )
    ]
    # waits too short for T = 100: the r-sum of E[N_T] would take 10^11 terms or more
    SHORT_WAITS = [
        ("ldp-sum", {"cluster": {"waiting": waiting}}, "cluster.waiting")
        for waiting in (
            {"law": "constant", "value": 1e-9},
            {"law": "exponential", "rate": 1e9},
            {"law": "uniform", "lo": 0.0, "hi": 1e-4},
        )
    ]
    # a discrete model is given inline only, so its old table path keys are unknown
    TABLE_PATHS = [
        ("oracle-compare", {"discrete": {**RENEWAL_DISCRETE, key: "table.csv"}}, f"discrete.{key}")
        for key in ("joint_csv", "offspring_csv")
    ]
    # uniform waits whose lattice keeps a row for nearly every one of the
    # r-sum's 1,187 terms, each of 741 cells: admitted, E[N_T] took 36 s
    LATTICE_ROWS = [
        (
            "ldp-sum",
            {
                "cluster": {"waiting": {"law": "uniform", "lo": 0.0123456, "hi": 0.1123456}},
                "ldp": {"horizons": [74]},
            },
            "cluster.waiting",
        )
    ]
    CASES += COUNTS + TAUBERIAN_GRID + TYPED + MODEL_KEYS + LEFT_EDGES + SHORT_WAITS + TABLE_PATHS
    CASES += LATTICE_ROWS
    # ldp-max needs E[N_T] too where the count is its control variate: a Poisson count
    CASES += [("ldp-max", *case[1:]) for case in SHORT_WAITS + LATTICE_ROWS]
    # one cluster gives no standard error: the cluster-tails max rows' bands were nan
    # after a RuntimeWarning, and a tail-ratio max warned before it failed
    CASES += [
        ("cluster-tails", {"clusters": 1}, "clusters"),
        ("tail-ratio", {"clusters": 1}, "clusters"),
        ("tail-ratio", {"clusters": 1, "functional": "sum"}, "clusters"),
    ]
    # scale**alpha = 1e400 once overflowed to a bare OverflowError and exit 1;
    # the count's moments are sums of terms below 1 now, but every cluster
    # would hold 1 + ceil(1e10) events
    CASES += [
        (
            "cluster-tails",
            {
                "model": {
                    "regime": "IndependentHeavyCount",
                    "mark": {"law": "exponential", "rate": 1.0},
                    "count": {"law": "pareto", "scale": 1e10, "alpha": 40},
                }
            },
            "model.count",
        )
    ]
    # a least count ceil(scale) that puts every renewal cluster past the default
    # guard of 10^6 events: validated, then a 1 TiB allocation in the first chunk
    CASES += [
        (
            experiment,
            {
                "model": {
                    "regime": "IndependentHeavyCount",
                    "mark": {"law": "exponential", "rate": 1.0},
                    "count": {"law": "pareto", "scale": scale, "alpha": 3},
                }
            },
            "model.count",
        )
        for experiment, scale in (("cluster-tails", 1e10), ("ldp-max", 1e6))
    ] + [
        (
            "hill",
            {"model": {"regime": "ComonotoneCount", "mark": {"law": "pareto", "scale": 1e10, "alpha": 3}}},
            "model.mark",
        )
    ]

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "experiment, fields, field", CASES, ids=case_ids(f"{c[0]}-{c[2]}" for c in CASES)
    )
    def test_rejected_with_field_path(self, tmp_path, capsys, command, experiment, fields, field):
        payload = {"experiment": experiment, "seed": 1, "model": MODEL, "output_dir": str(tmp_path)}
        payload.update(fields)
        assert main([command, str(write_config(tmp_path, payload))]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert err["field"] == field
        assert not list(tmp_path.glob(f"{experiment}-1.*"))

    def test_least_renewal_cluster_at_the_guard_validates(self, tmp_path):
        # 1 + ceil(999,999) events is the most a cluster may hold, not more
        model = {
            "regime": "IndependentHeavyCount",
            "mark": {"law": "exponential", "rate": 1.0},
            "count": {"law": "pareto", "scale": 999_999, "alpha": 3},
        }
        assert validate(write_config(tmp_path, {"experiment": "cluster-tails", "seed": 1, "model": model}))["valid"]

    # configs that run: gaps between horizons so narrow that the Hawkes
    # leftover's fade * gap underflows to 0, where its slot weight takes its limit
    RUNS = [
        (
            "leftover",
            {"model": HAWKES_COMONOTONE, "leftover": {"horizons": [5e-324, 1e-323], "windows": 10_000}},
        ),
    ]

    @pytest.mark.parametrize("experiment, fields", RUNS, ids=case_ids(c[0] for c in RUNS))
    def test_runs_without_warnings(self, tmp_path, experiment, fields):
        payload = {"experiment": experiment, "seed": 1, "model": MODEL, "output_dir": str(tmp_path)}
        payload.update(fields)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(write_config(tmp_path, payload))]) == 0
        with open(tmp_path / f"{experiment}-1.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert all(float(v) == 0.0 for row in rows for k, v in row.items() if k != "horizon")

    @pytest.mark.parametrize("experiment, fields, field", MODEL_KEYS)
    def test_model_error_names_its_key_once(self, tmp_path, capsys, experiment, fields, field):
        payload = {"experiment": experiment, "seed": 1, **fields}
        assert main(["validate", str(write_config(tmp_path, payload))]) == 2
        err = json.loads(capsys.readouterr().err)
        # the message is the model's own, prefixed by the config path alone
        assert err["message"].startswith(f"{field}: ")
        assert err["message"].count(":") == 1, err["message"]

    @pytest.mark.parametrize(
        "value, field, message",
        [
            (0.5, "clusters", "must be a positive integer"),
            (2.5, "discrete.max_children", "must be an integer >= 0"),
            (1, "tauberian.points", "must be an integer >= 2"),
        ],
    )
    def test_count_message(self, tmp_path, value, field, message):
        payloads = {
            "clusters": {"experiment": "tail-ratio", "model": MODEL, "clusters": value},
            "discrete.max_children": {
                "experiment": "oracle-compare",
                "discrete": {**HAWKES_BRACKETS, "max_children": value},
            },
            "tauberian.points": {
                "experiment": "tauberian", "model": MODEL, "tauberian": {"points": value}
            },
        }
        with pytest.raises(ConfigError) as excinfo:
            validate(write_config(tmp_path, {"seed": 1, **payloads[field]}))
        assert (excinfo.value.message, excinfo.value.field) == (message, field)

    @pytest.mark.parametrize(
        "experiment, fields, field",
        UNKNOWN + UNKNOWN_BY_KIND,
        ids=[c[2] for c in UNKNOWN + UNKNOWN_BY_KIND],
    )
    def test_unknown_field(self, tmp_path, experiment, fields, field):
        payload = {"experiment": experiment, "seed": 1, "model": MODEL, **fields}
        with pytest.raises(ConfigError) as excinfo:
            validate(write_config(tmp_path, payload))
        assert (excinfo.value.message, excinfo.value.field) == ("unknown field", field)

    def test_ceil_pareto_count_past_scale_to_the_alpha_validates_and_runs(self, tmp_path):
        # 6**400 is past a float, but ceil(Z) for Z ~ Pareto(6, 400) is 7 but for
        # a chance of about 1e-27: its moments are sums of terms below 1
        model = {
            "regime": "IndependentHeavyCount",
            "mark": {"law": "exponential", "rate": 1.0},
            "count": {"law": "pareto", "scale": 6, "alpha": 400},
        }
        payload = {
            "experiment": "cluster-tails",
            "seed": 1,
            "model": model,
            "clusters": 20_000,
            "output_dir": str(tmp_path),
        }
        path = write_config(tmp_path, payload)
        assert validate(path)["valid"]
        assert main(["run", str(path)]) == 0
        summary = json.loads((tmp_path / "cluster-tails-1.json").read_text())
        assert summary["mean_size"] == 8.0


# one config of each cluster experiment kind, without its size
CLUSTER_RUNS = {
    "cluster-tails": {"experiment": "cluster-tails", "model": MODEL},
    "tail-ratio-max": {
        "experiment": "tail-ratio", "model": MODEL, "functional": "max", "grid": {"levels": [0.99, 0.999]}
    },
    "tail-ratio-sum": {
        "experiment": "tail-ratio",
        "model": HAWKES_COMONOTONE,
        "functional": "sum",
        "grid": {"levels": [0.99, 0.999]},
    },
    "hill": {"experiment": "hill", "model": MODEL, "hill": {"k": 200}},
    "tauberian-sum": {
        "experiment": "tauberian",
        "model": EXPONENTIAL_MARKS,
        "tauberian": {"source": "sum", "alpha": 1.5, "s_min": 0.1, "s_max": 1.0},
    },
    "tauberian-marks": {
        "experiment": "tauberian",
        "model": EXPONENTIAL_MARKS,
        "tauberian": {"source": "marks", "alpha": 1.5, "s_min": 0.1, "s_max": 1.0},
    },
    "oracle-compare": {"experiment": "oracle-compare", "discrete": RENEWAL_DISCRETE},
}


class TestClusterRunsFoldTheirChunks:
    """A cluster run holds one chunk and what its outputs read, never an array of all its clusters."""

    @staticmethod
    def kept_bytes(name: str, n: int) -> int:
        """The top-m arrays that the run ``name`` keeps at n clusters: 8 B per value."""
        if name == "hill":
            return 2 * 8 * (CLUSTER_RUNS[name]["hill"]["k"] + 1)
        folded = {"cluster-tails": 2, "tail-ratio-max": 1, "tail-ratio-sum": 1}.get(name, 0)
        levels = CLUSTER_RUNS[name].get("grid", {}).get("levels")
        grid = QuantileGrid(levels=tuple(levels)) if levels else QuantileGrid()
        return folded * 8 * grid.kept(n)

    @pytest.mark.parametrize("name", sorted(CLUSTER_RUNS))
    def test_peak_does_not_grow_with_the_clusters(self, tmp_path, name):
        peaks = {}
        for n in (1 << 18, 1 << 20):
            path = write_config(
                tmp_path,
                {**CLUSTER_RUNS[name], "seed": 3, "clusters": n, "output_dir": str(tmp_path)},
                f"{n}.json",
            )
            tracemalloc.start()
            try:
                run(path)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        growth = peaks[1 << 20] - peaks[1 << 18]
        assert growth <= self.kept_bytes(name, 1 << 20) + (1 << 20), peaks

    @pytest.mark.parametrize("name", sorted(CLUSTER_RUNS))
    def test_one_and_two_workers_write_the_same_bytes(self, tmp_path, monkeypatch, name):
        # chunks of 1,024 clusters: ten of them, for two workers to split
        monkeypatch.setattr(clusters, "_chunk_size", lambda *args: 1024)
        monkeypatch.setattr(oracle, "_chunk_size", lambda *args: 1024)
        payload = {**CLUSTER_RUNS[name], "seed": 4, "clusters": 10_000}
        if payload["experiment"] == "tail-ratio":
            payload["grid"] = {"levels": [0.9, 0.99]}
        path = write_config(tmp_path, payload)
        outputs = [run(path, workers=w, output_dir=str(tmp_path / str(w)))[:2] for w in (1, 2)]
        for one, two in zip(*outputs):
            assert one.read_bytes() == two.read_bytes(), one.name

    def test_oracle_compare_sampler_follows_the_workers(self, tmp_path, monkeypatch):
        # ten chunks of the discrete renewal sampler: two workers split them in a pool
        pools = []

        def counted_pool(*args, **kwargs):
            pools.append(kwargs["max_workers"])
            return ProcessPoolExecutor(*args, **kwargs)

        monkeypatch.setattr(clusters, "ProcessPoolExecutor", counted_pool)
        monkeypatch.setattr(oracle, "_chunk_size", lambda *args: 1024)
        path = write_config(tmp_path, {**CLUSTER_RUNS["oracle-compare"], "seed": 5, "clusters": 10_000})
        outputs = [run(path, workers=w, output_dir=str(tmp_path / str(w)))[:2] for w in (1, 2)]
        for one, two in zip(*outputs):
            assert one.read_bytes() == two.read_bytes(), one.name
        assert pools == [2]


class TestValidateOutput:
    """What ``cluster-tails validate`` prints for each shipped config, pinned by its sha256."""

    CONFIGS = Path(__file__).resolve().parent.parent / "configs"
    PINNED = {
        "cluster-tails.json": "1aae593b4b70ffc6f82329537acc99b51b4c890482a92f88cafa0b1995f9b8c2",
        "hill.json": "d3fc1310a5ca93c980e93bed10d57471f642ada8dd2f16afc2a6dc72ffd17a2f",
        "ldp-max.json": "4ba0ab6eca7786d1212912a3ca25500204697ec6d8adb9e7af85b7541287df76",
        "ldp-sum.json": "55967124f1991631677299c13b10a5adaccea010e305e6cd3540c0405f7760da",
        "leftover.json": "26d2187a0cc034da4a4bf446e208a391c0c4fb930589e7794744b2376a06c2fb",
        "oracle-compare.json": "b6ebbfedd72ef8998fea3f8cab985f01f646c0118dd406f6326338209beff0a0",
        "tail-ratio-hawkes-sum.json": (
            "3e8dc15bc6024aafddf8a14f8f4b017fe2ec9f302b25f066dc1f14706dc31790"
        ),
        "tail-ratio-renewal-max.json": (
            "41041ed337f209d5c1ad560ccdeb9e4f4ddb1a9a28800d22bb11ceaa10cfa7a1"
        ),
        "tail-ratio-tail-equivalent.json": (
            "bc4e997c1a0ec757a6d0d8ca167da558b7c14f609b4d058e5b42de95fcc7687a"
        ),
        "tauberian.json": "672ad313665a5c23557d98a00f26664f18ce306532dc8ceb6383aaa3d2ed8f57",
    }

    def test_every_shipped_config_is_pinned(self):
        assert sorted(p.name for p in self.CONFIGS.glob("*.json")) == sorted(self.PINNED)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_stdout_pinned(self, capsys, name):
        assert main(["validate", str(self.CONFIGS / name)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[name], out


class TestColdStart:
    """A fresh interpreter loads no scipy, and a run imports nothing set-up did not.

    ``scipy.special`` alone loads scipy's array-API layer, numpy.f2py,
    numpy.testing and numpy.ma, which doubled the start-up time; and a
    module first imported inside a run moves that cost into the run.
    """

    def test_import_loads_no_stats_or_integrate(self):
        proc = python(
            "-c",
            "import sys, cluster_tails.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_runs_import_no_numpy_or_scipy_module(self, tmp_path):
        configs = Path(__file__).resolve().parent.parent / "configs"
        reduced = {
            "ldp-sum.json": {"ldp": {"replications": 10_000, "pilot_windows": 1_000}},
            "cluster-tails.json": {"clusters": 100_000},
            "tail-ratio-renewal-max.json": {"clusters": 100_000, "grid": {"levels": [0.9, 0.99, 0.999]}},
            # the Hawkes size table and the generation totals
            "hill.json": {"clusters": 100_000, "hill": {"k": 100}},
            "tail-ratio-hawkes-sum.json": {"clusters": 100_000, "grid": {"levels": [0.9, 0.99, 0.999]}},
        }
        # the exponential-intensity sum denominator, by its Gauss-Legendre rule
        exponential_kappa = {
            "model": {
                **HAWKES_COMONOTONE,
                "regime": "HawkesLightIntensity",
                "count": {"law": "exponential", "rate": 1.0},
            },
            **reduced["tail-ratio-hawkes-sum.json"],
        }
        # uniform waits: E[N_T]'s check counts the rows of their lattice
        uniform_waits = {
            "cluster": {"waiting": {"law": "uniform", "lo": 0.5, "hi": 1.5}},
            "ldp": {"replications": 10_000},
        }
        runs = [
            *reduced.items(),
            ("tail-ratio-hawkes-sum.json", exponential_kappa),
            ("ldp-max.json", uniform_waits),
        ]
        paths = []
        for name, sizes in runs:
            raw = json.loads((configs / name).read_text())
            for key, value in sizes.items():
                raw[key] = {**raw.get(key, {}), **value} if isinstance(value, dict) else value
            raw["output_dir"] = str(tmp_path / "out")
            paths.append(str(write_config(tmp_path, raw, f"{len(paths)}-{name}")))
        # the Hawkes cluster sum's transform, which no shipped config runs
        hawkes_oracle = {
            "experiment": "oracle-compare",
            "seed": 1,
            "discrete": {**HAWKES_DISCRETE, "x_grid": [0, 2, 16]},
            "output_dir": str(tmp_path / "out"),
        }
        paths.append(str(write_config(tmp_path, hawkes_oracle, "hawkes-oracle-compare.json")))
        script = (
            "import json, sys\n"
            "import cluster_tails.cli as cli\n"
            "before = set(sys.modules)\n"
            "for path in sys.argv[1:]:\n"
            "    assert cli.main(['run', path]) == 0, path\n"
            "new = sorted(m for m in set(sys.modules) - before if m.startswith(('numpy', 'scipy')))\n"
            "print(json.dumps(new))\n"
        )
        proc = python("-c", script, *paths)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1]) == []

    def test_validate_shipped_config(self):
        config = Path(__file__).resolve().parent.parent / "configs" / "ldp-sum.json"
        proc = python("-m", "cluster_tails.cli", "validate", str(config))
        assert proc.returncode == 0, proc.stderr


class TestOtherExperiments:
    def test_hill_experiment(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "experiment": "hill",
                "seed": 11,
                "model": MODEL,
                "clusters": 200_000,
                "hill": {"k": 500},
                "output_dir": str(tmp_path),
            },
        )
        run(config)
        summary = json.loads((tmp_path / "hill-11.json").read_text())
        assert abs(summary["hill"]["max"]["alpha_hat"] - 1.5) < 0.3
        assert abs(summary["hill"]["sum"]["alpha_hat"] - 1.5) < 0.3

    def test_tauberian_experiment(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "experiment": "tauberian",
                "seed": 12,
                "model": MODEL,
                "clusters": 1_000_000,
                "tauberian": {"source": "marks", "points": 5},
                "output_dir": str(tmp_path),
            },
        )
        run(config)
        summary = json.loads((tmp_path / "tauberian-12.json").read_text())
        assert summary["target_slope"] == -0.5
        assert abs(summary["slope"] - (-0.5)) < 0.25

    def test_tauberian_computes_its_table_once(self, tmp_path, monkeypatch):
        import cluster_tails.cli as cli_module
        import cluster_tails.estimate as estimate_module

        table = estimate_module.laplace_derivative_table
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1:])
            return table(*args, **kwargs)

        for module in (cli_module, estimate_module):
            monkeypatch.setattr(module, "laplace_derivative_table", counted)
        config = write_config(
            tmp_path,
            {
                "experiment": "tauberian",
                "seed": 12,
                "model": MODEL,
                "clusters": 1_000_000,
                "tauberian": {"source": "marks", "points": 5},
                "output_dir": str(tmp_path),
            },
        )
        run(config)
        assert len(calls) == 1

    def test_oracle_compare_experiment(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "experiment": "oracle-compare",
                "seed": 13,
                "clusters": 100_000,
                "discrete": RENEWAL_DISCRETE,
                "output_dir": str(tmp_path),
            },
        )
        run(config)
        summary = json.loads((tmp_path / "oracle-compare-13.json").read_text())
        assert summary["spot_checks"]["max_tail_at_1"] == 0.75
        assert summary["spot_checks"]["sum_tail_at_4"] == 0.375
        assert summary["ks_distance"]["max"] < 0.01
        assert summary["ks_distance"]["sum"] < 0.01

    @pytest.mark.parametrize(
        "payload",
        [
            {"experiment": "tail-ratio", "functional": "sum", "grid": {"levels": [0.9, 0.99]}},
            {"experiment": "cluster-tails", "grid": {"levels": [0.9, 0.99]}},
            {
                "experiment": "tauberian",
                "tauberian": {"source": "sum", "s_min": 0.05, "s_max": 0.5, "points": 3},
            },
            {
                "experiment": "oracle-compare",
                "discrete": {**RENEWAL_DISCRETE, "support": [[1.0, 0, 0.5], [2.0, 0, 0.5]]},
            },
        ],
        ids=["tail-ratio-sum", "cluster-tails", "tauberian-sum", "oracle-compare"],
    )
    def test_renewal_clusters_without_offspring(self, tmp_path, payload):
        # every K is 0, so no chunk draws an offspring mark; D is then X
        model = {**MODEL, "count": {"poisson_mean": 0.0}}
        config = {"seed": 19, "clusters": 20_000, "output_dir": str(tmp_path), **payload}
        if payload["experiment"] != "oracle-compare":
            config["model"] = model
        assert main(["run", str(write_config(tmp_path, config))]) == 0
        if payload["experiment"] == "oracle-compare":
            summary = json.loads((tmp_path / "oracle-compare-19.json").read_text())
            assert summary["ks_distance"]["sum"] == summary["ks_distance"]["max"]

    def test_oracle_compare_hawkes_brackets(self, tmp_path):
        payload = {
            "experiment": "oracle-compare",
            "seed": 13,
            "discrete": {**HAWKES_DISCRETE, "x_grid": [0, 2]},
            "output_dir": str(tmp_path),
        }
        run(write_config(tmp_path, payload))
        rows = json.loads((tmp_path / "oracle-compare-13.json").read_text())["brackets"]
        assert [r["x"] for r in rows] == [0.0, 2.0]
        # every cluster holds the immigrant's mark 1 > 0
        assert (rows[0]["lower"], rows[0]["upper"]) == (1.0, 1.0)

    def test_ldp_max_experiment(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "experiment": "ldp-max",
                "seed": 14,
                "model": MODEL,
                "window": {"nu": 1.0},
                "ldp": {"horizons": [5.0, 10.0], "replications": 20_000, "x_levels": 4,
                        "pilot_windows": 5_000},
                "output_dir": str(tmp_path),
            },
        )
        run(config)
        summary = json.loads((tmp_path / "ldp-max-14.json").read_text())
        assert len(summary["horizons"]) == 2

    def test_ldp_pilot_windows_ignored(self, tmp_path):
        # older ldp-sum configs size a pilot run; the sweep centres on the exact mean
        outputs = []
        for name, extra in (("plain", {}), ("pilot", {"pilot_windows": 5_000})):
            ldp = {"horizons": [5.0, 10.0], "replications": 10_000, "x_levels": 3, **extra}
            payload = {"experiment": "ldp-sum", "seed": 18, "model": MODEL, "ldp": ldp}
            csv_path, json_path, _ = run(
                write_config(tmp_path, payload, f"{name}.json"), output_dir=str(tmp_path / name)
            )
            outputs.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert outputs[0] == outputs[1]
        summary = json.loads(outputs[0][1])
        assert summary["centring"].startswith("exact Campbell mean")

    def test_leftover_experiment(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "experiment": "leftover",
                "seed": 15,
                "model": MODEL,
                "window": {"nu": 1.0},
                "leftover": {"horizons": [5.0, 20.0], "windows": 20_000},
                "output_dir": str(tmp_path),
            },
        )
        run(config)
        rows = (tmp_path / "leftover-15.csv").read_text().splitlines()
        assert len(rows) == 3
        summary = json.loads((tmp_path / "leftover-15.json").read_text())
        assert summary["estimator"].startswith("crude Monte Carlo")

    def test_cluster_tails_experiment(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "experiment": "cluster-tails",
                "seed": 16,
                "model": MODEL,
                "clusters": 50_000,
                "output_dir": str(tmp_path),
            },
        )
        run(config)
        summary = json.loads((tmp_path / "cluster-tails-16.json").read_text())
        assert summary["mean_size"] == pytest.approx(3.0, rel=0.05)
        assert summary["estimator"]["max"].startswith("conditional Monte Carlo")
        assert summary["estimator"]["sum"].startswith("crude Monte Carlo")
        rows = list(csv.DictReader((tmp_path / "cluster-tails-16.csv").open()))
        assert len(rows) == 10
        for row in rows:
            low, high = float(row["ci_low"]), float(row["ci_high"])
            assert low <= float(row["survival"]) <= high
            wilson = wilson_interval(int(row["exceedances"]), 50_000)
            if row["functional"] == "sum":
                assert (low, high) == wilson
            else:
                # the conditional band is far narrower than the crude count's
                assert high - low < (wilson[1] - wilson[0]) / 3

    def test_cluster_tails_certifies_its_points(self, tmp_path):
        # 50,000 clusters: 500, 250, 50, 25 and 5 exceedances on the default levels
        payload = {"experiment": "cluster-tails", "seed": 16, "model": MODEL, "clusters": 50_000}
        for least, points in ((50, 3), (100, 2)):
            out = tmp_path / str(least)
            run(write_config(tmp_path, {**payload, "grid": {"min_exceedances": least}, "output_dir": str(out)}))
            summary = json.loads((out / "cluster-tails-16.json").read_text())
            assert summary["min_exceedances"] == least
            assert summary["certified_points"] == {"max": points, "sum": points}
            rows = list(csv.DictReader((out / "cluster-tails-16.csv").open()))
            for row in rows:
                assert row["certified"] == str(int(row["exceedances"]) >= least)

    def test_ldp_max_waits_unchecked_without_a_control(self, tmp_path):
        # a ceil(Pareto(1.5)) count has no control, so its sweep needs no E[N_T]
        heavy = {**MODEL, "regime": "IndependentHeavyCount", "count": {"law": "pareto", "scale": 1.0, "alpha": 1.5}}
        payload = {"experiment": "ldp-max", "seed": 1, "model": heavy}
        payload["cluster"] = {"waiting": {"law": "exponential", "rate": 1e9}}
        assert validate(write_config(tmp_path, payload))["valid"]

    @pytest.mark.parametrize("experiment", ["tail-ratio", "ldp-sum"])
    def test_joint_and_oracle_keys_are_unread(self, tmp_path, experiment):
        # an older config's MC route to the joint term runs the exact one, byte for byte
        payload = {"experiment": experiment, "seed": 17, "model": MODEL, "output_dir": str(tmp_path / "plain")}
        if experiment == "tail-ratio":
            payload.update(clusters=100_000, functional="sum", grid={"levels": [0.9, 0.99]})
        else:
            payload["ldp"] = {"horizons": [10, 20], "replications": 10_000}
        old = {**payload, "joint": "mc", "oracle": {"size": 100_000, "seed": 5}, "output_dir": str(tmp_path / "old")}
        for name, config in (("plain.json", payload), ("old.json", old)):
            path = write_config(tmp_path, config, name)
            assert validate(path)["valid"]
            run(path)
        for ext in ("csv", "json"):
            plain, mc = (tmp_path / sub / f"{experiment}-17.{ext}" for sub in ("plain", "old"))
            assert plain.read_bytes() == mc.read_bytes()

    def test_relative_cache_dir_is_ignored(self, tmp_path, monkeypatch):
        # an old config's key still parses, is kept in the manifest and writes nothing
        monkeypatch.chdir(tmp_path)
        oracle = {"size": 100_000, "seed": 5, "cache_dir": "oracle-cache"}
        config = mc_oracle_config(tmp_path, oracle)
        assert main(["run", str(config)]) == 0
        manifest = json.loads((tmp_path / "tail-ratio-17.manifest.json").read_text())
        assert manifest["config"]["oracle"] == oracle
        assert not list(tmp_path.rglob("oracle-cache"))

