"""End-to-end tests of the experiment runner."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cluster_tails
from cluster_tails.cli import main, run, validate
from cluster_tails.errors import ConfigError
from cluster_tails.estimate import wilson_interval

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


def write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


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
        ("tail-ratio", {"oracle": {"sise": 10}}, "oracle.sise"),
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
        # fields only the tail-ratio, cluster-tails and ldp-sum handlers read
        ("tail-ratio", {"functional": "bad"}, "functional"),
        ("tail-ratio", {"joint": "bad"}, "joint"),
        ("ldp-sum", {"joint": "bad"}, "joint"),
        ("tail-ratio", {"oracle": {"size": -1}}, "oracle.size"),
        ("tail-ratio", {"joint": "mc", "oracle": {"seed": -1}}, "oracle.seed"),
        ("tail-ratio", {"grid": {"levels": [0.99, 0.9]}}, "grid.levels"),
        ("cluster-tails", {"grid": {"levels": [{}]}}, "grid.levels"),
        # sections that are not objects
        ("ldp-max", {"window": 5}, "window"),
        ("ldp-max", {"ldp": []}, "ldp"),
        ("leftover", {"leftover": 5}, "leftover"),
        ("cluster-tails", {"cluster": 5}, "cluster"),
        ("cluster-tails", {"cluster": {"waiting": 5}}, "cluster.waiting"),
        ("cluster-tails", {"grid": 5}, "grid"),
        ("tail-ratio", {"oracle": 5}, "oracle"),
        ("hill", {"clusters": 1_000, "hill": 5}, "hill"),
        ("tauberian", {"tauberian": 5}, "tauberian"),
        ("oracle-compare", {"discrete": 5}, "discrete"),
        ("cluster-tails", {"model": {**MODEL, "count": 5}}, "model.count"),
        ("cluster-tails", {"model": 5}, "model"),
    ] + UNKNOWN + [
        # a repeated horizon would write its grid rows twice
        ("ldp-max", {"ldp": {"horizons": [10, 10]}}, "ldp.horizons"),
        ("leftover", {"leftover": {"horizons": [10, 50, 50]}}, "leftover.horizons"),
        # the max denominator has no joint term, so no oracle would be drawn
        ("tail-ratio", {"joint": "mc", "oracle": {"size": 1000}}, "joint"),
        ("oracle-compare", {"discrete": HAWKES_DISCRETE}, "discrete.x_grid"),
        ("oracle-compare", {"discrete": {**HAWKES_DISCRETE, "x_grid": 5}}, "discrete.x_grid"),
        ("oracle-compare", {"discrete": {**HAWKES_DISCRETE, "x_grid": []}}, "discrete.x_grid"),
        ("oracle-compare", {"discrete": {**HAWKES_DISCRETE, "x_grid": ["a"]}}, "discrete.x_grid"),
        ("oracle-compare", {"discrete": {**HAWKES_DISCRETE, "x_grid": [-1]}}, "discrete.x_grid"),
    ] + UNKNOWN_BY_KIND + [
        # a bracket over 10^6 lattice cells would run for hours
        ("oracle-compare", {"discrete": {**HAWKES_DISCRETE, "x_grid": [2, 1e6]}}, "discrete.x_grid"),
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
    CASES += COUNTS + TAUBERIAN_GRID

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "experiment, fields, field", CASES, ids=[c[2] + "-" + str(i) for i, c in enumerate(CASES)]
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
        "tail-ratio-tail-equivalent-mc.json": (
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
    """A fresh interpreter must not pay for scipy.stats or scipy.integrate."""

    @staticmethod
    def _python(*args):
        src = str(Path(cluster_tails.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = {**os.environ, "PYTHONPATH": path}
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env
        )

    def test_import_loads_no_stats_or_integrate(self):
        proc = self._python(
            "-c",
            "import sys, cluster_tails.cli; print(sorted(m for m in sys.modules"
            " if m.startswith(('scipy.stats', 'scipy.integrate'))))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_validate_shipped_config(self):
        config = Path(__file__).resolve().parent.parent / "configs" / "ldp-sum.json"
        proc = self._python("-m", "cluster_tails.cli", "validate", str(config))
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
        rows = list(csv.DictReader((tmp_path / "cluster-tails-16.csv").open()))
        assert len(rows) == 10
        for row in rows:
            low, high = wilson_interval(int(row["exceedances"]), 50_000)
            assert (float(row["ci_low"]), float(row["ci_high"])) == (low, high)
            assert low <= float(row["survival"]) <= high

    def test_tail_ratio_mc_oracle(self, tmp_path):
        config = mc_oracle_config(
            tmp_path, {"size": 100_000, "seed": 5, "cache_dir": str(tmp_path / "cache")}
        )
        run(config)
        text = (tmp_path / "tail-ratio-17.csv").read_text()
        assert "oracle_size=100000" in text.splitlines()[0]
        assert not (tmp_path / "cache").exists()

    def test_mc_oracle_needs_no_cache_dir(self, tmp_path):
        config = mc_oracle_config(tmp_path, {"size": 100_000, "seed": 5})
        assert main(["run", str(config)]) == 0
        text = (tmp_path / "tail-ratio-17.csv").read_text()
        assert "oracle_size=100000 oracle_seed=5" in text.splitlines()[0]

    def test_relative_cache_dir_is_ignored(self, tmp_path, monkeypatch):
        # an old config's key still parses, is kept in the manifest and writes nothing
        monkeypatch.chdir(tmp_path)
        oracle = {"size": 100_000, "seed": 5, "cache_dir": "oracle-cache"}
        config = mc_oracle_config(tmp_path, oracle)
        assert main(["run", str(config)]) == 0
        manifest = json.loads((tmp_path / "tail-ratio-17.manifest.json").read_text())
        assert manifest["config"]["oracle"] == oracle
        assert not list(tmp_path.rglob("oracle-cache"))

