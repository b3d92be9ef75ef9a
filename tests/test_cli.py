"""End-to-end tests of the experiment runner."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cluster_tails
from cluster_tails.cli import main, run, validate
from cluster_tails.errors import ConfigError

MODEL = {
    "regime": "IndependentLightCount",
    "mark": {"law": "pareto", "scale": 1.0, "alpha": 1.5},
    "count": {"poisson_mean": 2.0},
}


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

    CASES = [
        ("leftover", {"leftover": {"horizons": 5}}, "leftover.horizons"),
        ("leftover", {"leftover": {"horizons": []}}, "leftover.horizons"),
        ("ldp-max", {"ldp": {"horizons": ["a"]}}, "ldp.horizons"),
        ("ldp-sum", {"ldp": {"horizons": [-1, 5]}}, "ldp.horizons"),
        ("ldp-max", {"ldp": {"horizons": [50, 10]}}, "ldp.horizons"),
        ("ldp-sum", {"ldp": {"pilot_windows": 500}}, "ldp.pilot_windows"),
        ("leftover", {"leftover": {"windows": 5_000}}, "leftover.windows"),
        ("tail-ratio", {"clusters": -5}, "clusters"),
        ("hill", {"clusters": 1_000, "hill": {"k": 1_000}}, "hill.k"),
        ("hill", {"clusters": 1_000, "hill": {"k": 1}}, "hill.k"),
        ("tauberian", {"tauberian": {"alpha": 2}}, "tauberian.alpha"),
        ("tauberian", {"tauberian": {"alpha": "a"}}, "tauberian.alpha"),
        ("cluster-tails", {"workers": 0}, "workers"),
    ]

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

    def test_oracle_compare_experiment(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "experiment": "oracle-compare",
                "seed": 13,
                "clusters": 100_000,
                "discrete": {
                    "kind": "renewal",
                    "support": [[1.0, 1, 0.5], [2.0, 2, 0.5]],
                    "offspring": [[1.0, 0.5], [2.0, 0.5]],
                },
                "output_dir": str(tmp_path),
            },
        )
        run(config)
        summary = json.loads((tmp_path / "oracle-compare-13.json").read_text())
        assert summary["spot_checks"]["max_tail_at_1"] == 0.75
        assert summary["spot_checks"]["sum_tail_at_4"] == 0.375
        assert summary["ks_distance"]["max"] < 0.01
        assert summary["ks_distance"]["sum"] < 0.01

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

