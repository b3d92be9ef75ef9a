"""Tests of the benchmark itself: run with ``python -m pytest bench``."""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads
from tracing import Span

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _tree() -> list[Span]:
    # pass [0, 10]
    # +- cli.run [1, 4]      +- process.batch_windows [2, 3] (T100)
    # +- cli.run [5, 9.5]    +- process.batch_windows [6, 7] (T10)
    #                        +- heavytail.sample_joint [7, 8.5]
    return [
        Span("pass", None, 0.0, 10.0),
        Span("cli.run", 0, 1.0, 4.0),
        Span("process.batch_windows", 1, 2.0, 3.0, {"points": 1000, "windows": 10, "tag": "T100"}),
        Span("cli.run", 0, 5.0, 9.5),
        Span("process.batch_windows", 3, 6.0, 7.0, {"points": 4000, "windows": 10, "tag": "T10"}),
        Span("heavytail.sample_joint", 3, 7.0, 8.5, {"draws": 3}),
    ]


def test_self_times_subtract_direct_children_only():
    assert tracing.self_times(_tree()) == pytest.approx([2.5, 2.0, 1.0, 2.0, 1.0, 1.5])


def test_layer_metrics_on_synthetic_tree():
    spans = _tree()
    m = tracing.layer_metrics(spans, {"rng.generators": 7}, [10, 100, 500])
    assert m["rng.generators"] == 7
    assert m["cli.run.calls"] == 2
    assert m["cli.self_s"] == pytest.approx(4.0)
    assert m["process.batch_windows.calls"] == 2
    assert m["process.batch_windows.self_s"] == pytest.approx(2.0)
    assert m["process.batch_windows.ns_per_point"] == pytest.approx(2.0e9 / 5000)
    assert m["process.batch_windows.T100.ns_per_point"] == pytest.approx(1e9 / 1000)
    assert m["process.batch_windows.T10.ns_per_point"] == pytest.approx(1e9 / 4000)
    assert m["process.batch_windows.T500.ns_per_point"] == 0.0
    assert m["heavytail.sample_joint.ns_per_draw"] == pytest.approx(1.5e9 / 3)
    assert m["clusters.batch_functionals.calls"] == 0
    assert m["trace.wall_s"] == pytest.approx(10.0)
    # every second of the pass is some layer's self time, bar the root's own 2.5 s
    layer_self = sum(t for s, t in zip(spans, tracing.self_times(spans)) if s.name != "pass")
    assert m["trace.self_sum_s"] == pytest.approx(layer_self) == pytest.approx(7.5)
    assert set(m) == set(tracing.metric_names([10, 100, 500]))


def test_tracer_records_nesting_and_counts():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda n: list(range(n)), lambda a, k, out: {"points": len(out)})
    outer = tracer.wrap("outer", lambda: inner(3) + inner(2))
    root = tracer.open(tracing.ROOT)
    assert len(outer()) == 5
    tracer.close(root)
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("pass", None), ("outer", 0), ("inner", 1), ("inner", 1)
    ]
    assert [s.counts.get("points") for s in tracer.spans[2:]] == [3, 2]
    own = tracing.self_times(tracer.spans)
    assert sum(own) == pytest.approx(tracer.spans[0].end - tracer.spans[0].start)
    assert min(own) >= 0


@pytest.fixture()
def hawkes_outputs(tmp_path, monkeypatch):
    """One real oracle-compare run (no randomness, a few ms) in a scratch directory."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from cluster_tails import cli

    exp = next(e for e in workloads.build("functionals", 3).experiments if e.label == "oracle-compare-hawkes")
    config = {**exp.config, "output_dir": str(tmp_path / "out")}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    cli.run(config_path)
    return config, tmp_path / "out", f"{config['experiment']}-{config['seed']}"


def test_checks_pass_on_fresh_outputs(hawkes_outputs):
    config, out, _ = hawkes_outputs
    result = checks.check_experiment("oracle-compare-hawkes", config, out)
    assert result.ok, result.problems
    assert set(result.sha256) == {"csv", "json"}


def test_corrupted_csv_fails_the_hash_check(hawkes_outputs):
    config, out, stem = hawkes_outputs
    csv_path = out / f"{stem}.csv"
    csv_path.write_text(csv_path.read_text().replace("2.0,", "2.5,", 1))
    result = checks.check_experiment("oracle-compare-hawkes", config, out)
    assert not result.ok
    assert any("does not match its contents" in p for p in result.problems)


def test_implausible_output_fails_even_with_a_consistent_manifest(hawkes_outputs):
    config, out, stem = hawkes_outputs
    json_path, manifest_path = out / f"{stem}.json", out / f"{stem}.manifest.json"
    summary = json.loads(json_path.read_text())
    b = summary["brackets"][0]
    b["lower"], b["upper"] = b["upper"] + 0.1, b["lower"]
    text = json.dumps(summary)
    json_path.write_text(text)
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"][json_path.name] = hashlib.sha256(text.encode()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    result = checks.check_experiment("oracle-compare-hawkes", config, out)
    assert not result.ok
    assert all("hash" not in p for p in result.problems)
    assert any("bracket" in p for p in result.problems)


def test_missing_output_fails(hawkes_outputs):
    config, out, stem = hawkes_outputs
    (out / f"{stem}.manifest.json").unlink()
    assert not checks.check_experiment("oracle-compare-hawkes", config, out).ok


def test_leftover_check_requires_j_over_t_to_fall():
    config = {"leftover": {"horizons": [10, 50]}}
    rows = [
        {"horizon": "10.0", "j_over_t": "0.2", "j_over_t_se": "0.002", "eps_over_sqrt_t": "1.8", "eps_over_sqrt_t_se": "0.03"},
        {"horizon": "50.0", "j_over_t": "0.3", "j_over_t_se": "0.003", "eps_over_sqrt_t": "0.8", "eps_over_sqrt_t_se": "0.02"},
    ]
    problems: list[str] = []
    assert checks._check_leftover(config, rows, problems) == pytest.approx(1e-4)
    assert problems and "does not fall" in problems[0]


def test_metric_names_and_units_are_well_formed():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in bench["end_to_end"]]
    layers = [m["name"] for m in bench["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layers == tracing.metric_names(workloads.HORIZONS)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    names = e2e + layers + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]), m
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert all(m["unit"] == run._unit(m["name"]) for m in bench["per_layer"])


def test_workload_seeds_follow_the_workload_seed():
    a, b = workloads.build("functionals", 1), workloads.build("functionals", 1)
    c = workloads.build("functionals", 2)
    assert a == b
    seeds = [e.config["seed"] for e in a.experiments]
    assert len(set(seeds)) == len(seeds)
    assert seeds != [e.config["seed"] for e in c.experiments]
    assert all(0 <= s < 2**63 for s in seeds)


def test_run_refuses_a_tree_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "functionals", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__]))
