"""The cluster-tails benchmark.

Usage (from the repository root)::

    python3 bench/run.py --workload ldp-renewal --seed 1 --seconds 25 --trace 0

The load is a closed loop with one client: passes run back to back, each in
a fresh interpreter (``bench/passrun.py``) whose working directory is a new,
empty directory under ``.bench_tmp/`` and whose environment has no
``CLUSTER_TAILS_CACHE``, so every pass pays for its imports and for a cold
MC-oracle cache, as a user does.  A pass imports the package from this
checkout's ``src/``.  New passes start while the next one is expected to end
within ``--seconds``; at least one always runs.

Every experiment of every pass is checked: its CSV, JSON and manifest exist,
the manifest hashes match the files, a per-kind plausibility check passes,
and its outputs are byte-identical across the passes of the invocation.
For a workload that runs at more than one worker, a ``workers=1`` pass runs
first, outside the timed passes, and must give the same outputs.

``--trace 0`` reports the end-to-end metrics (medians over the timed passes).
``--trace 1`` alternates untraced and traced ``workers=1`` passes, plus
traced passes at the workload's own worker count for the pool metrics, and
reports the per-layer metrics; span dumps go to ``.bench_out/``.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it holds the details: the
header (commit, nproc, versions, seed), each experiment's output sha256 and
check results, and each metric's median, quartiles and sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
OUT = ROOT / ".bench_out"
# A pass takes a few seconds; the whole invocation must end within 180 s.
PASS_TIMEOUT_S = 60
INVOCATION_BUDGET_S = 165

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "1",
    "relvar_cpu_s": "s",
}
POOL_PREFIX = "process.pool."


@dataclass
class PassResult:
    workers: int
    traced: bool
    checks: list[checks.ExperimentCheck] = field(default_factory=list)
    report: dict | None = None
    setup_s: float = 0.0

    @property
    def completed(self) -> bool:
        return self.report is not None

    def rel_se2(self) -> float | None:
        """Mean squared relative SE over the experiments that have a reference estimate."""
        values = [c.rel_se2 for c in self.checks if c.rel_se2 is not None]
        return sum(values) / len(values) if values else None


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


_INVOKED = time.perf_counter()


def run_pass(workload: workloads.Workload, workers: int, trace: bool = False, run: bool = True) -> PassResult:
    """One pass in a fresh interpreter; ``run=False`` only sets up (a warm-up)."""
    timeout = max(5.0, min(PASS_TIMEOUT_S, INVOCATION_BUDGET_S - (time.perf_counter() - _INVOKED)))
    result = PassResult(workers, trace)
    TMP.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix="pass-", dir=TMP))
    try:
        cwd = base / "cwd"
        cwd.mkdir()
        experiments = []
        for exp in workload.experiments:
            path = base / f"{exp.label}.json"
            path.write_text(json.dumps(exp.config))
            experiments.append({"config_path": str(path)})
        spec = {
            "src": str(SRC),
            "experiments": experiments,
            "run": run,
            "workers": workers,
            "trace": trace,
            "horizons": workloads.HORIZONS,
            "report_path": str(base / "report.json"),
        }
        spec_path = base / "spec.json"
        spec_path.write_text(json.dumps(spec))
        env = {k: v for k, v in os.environ.items() if k != "CLUSTER_TAILS_CACHE"}

        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "passrun.py"), str(spec_path)],
            cwd=cwd,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            stderr = f"pass timed out after {timeout:.0f} s".encode()
        except BaseException:
            _kill_group(proc)
            raise
        report_path = base / "report.json"
        if proc.returncode == 0 and report_path.is_file():
            result.report = json.loads(report_path.read_text())
            result.setup_s = result.report["ready"] - started
        if not run:
            return result
        crash = None if result.completed else stderr.decode(errors="replace")[-2000:]
        for i, exp in enumerate(workload.experiments):
            if crash is not None:
                result.checks.append(checks.ExperimentCheck(exp.label, [f"pass failed: {crash}"]))
                continue
            check = checks.check_experiment(exp.label, exp.config, cwd / exp.config["output_dir"])
            error = result.report["errors"][i]
            if error is not None:
                check.problems.insert(0, f"raised: {error}")
            result.checks.append(check)
        return result
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _cross_check(passes: list[PassResult]) -> None:
    """Every pass must write the same bytes as the first (any workers, traced or not)."""
    reference = {c.label: c.sha256 for c in passes[0].checks if c.sha256}
    for p in passes[1:]:
        for c in p.checks:
            want = reference.get(c.label)
            if c.sha256 and want and c.sha256 != want:
                c.problems.append(
                    f"outputs at workers={p.workers} traced={p.traced} differ from "
                    f"workers={passes[0].workers} traced={passes[0].traced}"
                )


def _stats(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():  # a plain checkout records only the source digest
        return None
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return head.stdout.strip() or None


def end_to_end(timed: list[PassResult], attempted: int, failed: int) -> dict[str, list[float]]:
    done = [p for p in timed if p.completed]
    samples = {
        "wall_s": [p.report["wall_s"] for p in done],
        "cpu_s": [p.report["cpu_s"] for p in done],
        "peak_rss_mb": [p.report["peak_rss_mb"] for p in done],
        "setup_s": [p.setup_s for p in done],
        "relvar_cpu_s": [p.report["cpu_s"] * p.rel_se2() for p in done if p.rel_se2() is not None],
    }
    samples["ok_frac"] = [1.0 - failed / attempted] if attempted else []
    return samples


def per_layer(traced: list[PassResult], pooled: list[PassResult], untraced: list[PassResult]) -> dict[str, list[float]]:
    names = tracing.metric_names(workloads.HORIZONS)
    samples: dict[str, list[float]] = {n: [] for n in names}
    for p in traced:
        if p.completed:
            for n in names:
                if not n.startswith(POOL_PREFIX):
                    samples[n].append(p.report["layers"][n])
    pool_source = [p for p in pooled if p.completed] or [p for p in traced if p.completed]
    for p in pool_source:
        for n in names:
            if n.startswith(POOL_PREFIX):
                samples[n].append(p.report["layers"][n])
    walls = [p.report["wall_s"] for p in untraced if p.completed]
    traced_walls = samples["trace.wall_s"]
    if walls and traced_walls:
        samples["trace.overhead_s"] = [statistics.median(traced_walls) - statistics.median(walls)]
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cluster-tails benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cluster_tails" / "__init__.py").is_file():
        print(f"error: no cluster_tails package under {SRC}", file=sys.stderr)
        return 2
    # let a termination request unwind through run_pass, which stops its pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workload = workloads.build(args.workload, args.seed)
    run_pass(workload, workload.workers, run=False)  # warm-up: imports and file cache
    checked: list[PassResult] = []
    timed: list[PassResult] = []
    traced: list[PassResult] = []
    pooled: list[PassResult] = []
    untraced: list[PassResult] = []

    if not args.trace and workload.workers > 1:
        checked.append(run_pass(workload, 1))  # worker-invariance reference, not timed
    start = time.perf_counter()
    last = 0.0
    while not (timed or traced) or time.perf_counter() - start + last <= args.seconds:
        cycle_start = time.perf_counter()
        if args.trace:
            cycle = [run_pass(workload, 1), run_pass(workload, 1, trace=True)]
            untraced.append(cycle[0])
            traced.append(cycle[1])
            if workload.workers > 1:
                cycle.append(run_pass(workload, workload.workers, trace=True))
                pooled.append(cycle[-1])
        else:
            cycle = [run_pass(workload, workload.workers)]
            timed.append(cycle[0])
        checked.extend(cycle)
        last = time.perf_counter() - cycle_start
    _cross_check(checked)

    attempted = sum(len(p.checks) for p in checked)
    failed = sum(not c.ok for p in checked for c in p.checks)
    if args.trace:
        samples = per_layer(traced, pooled, untraced)
        units = {n: _unit(n) for n in samples}
    else:
        samples = end_to_end(timed, attempted, failed)
        units = END_TO_END
    metrics = {}
    detail_metrics = {}
    missing = [n for n, v in samples.items() if not v]
    for name, values in samples.items():
        if not values:
            continue
        detail_metrics[name] = {**_stats(values), "unit": units[name]}
        metrics[name] = {"value": detail_metrics[name]["median"], "unit": units[name]}
    correct = failed == 0 and not missing

    first = next((p for p in checked if p.completed), None)
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": workload.workers,
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "versions": first.report["versions"] if first else None,
        "passes": len(checked),
    }
    experiments = {}
    for p in checked:
        for c in p.checks:
            entry = experiments.setdefault(c.label, {"sha256": c.sha256, "problems": []})
            entry["problems"] += [pr for pr in c.problems if pr not in entry["problems"]]
    detail = {"header": header, "experiments": experiments, "metrics": detail_metrics, "missing_metrics": missing}
    if args.trace:
        last_traced = next((p for p in reversed(traced) if p.completed), None)
        if last_traced is not None:
            detail["missing_hooks"] = last_traced.report["missing_hooks"]
            detail["measure_errors"] = last_traced.report["measure_errors"]
            OUT.mkdir(exist_ok=True)
            (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
                json.dumps(last_traced.report["spans"])
            )
    for name, d in detail_metrics.items():
        print(f"{name:48s} {d['median']:.6g} {d['unit']}  (q1 {d['q1']:.6g}, q3 {d['q3']:.6g}, n={d['n']})",
              file=sys.stderr)
    for label, e in experiments.items():
        for problem in e["problems"]:
            print(f"FAILED {label}: {problem}", file=sys.stderr)
    try:
        TMP.rmdir()
    except OSError:
        pass
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    leaf = name.rsplit(".", 1)[-1]
    if leaf.startswith("ns_per_"):
        return "ns"
    if leaf.endswith("_s") or leaf == "s":
        return "s"
    if leaf == "util" or leaf == "width_max":
        return "1"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
