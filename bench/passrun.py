"""One benchmark pass, run in a fresh interpreter by ``run.py``.

Usage: ``python passrun.py SPEC.json`` from the pass's empty work directory.

The pass imports the package from the ``src`` directory named in the spec,
validates every config (this is the set-up), then runs the experiments back
to back through ``cli.run`` and writes a JSON report next to the spec:
wall and CPU seconds of the experiments, peak RSS, the moment set-up ended,
and, when tracing, the per-layer metrics and raw spans.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
import traceback


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import numpy
    import scipy
    from cluster_tails import cli

    for exp in spec["experiments"]:
        cli.validate(exp["config_path"])
    ready = time.perf_counter()

    tracer = None
    missing_hooks: list[str] = []
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        missing_hooks = tracing.install(tracer)
        root = tracer.open(tracing.ROOT)

    cpu0 = _cpu()
    t0 = time.perf_counter()
    errors = []
    for exp in spec["experiments"] if spec["run"] else []:
        try:
            cli.run(exp["config_path"], workers=spec["workers"])
            errors.append(None)
        except Exception:  # a failed experiment is counted, not fatal to the pass
            errors.append(traceback.format_exc(limit=4))
    wall = time.perf_counter() - t0
    cpu = _cpu() - cpu0
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )

    report = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024.0,
        "errors": errors,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        tracer.close(root)
        report["layers"] = tracing.layer_metrics(tracer.spans, tracer.counters, spec["horizons"])
        report["missing_hooks"] = missing_hooks
        report["measure_errors"] = tracer.counters.get("trace.measure_errors", 0)
        report["spans"] = [s.to_json() for s in tracer.spans]
    with open(spec["report_path"], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
