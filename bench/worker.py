"""One benchmark process: set up a workload, time its ops, check them, report.

Started by ``run.py`` as a fresh interpreter, with ``src`` on ``PYTHONPATH``::

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE SETUP_ONLY

It prints ``READY`` once its inputs are made and one untimed warm-up op is
done, so the parent can time set-up from outside.  With SETUP_ONLY=1 it
stops there; otherwise it runs the timed loop (TRACE=0) or the traced passes
(TRACE=1) and prints one JSON line with the results.
"""
from __future__ import annotations

import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import checks
from workloads import MIN_OPS, MIN_ROUNDS, WORKLOADS, run_rounds, warm_up

ROOT = Path(__file__).resolve().parent.parent


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(stats, peak_rss_mb: float) -> dict:
    walls_ms = [w * 1e3 for w in stats.walls]
    return {
        "ops_per_s": _metric(len(walls_ms) / (sum(walls_ms) / 1e3), "op/s"),
        "op_ms_p50": _metric(statistics.median(walls_ms), "ms"),
        "op_ms_p90": _metric(statistics.quantiles(walls_ms, n=10)[-1], "ms"),
        "cpu_ms_p50": _metric(statistics.median(stats.cpus) * 1e3, "ms"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def timed_run(name: str, seed: int, seconds: float, workdir: str, setup_only: bool):
    workload = WORKLOADS[name](seed, workdir)
    warm_up(workload)
    print("READY", flush=True)
    if setup_only:
        return None
    stats = run_rounds(workload, seconds)
    return [(workload, stats)], end_to_end(stats, workload.peak_rss_mb())


def traced_run(name: str, seed: int, seconds: float, workdir: str):
    from tracing import LAYER_PASSES, Tracer

    print("READY", flush=True)
    tracer = Tracer()
    passes, metrics = [], {}
    for layer_workload in [name] + [w for w in LAYER_PASSES if w != name]:
        if layer_workload == name:
            limits = {"seconds": seconds, "min_ops": MIN_OPS, "min_rounds": MIN_ROUNDS}
        else:
            limits = {"seconds": 0.0, "min_ops": 0, "min_rounds": 1}
        workload, stats, layer_metrics = LAYER_PASSES[layer_workload](
            tracer, seed, workdir, **limits)
        if layer_workload == name:
            print(f"traced {name}: {len(stats.walls) / sum(stats.walls):.6g} op/s",
                  file=sys.stderr)
        passes.append((workload, stats))
        metrics.update(layer_metrics)
    return passes, metrics


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, setup_only = argv
    if not (ROOT / "src" / "qrepeater" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT)
    try:
        if trace == "1":
            outcome = traced_run(name, int(seed), float(seconds), workdir)
        else:
            outcome = timed_run(name, int(seed), float(seconds), workdir, setup_only == "1")
        if outcome is None:
            return 0
        passes, metrics = outcome
        correct = True
        for workload, stats in passes:
            try:
                workload.finish()
            except checks.CheckError as exc:
                print(f"wrong output: {exc}", file=sys.stderr)
                correct = False
            correct = correct and stats.wrong == 0
        print(json.dumps({
            "correct": correct,
            "attempted": sum(stats.attempted for _, stats in passes),
            "failed": sum(stats.failed for _, stats in passes),
            "metrics": metrics,
        }), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
