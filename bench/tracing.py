"""The traced run: spans around the calls into each layer, and the per-layer metrics.

Spans are recorded from the benchmark's own files.  Calls the benchmark
makes into a layer are wrapped at the call site (``probe.span``).  Calls one
layer makes into another are wrapped where the calling module looks the
name up: ``engine`` binds ``connect_L``, ``connect_chain``, ``_purify_until``
and ``purify_with_aux`` from ``maps`` under its own names, and every module
constructs ``BellDiagonalState`` through the one class object.  A name that
a later version of the program no longer has is skipped, and its count then
reads lower.

Each layer's metrics come from the ops of the workload that exercises it:
``states``, ``maps`` and ``engine`` from ``design_sweep``, ``oracle`` from
``oracle_verify``, ``cli`` from ``cli_session``.  The traced workload's own
ops run for the run's seconds; the other layers get one round each.
"""
from __future__ import annotations

import contextlib
import functools
import statistics
import subprocess
import sys
import time
from array import array
from collections import defaultdict

from workloads import (
    CliInProcess,
    DesignSweep,
    OracleVerify,
    run_rounds,
    warm_up,
)

#: Fresh interpreters started for each of the two import measurements.
IMPORT_PROBES = 5

_IMPORT_CODE = (
    "import sys, time\n"
    "n = len(sys.modules)\n"
    "t = time.perf_counter()\n"
    "import qrepeater.cli\n"
    "print(time.perf_counter() - t, len(sys.modules) - n)\n"
)


class Tracer:
    """Spans kept in memory: durations per name, and self time (duration minus children)."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self._open: list[list[int]] = []  # child time so far of each open span
        self.durations: dict[str, array] = defaultdict(lambda: array("q"))
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def _close(self, name: str, start: int, child: list[int]) -> None:
        elapsed = time.perf_counter_ns() - start
        self._open.pop()
        self.durations[name].append(elapsed)
        self.self_ns[name] += elapsed - child[0]
        if self._open:
            self._open[-1][0] += elapsed

    @contextlib.contextmanager
    def span(self, name: str):
        child = [0]
        self._open.append(child)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(name, start, child)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = [0]
            self._open.append(child)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, start, child)
        return traced

    def counted(self, name: str, fn):
        def counting(*args):
            self.counts[name] += 1
            return fn(*args)
        return counting

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap each ``(owner, attribute, span name)`` while the block runs."""
        saved = []
        try:
            for owner, attr, name in targets:
                if attr in vars(owner):
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return len(self.durations[name])

    def p50_ns(self, name: str) -> float:
        values = self.durations[name]
        return statistics.median(values) if values else 0.0

    def total_ns(self, *names: str) -> int:
        return sum(sum(self.durations[name]) for name in names)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def trace_design(tracer: Tracer, seed: int, workdir: str, **limits):
    from qrepeater import engine, states

    sweep = DesignSweep(seed, workdir, probe=tracer)
    warm_up(sweep)
    tracer.reset()
    targets = [
        (engine, "connect_L", "maps.connect"),
        (engine, "connect_chain", "maps.connect"),
        (engine, "_purify_until", "maps.purify"),
        (engine, "purify_with_aux", "maps.purify"),
        (states.BellDiagonalState, "__init__", "states.bell_diagonal"),
    ]
    with tracer.patched(targets):
        stats = run_rounds(sweep, **limits)
    ops = len(stats.walls)
    # every op runs each design once, so sums over the designs are per-op values
    designs = sweep.first.values()
    steps = sum(level.steps for r in designs for report in r.reports for level in report.levels)
    feasible = sum(len(r.optimum.curve) for r in designs)
    attempted = sum(len(r.optimum.curve) + len(r.optimum.infeasible) for r in designs)
    engine_self = sum(tracer.self_ns[name] for name in
                      ("engine.optimize", "engine.simulate", "engine.simulate_deep"))
    metrics = {
        "states.bell_diagonal.calls": _metric(tracer.calls("states.bell_diagonal") / ops, "count"),
        "states.bell_diagonal.us_p50": _metric(tracer.p50_ns("states.bell_diagonal") / 1e3, "us"),
        "maps.connect.calls": _metric(tracer.calls("maps.connect") / ops, "count"),
        "maps.connect.us_p50": _metric(tracer.p50_ns("maps.connect") / 1e3, "us"),
        "maps.purify.calls": _metric(tracer.calls("maps.purify") / ops, "count"),
        "maps.purify.us_p50": _metric(tracer.p50_ns("maps.purify") / 1e3, "us"),
        "maps.purify.steps": _metric(steps, "count"),
        "maps.fixed_points.ms_p50": _metric(tracer.p50_ns("maps.fixed_points") / 1e6, "ms"),
        "maps.fixed_points.map_evals": _metric(
            tracer.counts["maps.fixed_points.map_evals"] / tracer.calls("maps.fixed_points"),
            "count"),
        "engine.simulate.us_p50": _metric(tracer.p50_ns("engine.simulate") / 1e3, "us"),
        "engine.simulate_deep.us_p50": _metric(tracer.p50_ns("engine.simulate_deep") / 1e3, "us"),
        "engine.optimize.ms_p50": _metric(tracer.p50_ns("engine.optimize") / 1e6, "ms"),
        "engine.self_ms": _metric(engine_self / ops / 1e6, "ms"),
        "engine.optimize.feasible_ratio": _metric(feasible / attempted, "ratio"),
    }
    return sweep, stats, metrics


def trace_oracle(tracer: Tracer, seed: int, workdir: str, **limits):
    verify = OracleVerify(seed, workdir, probe=tracer)
    warm_up(verify)
    tracer.reset()
    stats = run_rounds(verify, **limits)
    oracle_ns = tracer.total_ns("oracle.connect", "oracle.purify")
    metrics = {
        "oracle.connect.us_p50": _metric(tracer.p50_ns("oracle.connect") / 1e3, "us"),
        "oracle.purify.us_p50": _metric(tracer.p50_ns("oracle.purify") / 1e3, "us"),
        "oracle.share": _metric(oracle_ns / (sum(stats.walls) * 1e9), "ratio"),
    }
    return verify, stats, metrics


def _import_probe() -> tuple[float, int]:
    """Seconds to import ``qrepeater.cli`` in a fresh interpreter, and modules it adds."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_CODE], capture_output=True,
                         text=True, check=True).stdout.split()
    return float(out[0]), int(out[1])


def _numpy_import_us() -> float:
    """numpy's cumulative import time within ``import qrepeater.cli``, from -X importtime."""
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qrepeater.cli"],
                         capture_output=True, text=True, check=True).stderr
    for line in err.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "numpy":
            return float(fields[1])
    return 0.0


def trace_cli(tracer: Tracer, seed: int, workdir: str, **limits):
    imports = [_import_probe() for _ in range(IMPORT_PROBES)]
    numpy_us = [_numpy_import_us() for _ in range(IMPORT_PROBES)]
    session = CliInProcess(seed, workdir, probe=tracer)
    warm_up(session)
    tracer.reset()
    stats = run_rounds(session, **limits)
    metrics = {
        "cli.import_ms": _metric(statistics.median(s for s, _ in imports) * 1e3, "ms"),
        "cli.import_numpy_ms": _metric(statistics.median(numpy_us) / 1e3, "ms"),
        "cli.modules_loaded": _metric(statistics.median(n for _, n in imports), "count"),
        "cli.main_ms_p50": _metric(tracer.p50_ns("cli.main") / 1e6, "ms"),
    }
    return session, stats, metrics


#: Which traced pass measures the layers that each workload exercises.
LAYER_PASSES = {
    "design_sweep": trace_design,
    "oracle_verify": trace_oracle,
    "cli_session": trace_cli,
}
