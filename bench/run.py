"""Benchmark of the qrepeater program: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 bench/run.py --workload design_sweep --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run.  The last line of standard output
is ``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See ``bench/README.md`` for the workloads and metrics.

This process imports nothing of the program.  Each measurement runs in a
fresh ``worker.py`` interpreter with ``src`` on ``PYTHONPATH``, one process
at a time.  ``setup_s`` is the median over several fresh workers of the time
from starting the interpreter to the end of its warm-up op.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_session", "design_sweep", "oracle_verify")
#: Fresh starts that set-up time is the median of (the measured run is the last).
SETUP_STARTS = 7
#: A run that has not ended by then is stopped and reported as failed.
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def worker_env() -> dict:
    """The caller's environment, with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_worker(args, setup_only: bool, deadline: float) -> tuple[float, str]:
    """Start one worker; return its set-up seconds and its last line of output."""
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           repr(args.seconds), str(args.trace), "1" if setup_only else "0"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
                            env=worker_env(), cwd=ROOT, start_new_session=True)
    # the worker and any CLI child it runs share a process group
    timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                            os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise BenchError(f"worker {args.workload} exited with code {code} "
                         f"(set-up {'done' if first.strip() == 'READY' else 'not done'})")
    lines = rest.strip().splitlines()
    return setup, lines[-1] if lines else ""


def main(argv) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "qrepeater" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'qrepeater'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            _, line = run_worker(args, setup_only=False, deadline=deadline)
            result = json.loads(line)
        else:
            setups = [run_worker(args, setup_only=True, deadline=deadline)[0]
                      for _ in range(SETUP_STARTS - 1)]
            setup, line = run_worker(args, setup_only=False, deadline=deadline)
            result = json.loads(line)
            result["metrics"]["setup_s"] = {"value": statistics.median(setups + [setup]),
                                            "unit": "s"}
    except (BenchError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
