"""The benchmark's three workloads: inputs made from a seed, the op, and its checks.

Each workload class offers the same methods to the loop in ``worker.py``:
``round()`` lists the ops of one round (every round attempts the same ops,
in a seeded order), ``run(op)`` performs one op and returns ``(wall_s,
cpu_s, result)``, ``check(op, result)`` raises :class:`checks.CheckError`
on a wrong output, and ``finish()`` makes the checks that span several ops.

The program is imported inside the classes that need it, so that a process
which only generates inputs or drives CLI children never imports it.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from typing import Callable

import checks


class NoProbe:
    """Hooks an op calls around each call into a layer; they do nothing untraced."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def counted(self, name: str, fn: Callable) -> Callable:
        return fn


NO_PROBE = NoProbe()


# ---------------------------------------------------------------- cli_session

@dataclass
class CliCall:
    """One CLI invocation: arguments after ``python -m qrepeater.cli``, expected exit, check."""

    name: str
    argv: list[str]
    expect: int
    check: Callable[[str, str], None]  # (stdout, stderr)


def _pick(rng: random.Random, values):
    return values[rng.randrange(len(values))]


def _noise_flags(p1: float, p2: float, eta: float) -> list[str]:
    return ["--p1", repr(p1), "--p2", repr(p2), "--eta", repr(eta)]


def _write_config(workdir: str, name: str, config: dict) -> str:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config, handle)
    return path


def _json_report_check(text: str, _stderr: str) -> None:
    checks.check_report(json.loads(text))


def cli_calls(rng: random.Random, workdir: str) -> list[CliCall]:
    """The fixed mix of analytic subcommands, with parameters drawn from ``rng``.

    Every parameter comes from a small set on which each call is known to
    succeed, so no seed makes an op fail.
    """
    calls = []

    length = _pick(rng, (2, 3, 4))
    p1, p2, eta = (_pick(rng, (0.97, 0.98, 0.99, 0.995, 0.999)) for _ in range(3))
    calls.append(CliCall(
        "connect-curve",
        ["connect-curve", "--L", str(length)] + _noise_flags(p1, p2, eta), 0,
        lambda out, _err, a=(length, p1, p2, eta): checks.check_connect_curve(out, *a)))

    calls.append(CliCall(
        "purify-curve-noiseless", ["purify-curve", "--protocol", "bennett"], 0,
        lambda out, _err: checks.check_purify_noiseless(out)))

    p2, eta = _pick(rng, (0.97, 0.98, 0.99, 0.995)), _pick(rng, (0.97, 0.98, 0.99, 0.995, 1.0))
    calls.append(CliCall(
        "purify-curve-noisy",
        ["purify-curve", "--protocol", "deutsch", "--p2", repr(p2), "--eta", repr(eta)], 0,
        lambda out, _err: checks.check_purify_noisy(out)))

    calls.append(CliCall(
        "fixed-points-noiseless", ["fixed-points", "--protocol", "bennett"], 0,
        lambda out, _err: checks.check_fixed_points(
            *checks.parse_fixed_points(out, "tsv"), noiseless=True)))

    for protocol, fmt in (("deutsch", "tsv"), ("bennett", "json")):
        p2, eta = _pick(rng, (0.98, 0.99, 0.995)), _pick(rng, (0.99, 0.995, 1.0))
        calls.append(CliCall(
            f"fixed-points-{protocol}",
            ["fixed-points", "--protocol", protocol, "--p2", repr(p2), "--eta", repr(eta),
             "--format", fmt], 0,
            lambda out, _err, fmt=fmt: checks.check_fixed_points(
                *checks.parse_fixed_points(out, fmt), noiseless=False)))

    low, high = _pick(rng, ((0.9975, 0.995), (0.995, 0.99), (0.9975, 0.99)))
    order = [low, high] if rng.random() < 0.5 else [high, low]
    calls.append(CliCall(
        "sweep-m",
        ["sweep-m", "--protocol", "deutsch", "--noise-list", ",".join(map(repr, order)),
         "--grid", "0.90:0.97:0.01"], 0,
        lambda out, _err, a=(low, high): checks.check_sweep(out, *a, min_common=3)))

    # repeater: schemes A, B and C, each once by flags and once by --config,
    # in both output formats
    for scheme, source, fmt in (("A", "flags", "tsv"), ("A", "config", "json"),
                                ("B", "flags", "tsv"), ("B", "config", "json"),
                                ("C", "flags", "json"), ("C", "config", "tsv")):
        q = _pick(rng, (0.995, 0.996, 0.997))
        if scheme == "C":
            n_segments, length = _pick(rng, (256, 1024)), 2
            f_work = _pick(rng, (0.95, 0.96))
            f_init = round(f_work + 0.01, 10)
        else:
            n_segments, length = _pick(rng, ((64, 2), (256, 2), (1024, 2), (81, 3), (243, 3)))
            f_work = _pick(rng, (0.94, 0.95, 0.96))
            f_init = f_work
        name = f"repeater-{scheme}-{source}-{fmt}"
        fields = {"scheme": scheme, "N": n_segments, "L": length, "p1": q, "p2": q, "eta": q,
                  "f_init": f_init, "f_work": f_work}
        if source == "config":
            argv = ["repeater", "--config", _write_config(workdir, name, fields)]
        else:
            argv = ["repeater"] + [
                item for key, value in fields.items()
                for item in (f"--{key.replace('_', '-')}", str(value))]
        argv += ["--format", fmt]
        if fmt == "json":
            check = _json_report_check
        else:
            check = (lambda out, err, s=scheme, f=f_work:
                     checks.check_tsv_report(out, err, s, f))
        calls.append(CliCall(name, argv, 0, check))

    # below its pumping threshold: pairs created at the working fidelity
    # itself pump to ~0.9595 < 0.96, and the program must say so with exit 3
    calls.append(CliCall(
        "repeater-C-below-threshold",
        ["repeater", "--scheme", "C", "--N", "1024", "--L", "2"]
        + _noise_flags(0.995, 0.995, 0.995) + ["--f-init", "0.96", "--f-work", "0.96"], 3,
        lambda _out, err: checks.check_infeasible(err)))
    return calls


class CliSession:
    """An op is one fresh ``python -m qrepeater.cli`` process, timed from outside."""

    def __init__(self, seed: int, workdir: str, probe=NO_PROBE):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.calls = cli_calls(self.rng, workdir)
        self.first_output: dict[str, tuple[str, str]] = {}
        self.rss_kb: list[int] = []

    def round(self) -> list[CliCall]:
        order = list(self.calls)
        self.rng.shuffle(order)
        return order

    def run(self, call: CliCall):
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "qrepeater.cli", *call.argv],
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_kb.append(usage.ru_maxrss)
        with open(out_path, encoding="utf-8") as out, open(err_path, encoding="utf-8") as err:
            result = (proc.returncode, out.read(), err.read())
        return wall, usage.ru_utime + usage.ru_stime, result

    def check(self, call: CliCall, result) -> None:
        code, out, err = result
        checks.check_exit(code, call.expect, call.name)
        call.check(out, err)
        first = self.first_output.setdefault(call.name, (out, err))
        if first != (out, err):
            raise checks.CheckError(f"{call.name}: output differs from an identical earlier call")

    def finish(self) -> None:
        if len(self.first_output) != len(self.calls):
            raise checks.CheckError("not every call of the mix was checked")

    def peak_rss_mb(self) -> float:
        return statistics.median(self.rss_kb) / 1024.0


class CliInProcess(CliSession):
    """The same mix through ``qrepeater.cli.main(argv)`` in this process, output captured."""

    def __init__(self, seed: int, workdir: str, probe=NO_PROBE):
        super().__init__(seed, workdir, probe)
        from qrepeater import cli

        self.cli = cli
        self.probe = probe

    def run(self, call: CliCall):
        out, err = io.StringIO(), io.StringIO()
        start, cpu = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with self.probe.span("cli.main"):
                try:
                    code = self.cli.main(list(call.argv))
                except SystemExit as exc:
                    code = exc.code
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        return wall, cpu, (code, out.getvalue(), err.getvalue())


# --------------------------------------------------------------- design_sweep

#: The acceptance grid of working fidelities: 0.86 to 0.995 in steps of 0.0025.
GRID = tuple(0.86 + 0.0025 * i for i in range(55))
#: (protocol, uniform reliability, schemes run at the optimum).  The
#: twirl-based protocol has no feasible point at 3 % errors, and scheme C
#: cannot pump to the 3 % optimum from any elementary fidelity.
DESIGNS = (
    ("bennett", 0.995, ("A",)),
    ("bennett", 0.99, ("A",)),
    ("deutsch", 0.995, ("B", "C")),
    ("deutsch", 0.99, ("B", "C")),
    ("deutsch", 0.97, ("B",)),
)
#: Scheme C's elementary pairs lie this far above the working fidelity; the
#: 1 % optimum needs at least 0.015.
C_MARGIN = 0.02
#: (nesting levels, span name): N = 2^10 and N = 2^60 segments.
DEPTHS = ((10, "engine.simulate"), (60, "engine.simulate_deep"))


@dataclass
class DesignResult:
    optimum: object
    reports: list
    points: object


class DesignSweep:
    """An op is the five designs, each: optimise, simulate at the optimum, find the fixed points.

    One design would be a unit of work too, but the five differ in cost
    (~33 to ~60 ms here) and two of them overlap, so the median of single
    designs fell in the gap between cost clusters and moved with every small
    shift; the five together have one cost.
    """

    def __init__(self, seed: int, workdir: str, probe=NO_PROBE):
        from qrepeater import engine, maps

        self.engine, self.maps, self.probe = engine, maps, probe
        self.rng = random.Random(seed)
        self.first: dict[tuple, DesignResult] = {}

    def round(self) -> list[tuple]:
        order = list(DESIGNS)
        self.rng.shuffle(order)
        return [tuple(order)]

    def run(self, designs: tuple):
        start, cpu = time.perf_counter(), time.process_time()
        results = [self.design(design) for design in designs]
        return time.perf_counter() - start, time.process_time() - cpu, results

    def design(self, design: tuple) -> DesignResult:
        engine, maps, probe = self.engine, self.maps, self.probe
        protocol, q, schemes = design
        noise = maps.NoiseParams.uniform(q)
        with probe.span("engine.optimize"):
            optimum = engine.optimize_working_fidelity(2, noise, protocol, GRID, n_levels=10)
        reports = []
        for scheme in schemes:
            f_init = optimum.f_opt + C_MARGIN if scheme == "C" else optimum.f_opt
            for levels, span in DEPTHS:
                config = engine.ProtocolConfig(2 ** levels, 2, scheme, f_init,
                                               optimum.f_opt, noise)
                with probe.span(span):
                    reports.append(engine.simulate(config))
        fmap = maps.bennett_map(noise) if protocol == "bennett" else maps.deutsch_werner_map(noise)
        fmap = probe.counted("maps.fixed_points.map_evals", fmap)
        with probe.span("maps.fixed_points"):
            points = maps.fixed_points(fmap)
        return DesignResult(optimum, reports, points)

    def check(self, designs: tuple, results: list) -> None:
        for design, result in zip(designs, results):
            for report in result.reports:
                checks.check_report(asdict(report))
            checks.check_fixed_points(result.points.f_min, result.points.f_max, noiseless=False)
            first = self.first.setdefault(design, result)
            if first != result:
                raise checks.CheckError(
                    f"design {design}: result differs from an identical earlier op")

    def finish(self) -> None:
        """Acceptance bands of the paper's design numbers, and fixed points under the oracle."""
        if len(self.first) != len(DESIGNS):
            raise checks.CheckError("not every design was checked")
        m_min = {(p, q): r.optimum.m_min for (p, q, _), r in self.first.items()}
        f_opt = {(p, q): r.optimum.f_opt for (p, q, _), r in self.first.items()}
        twirl, rotation = m_min[("bennett", 0.995)], m_min[("deutsch", 0.995)]
        bands = (
            ("twirl-based minimum at 0.5 %", twirl, 10.0, 20.0),
            ("twirl-based optimum at 0.5 %", f_opt[("bennett", 0.995)], 0.92, 0.96),
            ("twirl/rotation ratio at 0.5 %", twirl / rotation, 5.0, 20.0),
            ("rotation-based minimum at 1 %", m_min[("deutsch", 0.99)], 3.0, 8.0),
        )
        for what, value, lo, hi in bands:
            if not lo <= value <= hi:
                raise checks.CheckError(f"{what}: {value!r} outside [{lo}, {hi}]")
        if not m_min[("deutsch", 0.97)] > m_min[("deutsch", 0.99)]:
            raise checks.CheckError("rotation-based minimum at 3 % is not above the one at 1 %")
        from qrepeater import oracle
        from qrepeater.states import WernerState

        for (protocol, q, _), result in self.first.items():
            noise = self.maps.NoiseParams.uniform(q)
            for f in (result.points.f_min, result.points.f_max):
                werner = WernerState(f).to_bell_diagonal()
                _, out = oracle.oracle_purify(werner, werner, noise, protocol)
                if not abs(out.fidelity - f) <= 1e-9:
                    raise checks.CheckError(
                        f"{protocol} at q={q}: fixed point {f!r} maps to {out.fidelity!r} "
                        f"under the oracle")

    def peak_rss_mb(self) -> float:
        return _self_peak_rss_mb()


# -------------------------------------------------------------- oracle_verify

#: Random cases per op and ops per round.
BATCH = 16
BATCHES = 8


def _bell_vector(rng: random.Random) -> tuple[float, ...]:
    weights = [rng.random() for _ in range(4)]
    total = math.fsum(weights)
    return tuple(w / total for w in weights)


def _reliability(rng: random.Random, low: float) -> float:
    """Exactly 1 in a quarter of the draws, so the perfect-gate branches run too."""
    return 1.0 if rng.random() < 0.25 else rng.uniform(low, 1.0)


def oracle_cases(rng: random.Random) -> list[list[tuple]]:
    """BATCHES batches of BATCH (pair, pair, (p1, p2, eta)) cases, as plain tuples."""
    return [[(_bell_vector(rng), _bell_vector(rng),
              (_reliability(rng, 0.9), _reliability(rng, 0.9), _reliability(rng, 0.9)))
             for _ in range(BATCH)] for _ in range(BATCHES)]


class OracleVerify:
    """An op is a batch of random cases run through the oracle and the closed forms."""

    PROTOCOLS = ("bennett", "deutsch")

    def __init__(self, seed: int, workdir: str, probe=NO_PROBE):
        from qrepeater import maps, oracle
        from qrepeater.states import BellDiagonalState

        self.maps, self.oracle, self.probe = maps, oracle, probe
        self.rng = random.Random(seed)
        self.batches = [
            tuple((BellDiagonalState(a), BellDiagonalState(b), maps.NoiseParams(*noise))
                  for a, b, noise in batch)
            for batch in oracle_cases(self.rng)]

    def round(self) -> list[int]:
        order = list(range(len(self.batches)))
        self.rng.shuffle(order)
        return order

    def run(self, index: int):
        start, cpu = time.perf_counter(), time.process_time()
        result = self.batch(self.batches[index])
        return time.perf_counter() - start, time.process_time() - cpu, result

    def batch(self, cases) -> list[tuple]:
        maps, oracle, probe = self.maps, self.oracle, self.probe
        results = []
        for pair_1, pair_2, noise in cases:
            with probe.span("oracle.connect"):
                joined = oracle.oracle_connect(pair_1, pair_2, noise, twirl_output=False)
            closed = maps.connect_states(pair_1, pair_2, noise)
            results.append(("connect", joined.coeffs, closed.coeffs, None, None))
            for protocol in self.PROTOCOLS:
                with probe.span("oracle.purify"):
                    p_oracle, kept = oracle.oracle_purify(pair_1, pair_2, noise, protocol)
                outcome, closed = maps.purify_with_aux(pair_1, pair_2, noise, protocol)
                results.append((protocol, kept.coeffs, closed.coeffs, p_oracle, outcome.p_succ))
        return results

    def check(self, index: int, results) -> None:
        for name, oracle_coeffs, closed_coeffs, p_oracle, p_closed in results:
            checks.check_oracle_case(f"batch {index} {name}", oracle_coeffs, closed_coeffs,
                                     p_oracle, p_closed)

    def finish(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return _self_peak_rss_mb()


WORKLOADS = {
    "cli_session": CliSession,
    "design_sweep": DesignSweep,
    "oracle_verify": OracleVerify,
}


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------- loop

#: Every run attempts at least this many ops and rounds, so that ten samples
#: lie beyond the p90 and each op is repeated at least once.
MIN_OPS = 100
MIN_ROUNDS = 2


@dataclass
class LoopStats:
    walls: list
    cpus: list
    attempted: int = 0
    failed: int = 0
    wrong: int = 0


def run_rounds(workload, seconds: float, min_ops: int = MIN_OPS,
               min_rounds: int = MIN_ROUNDS) -> LoopStats:
    """Closed loop, one op at a time, in whole rounds until every minimum is met.

    An op that raises or exits with an unexpected code counts as failed; an
    op whose output is wrong counts as wrong.  Both are reported on stderr.
    """
    stats = LoopStats([], [])
    start = time.perf_counter()
    rounds = 0
    while (rounds < min_rounds or len(stats.walls) < min_ops
           or time.perf_counter() - start < seconds):
        for op in workload.round():
            stats.attempted += 1
            try:
                wall, cpu, result = workload.run(op)
            except Exception:  # the program raised: count it and keep measuring
                stats.failed += 1
                traceback.print_exc()
                continue
            stats.walls.append(wall)
            stats.cpus.append(cpu)
            try:
                workload.check(op, result)
            except checks.OpFailed as exc:
                stats.failed += 1
                print(f"failed: {exc}", file=sys.stderr)
            except checks.CheckError as exc:
                stats.wrong += 1
                print(f"wrong output: {exc}", file=sys.stderr)
        rounds += 1
    return stats


def warm_up(workload) -> None:
    """One untimed op, so that imports and first-call costs land in set-up."""
    workload.run(workload.round()[0])
