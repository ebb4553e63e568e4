"""Output checkers for the benchmark workloads.

Every expected value here is computed apart from the program (closed forms
written out again from the paper) or is a property the method must have (a
report's totals compose from its levels).  Nothing is compared against a
stored copy of earlier output.  This module uses the standard library only,
so importing it never pulls in anything the program would import itself.
"""
from __future__ import annotations

import json
import math

#: Closed forms against the program's output and against the oracle.
CLOSED_FORM_TOL = 1e-12
#: Fixed points of the noiseless twirl-based map, (1/2, 1).
FIXED_POINT_TOL = 1e-10
#: Relative tolerance of a report's totals against the product of its levels.
COMPOSE_RTOL = 1e-9


class CheckError(Exception):
    """An operation finished but its output is wrong."""


class OpFailed(CheckError):
    """An operation did not finish as expected (wrong exit code or an exception)."""


def connect_closed_form(f: float, length: int, p1: float, p2: float, eta: float) -> float:
    """Fidelity of a chain of ``length`` equal Werner pairs after noisy fusion."""
    return (0.25 + 0.75 * (p1 * p2 * (4.0 * eta * eta - 1.0) / 3.0) ** (length - 1)
            * ((4.0 * f - 1.0) / 3.0) ** length)


def twirl_purify_noiseless(f: float) -> tuple[float, float]:
    """Output fidelity and success probability of one noiseless twirl-based step."""
    x = (1.0 - f) / 3.0
    norm = f * f + 2.0 * f * x + 5.0 * x * x
    return (f * f + x * x) / norm, norm


def check_exit(code: int, expected: int, what: str) -> None:
    if code != expected:
        raise OpFailed(f"{what}: exit code {code}, expected {expected}")


def _close(got: float, want: float, tol: float, what: str) -> None:
    if not abs(got - want) <= tol:
        raise CheckError(f"{what}: {got!r} differs from {want!r} by more than {tol:g}")


def _rel_close(got: float, want: float, rtol: float, what: str) -> None:
    if not abs(got - want) <= rtol * abs(want):
        raise CheckError(f"{what}: {got!r} differs from {want!r} by more than {rtol:g} relative")


def parse_tsv(text: str, header: list[str]) -> list[list[float]]:
    lines = text.rstrip("\n").split("\n")
    if lines[0].split("\t") != header:
        raise CheckError(f"unexpected header {lines[0]!r}, expected {header}")
    rows = [[float(v) for v in line.split("\t")] for line in lines[1:]]
    if not rows:
        raise CheckError(f"table with header {header} has no rows")
    return rows


def check_connect_curve(text: str, length: int, p1: float, p2: float, eta: float) -> None:
    """Rows equal the closed form and, under noise, lie below the diagonal on (1/4, 1)."""
    noisy = min(p1, p2, eta) < 1.0
    for f, got in parse_tsv(text, ["fidelity_in", "fidelity_connected"]):
        _close(got, connect_closed_form(f, length, p1, p2, eta), CLOSED_FORM_TOL,
               f"connect-curve at F={f!r}")
        if noisy and 0.25 < f < 1.0 and not got < f:
            raise CheckError(f"connect-curve at F={f!r}: {got!r} is not below the diagonal")


def check_purify_noiseless(text: str) -> None:
    """Noiseless twirl-based rows equal (F^2+x^2)/(F^2+2Fx+5x^2), x = (1-F)/3."""
    for f, f_out, p_succ in parse_tsv(text, ["fidelity_in", "fidelity_out", "p_succ"]):
        want_f, want_p = twirl_purify_noiseless(f)
        _close(f_out, want_f, CLOSED_FORM_TOL, f"purify-curve fidelity at F={f!r}")
        _close(p_succ, want_p, CLOSED_FORM_TOL, f"purify-curve p_succ at F={f!r}")


def check_purify_noisy(text: str) -> None:
    for f, f_out, p_succ in parse_tsv(text, ["fidelity_in", "fidelity_out", "p_succ"]):
        if not 0.0 < p_succ <= 1.0:
            raise CheckError(f"purify-curve at F={f!r}: p_succ {p_succ!r} outside (0, 1]")
        if not 0.0 <= f_out <= 1.0:
            raise CheckError(f"purify-curve at F={f!r}: fidelity {f_out!r} outside [0, 1]")


def check_fixed_points(f_min: float, f_max: float, noiseless: bool) -> None:
    """Noiseless: (1/2, 1) within 1e-10.  Noisy: 1/2 < f_min < f_max < 1."""
    if noiseless:
        _close(f_min, 0.5, FIXED_POINT_TOL, "noiseless f_min")
        _close(f_max, 1.0, FIXED_POINT_TOL, "noiseless f_max")
    elif not 0.5 < f_min < f_max < 1.0:
        raise CheckError(f"noisy fixed points ({f_min!r}, {f_max!r}) not ordered in (1/2, 1)")


def parse_fixed_points(text: str, fmt: str) -> tuple[float, float]:
    if fmt == "json":
        (row,) = json.loads(text)
        return row["f_min"], row["f_max"]
    (row,) = parse_tsv(text, ["f_min", "f_max"])
    return row[0], row[1]


def check_sweep(text: str, low_noise: float, high_noise: float, min_common: int) -> None:
    """At every working fidelity both noise levels reach, lower noise needs fewer copies.

    ``low_noise``/``high_noise`` are the reliabilities of the less and the
    more noisy run (so ``low_noise > high_noise``).
    """
    by_noise: dict[float, dict[float, float]] = {}
    for q, f, m in parse_tsv(text, ["noise", "working_fidelity", "avg_pairs_per_level"]):
        if m < 1.0:
            raise CheckError(f"sweep-m: {m!r} copies per level at q={q!r}, F={f!r}")
        by_noise.setdefault(q, {})[f] = m
    low, high = by_noise.get(low_noise, {}), by_noise.get(high_noise, {})
    common = sorted(set(low) & set(high))
    if len(common) < min_common:
        raise CheckError(f"sweep-m: only {len(common)} working fidelities feasible at both "
                         f"noise levels, expected at least {min_common}")
    for f in common:
        if not low[f] < high[f]:
            raise CheckError(f"sweep-m at F={f!r}: {low[f]!r} copies at q={low_noise!r} not "
                             f"below {high[f]!r} at q={high_noise!r}")


def _check_levels(levels: list[dict], f_work: float) -> None:
    for k, level in enumerate(levels, start=1):
        if not level["fidelity_achieved"] >= f_work:
            raise CheckError(f"level {k}: fidelity {level['fidelity_achieved']!r} below "
                             f"f_work {f_work!r}")


def _check_resources(scheme: str, levels: list[dict], resources: float) -> None:
    """A/B: parallel resources are the product of the levels' copies.  C: n_levels + 1."""
    if scheme == "C":
        if resources != len(levels) + 1:
            raise CheckError(f"scheme C: {resources!r} particles per node, "
                             f"expected n_levels + 1 = {len(levels) + 1}")
    else:
        _rel_close(resources, math.prod(level["avg_pairs"] for level in levels),
                   COMPOSE_RTOL, "parallel_resources against prod(avg_pairs)")


def check_report(report: dict) -> None:
    """A repeater report meets its working fidelity and its totals compose from its levels.

    ``report`` holds the keys of the program's JSON report: ``scheme``,
    ``length``, ``n_levels``, ``f_work``, ``levels`` (each with
    ``fidelity_achieved`` and ``avg_pairs``), ``elementary_pairs``,
    ``parallel_resources`` and ``particles_per_node``.
    """
    levels = report["levels"]
    if len(levels) != report["n_levels"]:
        raise CheckError(f"report has {len(levels)} levels, n_levels={report['n_levels']}")
    _check_levels(levels, report["f_work"])
    _rel_close(report["elementary_pairs"],
               math.prod(report["length"] * level["avg_pairs"] for level in levels),
               COMPOSE_RTOL, "elementary_pairs against prod(L * avg_pairs)")
    resources = report["particles_per_node" if report["scheme"] == "C" else "parallel_resources"]
    _check_resources(report["scheme"], levels, resources)


def parse_summary(stderr: str) -> dict[str, str]:
    """The ``key=value`` summary line that ``repeater`` writes to stderr."""
    lines = stderr.strip().split("\n")
    return dict(item.split("=", 1) for item in lines[-1].split())


def check_tsv_report(text: str, stderr: str, scheme: str, f_work: float) -> None:
    """A TSV repeater report: levels from the table, resources from the summary line."""
    header = ["level", "span_segments", "fidelity_in", "fidelity_connected",
              "fidelity_achieved", "steps", "avg_pairs"]
    levels = [{"fidelity_achieved": row[4], "avg_pairs": row[6]}
              for row in parse_tsv(text, header)]
    summary = parse_summary(stderr)
    if summary.get("scheme") != scheme:
        raise CheckError(f"summary line names scheme {summary.get('scheme')!r}, expected {scheme}")
    _check_levels(levels, f_work)
    _check_resources(scheme, levels, float(summary["resources"]))


def check_infeasible(stderr: str) -> None:
    """A run that cannot reach its working fidelity says why on stderr."""
    if not stderr.startswith("infeasible:"):
        raise CheckError(f"infeasible run: stderr {stderr[:80]!r} gives no reason")


def check_bell_vector(coeffs, what: str) -> None:
    """Non-negative Bell coefficients that sum to 1 within 1e-12."""
    if min(coeffs) < 0.0:
        raise CheckError(f"{what}: negative Bell coefficient in {coeffs!r}")
    _close(math.fsum(coeffs), 1.0, CLOSED_FORM_TOL, f"{what}: coefficient sum")


def check_oracle_case(name: str, oracle_coeffs, closed_coeffs,
                      oracle_p: float | None = None, closed_p: float | None = None) -> None:
    """A closed form agrees with the density-matrix oracle to 1e-12."""
    check_bell_vector(oracle_coeffs, f"{name} oracle output")
    for k, (got, want) in enumerate(zip(closed_coeffs, oracle_coeffs)):
        _close(got, want, CLOSED_FORM_TOL, f"{name} coefficient {k} against the oracle")
    if oracle_p is not None:
        if not 0.0 < oracle_p <= 1.0:
            raise CheckError(f"{name}: oracle p_succ {oracle_p!r} outside (0, 1]")
        _close(closed_p, oracle_p, CLOSED_FORM_TOL, f"{name} p_succ against the oracle")
