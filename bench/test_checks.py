"""Self-tests of the benchmark's checkers.

Each checker must accept the program's real output and reject a wrong one,
so that no check can pass vacuously.  Run from the root of the repository::

    python3 -m pytest bench/test_checks.py
"""
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from workloads import CliInProcess, DesignSweep, OracleVerify  # noqa: E402


def cli(*argv):
    from qrepeater.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def shift_cell(tsv: str, row: int, col: int, delta: float) -> str:
    """The table with one value moved by ``delta`` (row 0 is the header)."""
    lines = tsv.rstrip("\n").split("\n")
    cells = lines[row].split("\t")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row] = "\t".join(cells)
    return "\n".join(lines) + "\n"


NOISE = ("--p1", "0.99", "--p2", "0.97", "--eta", "0.995")


def test_connect_curve_rejects_closed_form_moved_by_1e9():
    code, out, _ = cli("connect-curve", "--L", "3", *NOISE)
    checks.check_exit(code, 0, "connect-curve")
    checks.check_connect_curve(out, 3, 0.99, 0.97, 0.995)
    with pytest.raises(checks.CheckError, match="connect-curve"):
        checks.check_connect_curve(shift_cell(out, 400, 1, 1e-9), 3, 0.99, 0.97, 0.995)


def test_noiseless_purify_curve_rejects_value_moved_by_1e9():
    _, out, _ = cli("purify-curve", "--protocol", "bennett")
    checks.check_purify_noiseless(out)
    for col in (1, 2):
        with pytest.raises(checks.CheckError):
            checks.check_purify_noiseless(shift_cell(out, 250, col, 1e-9))


def test_noiseless_fixed_points_reject_value_moved_by_1e9():
    _, out, _ = cli("fixed-points", "--protocol", "bennett")
    f_min, f_max = checks.parse_fixed_points(out, "tsv")
    checks.check_fixed_points(f_min, f_max, noiseless=True)
    with pytest.raises(checks.CheckError):
        checks.check_fixed_points(f_min + 1e-9, f_max, noiseless=True)


def test_oracle_comparison_rejects_closed_form_moved_by_1e9():
    from qrepeater import maps, oracle
    from qrepeater.states import BellDiagonalState

    pair_1 = BellDiagonalState((0.7, 0.1, 0.15, 0.05))
    pair_2 = BellDiagonalState((0.8, 0.05, 0.05, 0.1))
    noise = maps.NoiseParams(0.97, 0.98, 0.99)
    p_oracle, kept = oracle.oracle_purify(pair_1, pair_2, noise, "deutsch")
    outcome, closed = maps.purify_with_aux(pair_1, pair_2, noise, "deutsch")
    checks.check_oracle_case("deutsch", kept.coeffs, closed.coeffs, p_oracle, outcome.p_succ)
    moved = (closed.coeffs[0] + 1e-9,) + closed.coeffs[1:]
    with pytest.raises(checks.CheckError, match="coefficient 0"):
        checks.check_oracle_case("deutsch", kept.coeffs, moved, p_oracle, outcome.p_succ)
    with pytest.raises(checks.CheckError, match="p_succ"):
        checks.check_oracle_case("deutsch", kept.coeffs, closed.coeffs, p_oracle,
                                 outcome.p_succ + 1e-9)


REPEATER_B = ("repeater", "--scheme", "B", "--N", "256", "--L", "2", "--p1", "0.995",
              "--p2", "0.995", "--eta", "0.995", "--f-work", "0.96")


def test_report_rejects_levels_that_no_longer_multiply_to_parallel_resources():
    _, out, _ = cli(*REPEATER_B, "--format", "json")
    report = json.loads(out)
    checks.check_report(report)
    report["levels"][2]["avg_pairs"] *= 1.001
    # keep elementary_pairs consistent, so only the parallel_resources check can object
    report["elementary_pairs"] = 1.0
    for level in report["levels"]:
        report["elementary_pairs"] *= report["length"] * level["avg_pairs"]
    with pytest.raises(checks.CheckError, match="parallel_resources"):
        checks.check_report(report)


def test_report_rejects_elementary_pairs_that_do_not_compose():
    _, out, _ = cli(*REPEATER_B, "--format", "json")
    report = json.loads(out)
    report["elementary_pairs"] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckError, match="elementary_pairs"):
        checks.check_report(report)


def test_tsv_report_rejects_levels_that_no_longer_multiply_to_resources():
    _, out, err = cli(*REPEATER_B, "--format", "tsv")
    checks.check_tsv_report(out, err, "B", 0.96)
    with pytest.raises(checks.CheckError, match="parallel_resources"):
        checks.check_tsv_report(shift_cell(out, 3, 6, 1e-3), err, "B", 0.96)


def test_sweep_rejects_copies_that_do_not_fall_with_noise():
    _, out, _ = cli("sweep-m", "--protocol", "deutsch", "--noise-list", "0.9975,0.99",
                    "--grid", "0.90:0.97:0.01")
    checks.check_sweep(out, 0.9975, 0.99, min_common=3)
    with pytest.raises(checks.CheckError, match="not below"):
        checks.check_sweep(out, 0.99, 0.9975, min_common=3)


@pytest.mark.parametrize("seed", [1, 2])
def test_cli_mix_accepts_real_output_and_rejects_wrong_exit_codes(seed, tmp_path):
    session = CliInProcess(seed, str(tmp_path))
    for call in session.round():
        _, _, (code, out, err) = session.run(call)
        session.check(call, (code, out, err))
        with pytest.raises(checks.OpFailed, match="exit code"):
            session.check(call, (3 - code, out, err))
    session.finish()


def test_cli_mix_rejects_output_that_changes_between_identical_calls(tmp_path):
    session = CliInProcess(1, str(tmp_path))
    call = next(c for c in session.calls if c.name == "fixed-points-noiseless")
    _, _, (code, out, err) = session.run(call)
    session.check(call, (code, out, err))
    with pytest.raises(checks.CheckError, match="differs"):
        session.check(call, (code, out, err + "\n"))


def test_design_and_oracle_ops_pass_their_checks(tmp_path):
    sweep = DesignSweep(1, str(tmp_path))
    (designs,) = sweep.round()
    _, _, results = sweep.run(designs)
    sweep.check(designs, results)
    sweep.finish()
    verify = OracleVerify(1, str(tmp_path))
    index = verify.round()[0]
    _, _, results = verify.run(index)
    verify.check(index, results)
