"""Byte-for-byte CLI outputs on a fixed set of invocations.

Each case in ``CASES`` has a file ``golden/<name>.json`` holding the exit
code, stdout and stderr that ``qrepeater.cli.main`` produced for it.  The
set covers every subcommand, schemes A, B and C, branching factors 2 and 3,
N = 2^60, both output formats, the infeasible and invalid runs and a sweep
that skips a noise value.

Regenerate the files (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""
import contextlib
import io
import json
import pathlib

import pytest

from qrepeater.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

NOISE = ("--p1", "0.995", "--p2", "0.995", "--eta", "0.995")
NOISE_3PC = ("--p1", "0.97", "--p2", "0.97", "--eta", "0.97")
N_2_60 = str(2 ** 60)

CASES = {
    "connect_curve_l3_tsv": ("connect-curve", "--grid", "0.25:1.0:0.05", "--L", "3",
                             "--p2", "0.97"),
    "connect_curve_l2_json": ("connect-curve", "--grid", "0.5:1.0:0.1", "--L", "2",
                              "--p1", "0.99", "--eta", "0.98", "--format", "json"),
    "purify_curve_bennett_tsv": ("purify-curve", "--grid", "0.5:1.0:0.05",
                                 "--p2", "0.995", "--eta", "0.995"),
    "purify_curve_deutsch_json": ("purify-curve", "--protocol", "deutsch",
                                  "--grid", "0.6:1.0:0.1", *NOISE, "--format", "json"),
    "fixed_points_bennett_tsv": ("fixed-points", "--p2", "0.97"),
    "fixed_points_deutsch_json": ("fixed-points", "--protocol", "deutsch", *NOISE,
                                  "--format", "json"),
    "fixed_points_infeasible": ("fixed-points", "--p2", "0.9"),
    "sweep_m_bennett_tsv": ("sweep-m", "--noise-list", "0.995,0.99",
                            "--grid", "0.9:0.96:0.01", "--levels", "6"),
    "sweep_m_deutsch_json": ("sweep-m", "--protocol", "deutsch", "--L", "3",
                             "--noise-list", "0.995", "--grid", "0.9:0.97:0.01",
                             "--levels", "4", "--format", "json"),
    # near scheme A's threshold: at 0.9704 every point stalls or overflows its totals
    "sweep_m_near_threshold_tsv": ("sweep-m", "--protocol", "bennett",
                                   "--noise-list", "0.995,0.9704", "--grid", "0.86:0.9:0.01"),
    "repeater_a_l2_tsv": ("repeater", "--scheme", "A", "--N", "1024", *NOISE,
                          "--f-work", "0.94", "--format", "tsv"),
    "repeater_a_l3_json": ("repeater", "--scheme", "A", "--N", "81", "--L", "3", *NOISE,
                           "--f-work", "0.93"),
    "repeater_a_purifier_ignored": ("repeater", "--scheme", "A", "--N", "16", *NOISE,
                                    "--f-work", "0.94", "--purifier", "bennett",
                                    "--format", "tsv"),
    "repeater_b_l2_json": ("repeater", "--scheme", "B", "--N", "1024", *NOISE,
                           "--f-work", "0.96"),
    "repeater_b_l3_tsv": ("repeater", "--scheme", "B", "--N", "243", "--L", "3", *NOISE,
                          "--f-work", "0.96", "--format", "tsv"),
    "repeater_b_2_60_tsv": ("repeater", "--scheme", "B", "--N", N_2_60, *NOISE,
                            "--f-work", "0.96", "--format", "tsv"),
    "repeater_b_2_60_json": ("repeater", "--scheme", "B", "--N", N_2_60, *NOISE,
                             "--f-work", "0.96"),
    "repeater_b_purifier_ignored": ("repeater", "--scheme", "B", "--N", "16", *NOISE,
                                    "--purifier", "bennett", "--format", "tsv"),
    "repeater_c_l2_json": ("repeater", "--scheme", "C", "--N", "1024", *NOISE,
                           "--f-init", "0.97", "--f-work", "0.96"),
    "repeater_c_2_60_tsv": ("repeater", "--scheme", "C", "--N", N_2_60, *NOISE,
                            "--f-init", "0.97", "--f-work", "0.96", "--format", "tsv"),
    "repeater_c_perfect_tsv": ("repeater", "--scheme", "C", "--N", "8", "--f-init", "1.0",
                               "--f-work", "1.0", "--format", "tsv"),
    "repeater_infeasible_a_unreachable": ("repeater", "--scheme", "A", "--p2", "0.96",
                                          "--f-work", "0.9", "--N", "256"),
    "repeater_infeasible_a_below_threshold": ("repeater", "--scheme", "A", "--N", "16",
                                              "--L", "16", "--p2", "0.96",
                                              "--f-work", "0.85"),
    "repeater_infeasible_a_level_2": ("repeater", "--scheme", "A", "--N", "256",
                                      "--p2", "0.96", "--f-init", "0.99", "--f-work", "0.9"),
    "repeater_infeasible_b_3pc": ("repeater", "--scheme", "B", "--f-work", "0.99",
                                  *NOISE_3PC),
    "repeater_infeasible_c_marginal": ("repeater", "--scheme", "C", *NOISE,
                                       "--f-init", "0.96", "--f-work", "0.96"),
    "repeater_infeasible_c_l3": ("repeater", "--scheme", "C", "--N", "81", "--L", "3",
                                 *NOISE, "--f-init", "0.97", "--f-work", "0.96"),
    "repeater_infeasible_c_bennett": ("repeater", "--scheme", "C", "--N", "16", *NOISE,
                                      "--f-init", "0.97", "--f-work", "0.96",
                                      "--purifier", "bennett"),
    "repeater_invalid_segments": ("repeater", "--scheme", "B", "--N", "12"),
    "oracle_check": ("oracle-check",),
}


def run_case(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_golden_files_match_cases():
    assert {path.stem for path in GOLDEN_DIR.glob("*.json")} == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    assert run_case(CASES[name]) == want


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case_name, case_argv in CASES.items():
        text = json.dumps(run_case(case_argv), indent=2, sort_keys=True) + "\n"
        (GOLDEN_DIR / f"{case_name}.json").write_text(text, encoding="utf-8")
