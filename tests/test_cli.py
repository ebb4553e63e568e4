import json
import math
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import asdict, fields

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

NOISE = ("--p1", "0.995", "--p2", "0.995", "--eta", "0.995")

import qrepeater
from qrepeater import cli
from qrepeater.cli import build_parser, entry, main
from qrepeater.engine import ProtocolConfig, TimingModel, simulate
from qrepeater.errors import InfeasibleError, ValidationError
from qrepeater.states import NoiseParams


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConnectCurve:
    def test_length_one_echoes_grid(self, capsys):
        code, out, _ = run_cli(capsys, "connect-curve", "--grid", "0.3:0.5:0.1",
                               "--L", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "fidelity_in\tfidelity_connected"
        for line in lines[1:]:
            f_in, f_out = line.split("\t")
            assert f_in == f_out

    def test_imperfect_curve_below_diagonal(self, capsys):
        code, out, _ = run_cli(capsys, "connect-curve", "--grid", "0.251:0.999:0.001",
                               "--L", "3", "--p2", "0.97")
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            f_in, f_conn = (float(v) for v in line.split("\t"))
            assert f_conn < f_in

    def test_perfect_endpoint(self, capsys):
        code, out, _ = run_cli(capsys, "connect-curve", "--grid", "1.0:1.0:0.5",
                               "--L", "4")
        assert code == 0
        row = out.strip().split("\n")[1].split("\t")
        assert float(row[1]) == pytest.approx(1.0, abs=1e-15)

    def test_chain_length_beyond_float_range_rejected(self, capsys):
        code, out, err = run_cli(capsys, "connect-curve", "--L", str(10 ** 400),
                                 "--grid", "0.5:0.5:0.1")
        assert code == 2
        assert out == ""
        assert err == "error: chain length L exceeds float range\n"

    @pytest.mark.parametrize("grid", [
        "nan:1:0.1",
        "0.5:inf:0.1",
        # 0.5 / 5e-6 steps make 100001 points, one over the cap; without the
        # cap this grid would still build only those points
        "0.5:1.0:0.000005",
        # a step below the float spacing near 0.5 used to give 12 rows of two values
        "0.5:0.5000000000000001:1e-17",
    ])
    def test_non_finite_or_oversized_grid_rejected(self, capsys, grid):
        code, out, err = run_cli(capsys, "connect-curve", "--grid", grid)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["connect-curve", "purify-curve"])
@pytest.mark.parametrize("grid", ["0.1:0.3:0.1", "0.9:1.1:0.1"])
def test_curve_grid_outside_fidelity_range_names_the_flag(capsys, command, grid):
    # the same message as sweep-m's, from the one grid parser
    code, out, err = run_cli(capsys, command, "--grid", grid)
    assert (code, out, err) == (2, "", f"error: --grid values must lie in [0.25, 1], "
                                       f"got {grid!r}\n")


@pytest.mark.parametrize("argv, message", [
    (("connect-curve", "--grid", "abc"), "grid must be 'start:stop:step', got 'abc'"),
    (("connect-curve", "--grid", "0.9:0.5:0.1"), "bad grid '0.9:0.5:0.1'"),
    (("connect-curve", "--grid", "0.5:0.9:0"), "bad grid '0.5:0.9:0'"),
    (("sweep-m", "--noise-list", "a,b"), "expected comma-separated numbers, got 'a,b'"),
], ids=["grid-not-numbers", "grid-descending", "grid-zero-step", "noise-list-not-numbers"])
def test_malformed_spec_rejected(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


class TestPurifyCurve:
    def test_noiseless_fixed_points_on_curve(self, capsys):
        code, out, _ = run_cli(capsys, "purify-curve", "--grid", "0.5:1.0:0.5")
        assert code == 0
        rows = [line.split("\t") for line in out.strip().split("\n")[1:]]
        for row in rows:
            assert float(row[1]) == pytest.approx(float(row[0]), abs=1e-12)

    def test_emits_success_probability_column(self, capsys):
        from qrepeater.maps import purify_bennett
        from qrepeater.states import NoiseParams

        code, out, _ = run_cli(capsys, "purify-curve", "--grid", "0.8:0.9:0.05",
                               "--p2", "0.995", "--eta", "0.995")
        assert code == 0
        noise = NoiseParams(1.0, 0.995, 0.995)
        for line in out.strip().split("\n")[1:]:
            f_in, f_out, p_succ = (float(v) for v in line.split("\t"))
            ref = purify_bennett(f_in, noise)
            assert f_out == pytest.approx(ref.out_fidelity, abs=1e-15)
            assert p_succ == pytest.approx(ref.p_succ, abs=1e-15)

    def test_two_crossings_found_downstream(self, capsys):
        code, out, _ = run_cli(capsys, "purify-curve", "--grid", "0.251:1.0:0.001",
                               "--p2", "0.995", "--eta", "0.995")
        assert code == 0
        crossings = 0
        previous = None
        for line in out.strip().split("\n")[1:]:
            f_in, f_out, _ = (float(v) for v in line.split("\t"))
            gap = f_out - f_in
            if previous is not None and gap != 0.0 and (gap < 0) != (previous < 0):
                crossings += 1
            if gap != 0.0:
                previous = gap
        assert crossings == 2


class TestFixedPointsCommand:
    def test_noiseless(self, capsys):
        code, out, _ = run_cli(capsys, "fixed-points")
        assert code == 0
        f_min, f_max = (float(v) for v in out.strip().split("\n")[1].split("\t"))
        assert f_min == pytest.approx(0.5, abs=1e-10)
        assert f_max == pytest.approx(1.0, abs=1e-10)

    def test_infeasible_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "fixed-points", "--p2", "0.9")
        assert code == 3
        assert "infeasible" in err

    # near p2 = sqrt(0.9) the map touches the diagonal at F = 0.75: the first value
    # crosses it twice 4.6e-8 apart, the second touches it at a scan grid point
    @pytest.mark.parametrize("p2", ["0.948683298050514", "0.9486832980505139"])
    def test_touching_map_has_double_fixed_point(self, capsys, p2):
        code, out, err = run_cli(capsys, "fixed-points", "--p2", p2)
        assert (code, err) == (0, "")
        f_min, f_max = (float(v) for v in out.strip().split("\n")[1].split("\t"))
        assert f_min == pytest.approx(0.75, abs=1e-6)
        assert f_max == pytest.approx(0.75, abs=1e-6)
        if p2 == "0.9486832980505139":
            assert f_min == f_max


class TestSweepM:
    def test_noise_ordering_pointwise(self, capsys):
        code, out, _ = run_cli(capsys, "sweep-m", "--protocol", "deutsch",
                               "--noise-list", "1.0,0.9975,0.995",
                               "--grid", "0.9:0.96:0.02", "--levels", "6")
        assert code == 0
        table = {}
        for line in out.strip().split("\n")[1:]:
            q, f, m = (float(v) for v in line.split("\t"))
            table[(q, f)] = m
        fs = sorted({f for _, f in table})
        for f in fs:
            column = [table[(q, f)] for q in (1.0, 0.9975, 0.995) if (q, f) in table]
            assert all(a <= b + 1e-9 for a, b in zip(column, column[1:]))

    def test_noise_value_without_feasible_point_emits_no_rows(self, capsys):
        code, out, err = run_cli(capsys, "sweep-m", "--protocol", "bennett",
                                 "--noise-list", "0.97,0.995", "--grid", "0.9:0.94:0.02",
                                 "--levels", "4")
        assert code == 0
        noise_values = {line.split("\t")[0] for line in out.strip().split("\n")[1:]}
        assert noise_values == {"0.995"}
        assert err == ("skipped: noise=0.97: no feasible working fidelity on the grid "
                       "[0.9, 0.9400000000000001]\n")

    def test_all_noise_values_skipped_prints_header_only(self, capsys):
        code, out, err = run_cli(capsys, "sweep-m", "--protocol", "bennett",
                                 "--noise-list", "0.97")
        assert code == 0
        assert out == "noise\tworking_fidelity\tavg_pairs_per_level\n"
        assert err == "skipped: noise=0.97: no feasible working fidelity on the grid [0.88, 0.99]\n"

    def test_levels_bounded_before_segment_count_is_formed(self, capsys):
        for levels in ("2000", "0", "-1"):
            code, out, err = run_cli(capsys, "sweep-m", "--levels", levels,
                                     "--grid", "0.95:0.95:0.01")
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and "--levels" in err
            assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, expected", [
        (("--noise-list", "nan"),
         (2, "", "error: --noise-list values must lie in [0.5, 1], got nan\n")),
        (("--noise-list", "0.995,0.3"),
         (2, "", "error: --noise-list values must lie in [0.5, 1], got 0.3\n")),
        (("--L", "100000", "--levels", "1000"),
         (2, "", "error: --L to the power --levels 1000 exceeds float range\n")),
        (("--L", "1"), (2, "", "error: --L must be at least 2, got 1\n")),
        # a run whose totals overflow is an infeasible point, skipped like any other
        (("--L", "2", "--levels", "1000"),
         (0, "noise\tworking_fidelity\tavg_pairs_per_level\n",
          "skipped: noise=0.995: no feasible working fidelity on the grid [0.9, 0.9]\n")),
    ], ids=["nan", "below-range", "power", "L-below-2", "totals-overflow"])
    def test_errors_name_the_flag(self, capsys, argv, expected):
        assert run_cli(capsys, "sweep-m", *argv, "--grid", "0.9:0.9:0.1") == expected

    @pytest.mark.parametrize("grid", ["0.1:0.3:0.1", "0.9:1.1:0.1"])
    def test_grid_outside_fidelity_range_rejected(self, capsys, grid):
        code, out, err = run_cli(capsys, "sweep-m", "--grid", grid)
        assert (code, out, err) == (2, "", f"error: --grid values must lie in [0.25, 1], "
                                           f"got {grid!r}\n")

    @pytest.mark.parametrize("noise_list", [",", ""])
    def test_empty_noise_list_rejected(self, capsys, noise_list):
        code, out, err = run_cli(capsys, "sweep-m", "--noise-list", noise_list,
                                 "--grid", "0.9:0.9:0.1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--noise-list" in err
        assert err.count("\n") == 1

    def test_perfect_noise_minimum_one(self, capsys):
        code, out, _ = run_cli(capsys, "sweep-m", "--protocol", "deutsch",
                               "--noise-list", "1.0", "--grid", "0.9:1.0:0.05",
                               "--levels", "4")
        assert code == 0
        ms = [float(line.split("\t")[2]) for line in out.strip().split("\n")[1:]]
        assert min(ms) == pytest.approx(1.0)
        assert all(m >= 1.0 - 1e-12 for m in ms)


class TestRepeaterCommand:
    def test_json_report_smoke(self, capsys):
        code, out, err = run_cli(capsys, "repeater", "--scheme", "B", "--N", "4",
                                 "--p1", "0.995", "--p2", "0.995", "--eta", "0.995",
                                 "--f-work", "0.96")
        assert code == 0
        payload = json.loads(out)
        assert payload["scheme"] == "B"
        assert payload["n_levels"] == 2
        assert payload["final_fidelity"] >= 0.96
        assert "resources=" in err and "time_s=" in err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "scheme": "B", "N": 4, "L": 2, "p1": 0.995, "p2": 0.995, "eta": 0.995,
            "f_work": 0.9,
        }))
        code, out, _ = run_cli(capsys, "repeater", "--config", str(config),
                               "--f-work", "0.95")
        assert code == 0
        payload = json.loads(out)
        assert payload["f_work"] == 0.95  # flag wins over file

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"scheme": "B", "N": 4, "mystery": 1}))
        code, _, err = run_cli(capsys, "repeater", "--config", str(config))
        assert code == 2
        assert "mystery" in err

    @pytest.mark.parametrize("file_values, flags, field", [
        ({"N": 16.5}, (), "N"),
        ({"N": True}, (), "N"),
        ({"L": 2.0}, (), "L"),
        ({"p2": True}, (), "p2"),
        ({"f_work": "0.96"}, (), "f_work"),
        ({"tau_op": False}, (), "tau_op"),
        ({"segment_km": float("nan")}, (), "segment_km"),
        ({"scheme": 2}, (), "scheme"),
        (None, ("--tau-op", "nan"), "tau_op"),
        (None, ("--signal-speed", "inf"), "signal_speed"),
        (None, ("--segment-km", "inf"), "segment_km"),
        ({"p1": 10 ** 400}, (), "p1"),
    ])
    def test_config_values_checked_by_type_and_finiteness(self, tmp_path, capsys,
                                                          file_values, flags, field):
        argv = ["repeater", "--scheme", "B", "--N", "4", *flags]
        if file_values is not None:
            config = tmp_path / "run.json"
            config.write_text(json.dumps(file_values))
            argv = ["repeater", "--config", str(config)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and field in err

    @pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
    def test_bad_working_fidelity_is_named_not_its_default_copy(self, tmp_path, capsys,
                                                                 by_config):
        # f_init was never given: it defaults to f_work, so the error must name f_work
        argv = ["repeater", "--scheme", "B", "--N", "16", "--f-work", "1.5"]
        if by_config:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"scheme": "B", "N": 16, "f_work": 1.5}))
            argv = ["repeater", "--config", str(config)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "error: f_work must lie in [0.25, 1], got 1.5\n")

    @pytest.mark.parametrize("content, cause", [
        (b'{"N": ' + b"1" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
        (b'{"scheme": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
        (b"[" * 100_000, "maximum recursion depth exceeded"),
    ], ids=["int-digits", "not-utf8", "deep-nesting"])
    def test_undecodable_config_file_is_one_error_line(self, tmp_path, capsys,
                                                       content, cause):
        config = tmp_path / "run.json"
        config.write_bytes(content)
        code, out, err = run_cli(capsys, "repeater", "--config", str(config))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: config file {config}: {cause}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
    def test_unreadable_config_file_is_an_io_error(self, tmp_path, capsys, name):
        config = tmp_path / name
        code, out, err = run_cli(capsys, "repeater", "--config", str(config))
        assert (code, out) == (4, "")
        assert err.startswith(f"i/o error: {config}: ") and err.count("\n") == 1

    def test_config_file_must_hold_an_object(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text("[1, 2]")
        code, out, err = run_cli(capsys, "repeater", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == f"error: config file {config} must hold a JSON object\n"

    @pytest.mark.parametrize("argv, message", [
        (("--L", "1"), "branching factor must be >= 2, got 1"),
        (("--N", "2", "--L", "4"), "need at least 4 segments, got 2"),
    ], ids=["L-below-2", "N-below-L"])
    def test_chain_shape_rejected(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "repeater", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_flags_are_the_config_keys(self, tmp_path, capsys):
        # every config key has a flag of the same name, and no other flag sets a run parameter
        args = vars(build_parser().parse_args(["repeater"]))
        dests = set(args) - {"command", "func", "config", "purifier", "out", "format"}
        keys = {"scheme", "N", "L", "f_init", "f_work"} | {
            f.name for f in fields(NoiseParams) + fields(TimingModel)}
        assert dests == keys
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"scheme": "B", "N": 4, "L": 2}
                                     | {key: 1.0 for key in keys - {"scheme", "N", "L"}}))
        code, _, err = run_cli(capsys, "repeater", "--config", str(config))
        assert code == 0, err

    def test_noise_constants_stay_out_of_fields_and_reports(self, capsys):
        # the kernels' derived constants are cached properties, not fields
        noise = NoiseParams(0.99, 0.98, 0.97)
        before = (repr(noise), hash(noise), fields(noise), asdict(noise))
        noise.purify_constants, noise.connect_constants
        assert noise == NoiseParams(0.99, 0.98, 0.97)
        assert (repr(noise), hash(noise), fields(noise), asdict(noise)) == before
        assert before[3] == {"p1": 0.99, "p2": 0.98, "eta": 0.97}
        assert cli._FLOAT_KEYS == ("p1", "p2", "eta", "f_init", "f_work", "tau_op",
                                   "tau_pair", "segment_km", "signal_speed")
        code, out, _ = run_cli(capsys, "repeater", "--scheme", "B", "--p1", "0.99",
                               "--p2", "0.98", "--eta", "0.97", "--f-work", "0.9")
        assert code == 0
        assert json.loads(out)["noise"] == {"p1": 0.99, "p2": 0.98, "eta": 0.97}

    def test_config_accepts_integer_for_float_field(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"scheme": "B", "N": 4, "p1": 1, "f_work": 0.9}))
        code, out, _ = run_cli(capsys, "repeater", "--config", str(config))
        assert code == 0
        assert json.loads(out)["noise"]["p1"] == 1.0

    def test_int_valued_config_report_is_the_library_report(self, tmp_path, capsys):
        # ints in float fields become floats in the dataclasses, not in the CLI, so a
        # library run prints 1.0 as the CLI does, where it used to keep the int 1
        report = simulate(ProtocolConfig(4, 2, "B", 1, 1, NoiseParams(1, 1, 1),
                                         TimingModel(1, 1, 1, 1)))
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"scheme": "B", "N": 4, "L": 2}
                                     | dict.fromkeys(cli._FLOAT_KEYS, 1)))
        code, out, err = run_cli(capsys, "repeater", "--config", str(config))
        assert code == 0, err
        assert out == json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("key", [f.name for f in fields(TimingModel)])
    def test_timing_int_beyond_float_range_is_one_error_line(self, tmp_path, capsys, key):
        # it used to pass the check and die in the run with an OverflowError traceback
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: 10 ** 400}))
        code, out, err = run_cli(capsys, "repeater", "--config", str(config))
        assert (code, out, err) == (2, "", f"error: {key} exceeds float range\n")

    def test_invalid_segment_count_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "repeater", "--scheme", "B", "--N", "12")
        assert code == 2
        assert "error" in err

    def test_segment_count_beyond_float_range_rejected(self, capsys):
        code, out, err = run_cli(capsys, "repeater", "--scheme", "B", "--N", str(2 ** 1100))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "segment count N" in err

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    def test_totals_beyond_float_range_rejected(self, capsys, fmt):
        code, out, err = run_cli(capsys, "repeater", "--scheme", "A", "--N", str(2 ** 400),
                                 *NOISE, "--f-work", "0.94", "--format", fmt)
        assert code == 3
        assert out == ""
        assert err.startswith("infeasible: level ") and "elementary_pairs" in err

    def test_step_cap_exits_infeasible(self, capsys):
        # just inside the saddle node a level needs more than 10,000 purification steps
        code, out, err = run_cli(capsys, "repeater", "--scheme", "A", "--N", "2",
                                 "--p2", "0.9486833080505139", "--f-init", "0.8786459821416053",
                                 "--f-work", "0.75011")
        assert (code, out) == (3, "")
        assert err == ("infeasible: level 1: purification did not reach the working fidelity "
                       "0.75011 within 10000 steps\n")

    def test_scheme_c_bennett_variant_documented_failure(self, capsys):
        code, _, err = run_cli(capsys, "repeater", "--scheme", "C", "--N", "16",
                               "--p1", "0.995", "--p2", "0.995", "--eta", "0.995",
                               "--f-init", "0.97", "--f-work", "0.96",
                               "--purifier", "bennett")
        assert code == 3
        assert "level 1" in err

    def test_output_file_and_io_error(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "repeater", "--scheme", "A", "--N", "4",
                             "--f-work", "0.9", "--p1", "0.995", "--p2", "0.995",
                             "--eta", "0.995", "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())["scheme"] == "A"
        code, _, err = run_cli(capsys, "repeater", "--scheme", "A", "--N", "4",
                               "--f-work", "0.9", "--p1", "0.995", "--p2", "0.995",
                               "--eta", "0.995",
                               "--out", str(tmp_path / "nope" / "report.json"))
        assert code == 4
        assert "i/o error" in err


#: Each float key's bounds: closed for the reliabilities and fidelities, open for timing.
FLOAT_BOUNDS = {"p1": (0.0, 1.0), "p2": (0.0, 1.0), "eta": (0.5, 1.0),
                "f_init": (0.25, 1.0), "f_work": (0.25, 1.0),
                **dict.fromkeys([f.name for f in fields(TimingModel)], (0.0, math.inf))}


def one_float_key():
    """A float key of ``repeater`` and a value for it, valid or not."""
    def values(key):
        lo, hi = FLOAT_BOUNDS[key]
        return st.one_of(
            st.booleans(), st.integers(), st.just(10 ** 400), st.none(), st.text(max_size=4),
            st.sampled_from([math.nan, math.inf, -math.inf, lo, hi,
                             math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]),
        )
    return st.sampled_from(cli._FLOAT_KEYS).flatmap(lambda key: st.tuples(st.just(key),
                                                                          values(key)))


def library_run(key, value):
    """The CLI's default run with ``key`` set to ``value``, built by the dataclasses alone."""
    chosen = {key: value}
    noise = NoiseParams(**{f.name: chosen.get(f.name, f.default) for f in fields(NoiseParams)})
    timing = TimingModel(**{f.name: chosen.get(f.name, f.default) for f in fields(TimingModel)})
    f_work = chosen.get("f_work", 0.96)
    return simulate(ProtocolConfig(16, 2, "B", chosen.get("f_init", f_work), f_work, noise,
                                   timing))


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(one_float_key())
def test_config_float_keys_rejected_exactly_where_the_library_rejects(tmp_path, capsys, case):
    # one check decides what a number is: the CLI exits 2 on exactly the values that
    # the library rejects, with the library's message, and prints its report otherwise
    key, value = case
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: value}))
    code, out, err = run_cli(capsys, "repeater", "--config", str(config))
    try:
        report = library_run(key, value)
    except ValidationError as exc:
        assert (code, out, err) == (2, "", f"error: {exc}\n")
    except InfeasibleError as exc:
        assert (code, out, err) == (3, "", f"infeasible: {exc}\n")
    else:
        assert code == 0, err
        assert out == json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"


class TestDeterminism:
    def test_identical_config_identical_bytes(self, capsys):
        args = ("sweep-m", "--protocol", "bennett", "--noise-list", "0.995",
                "--grid", "0.92:0.96:0.01", "--levels", "6")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestOracleCheck:
    def test_default_grid_passes(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check")
        assert code == 0
        assert "PASS" in out

    def test_perturbed_map_fails(self, capsys, monkeypatch):
        from qrepeater import maps

        exact = maps.connect_coeffs
        monkeypatch.setattr(maps, "connect_coeffs", lambda ab, bc, noise:
                            tuple(c + 1e-9 for c in exact(ab, bc, noise)))
        code, out, _ = run_cli(capsys, "oracle-check")
        assert code == 1
        assert out.splitlines()[-1] == "FAIL: max deviation 1.000e-09 exceeds 1e-12"
        # the line before names the map and the grid node; every node is off by 1e-9
        assert re.fullmatch(r"worst: connection coefficients at pairs \(e[0-3], e[0-3]\), "
                            r"p1=[.0-9]+ p2=[.0-9]+ eta=[.0-9]+", out.splitlines()[-2])

    def test_perturbed_werner_step_fails(self, capsys, monkeypatch):
        # scheme A's scalar step is checked as its own map, on two Werner pairs
        from qrepeater import maps

        exact = maps.werner_step
        monkeypatch.setattr(maps, "werner_step", lambda fidelity, noise:
                            (exact(fidelity, noise)[0], exact(fidelity, noise)[1] + 1e-9))
        code, out, _ = run_cli(capsys, "oracle-check")
        assert code == 1
        assert re.fullmatch(r"worst: Werner purification at F=[.0-9]+, "
                            r"p1=1 p2=[.0-9]+ eta=[.0-9]+", out.splitlines()[-2])
        assert out.splitlines()[-1].startswith("FAIL: max deviation 1.000e-09")

    @pytest.mark.parametrize("kernel, name", [
        ("connect_coeffs", "connection coefficients"),
        ("purify_coeffs", "bennett purification"),
    ])
    def test_swapped_coefficients_fail(self, capsys, monkeypatch, kernel, name):
        # coefficients 1 and 2 swapped in connection, or in the twirl-based step: both are
        # equal on Werner pairs, so only a check on non-Werner pairs sees the swap
        from qrepeater import maps

        def swapped(coeffs):
            a, b, c, d = coeffs
            return a, c, b, d

        exact = getattr(maps, kernel)

        def mutant(*args):
            out = exact(*args)
            if kernel == "connect_coeffs":
                return swapped(out)
            p_succ, coeffs = out
            return p_succ, swapped(coeffs) if args[-1] == "bennett" else coeffs

        monkeypatch.setattr(maps, kernel, mutant)
        code, out, _ = run_cli(capsys, "oracle-check")
        assert code == 1
        assert out.splitlines()[-2].startswith(f"worst: {name} at pairs (e")
        assert out.splitlines()[-1].startswith("FAIL: max deviation ")

    def test_nan_closed_form_fails(self, capsys, monkeypatch):
        # a NaN deviation counts as infinite, so a closed form gone NaN fails and is named
        from qrepeater import maps

        monkeypatch.setattr(maps, "connect_L", lambda f, length, noise: math.nan)
        code, out, _ = run_cli(capsys, "oracle-check")
        assert code == 1
        assert out.splitlines()[-2].startswith("worst: connection fidelity at F=")
        assert out.splitlines()[-1] == "FAIL: max deviation inf exceeds 1e-12"

    def test_non_bell_diagonal_oracle_state_fails_in_one_line(self, capsys, monkeypatch):
        import numpy as np
        from qrepeater import oracle
        from test_oracle import embed

        # a small Y rotation on one end of every Bell projector, which every input pair is
        # built from, leaves Bell-basis coherences; it is real, as the circuits' arithmetic is
        turn = np.array([[np.cos(1e-3), -np.sin(1e-3)], [np.sin(1e-3), np.cos(1e-3)]])
        rotation = embed(turn, 2, (0,)).real
        projectors = oracle._BELL_PROJECTORS.reshape(4, 4, 4)
        monkeypatch.setattr(oracle, "_BELL_PROJECTORS",
                            (rotation @ projectors @ rotation.T).reshape(4, 16))
        code, out, err = run_cli(capsys, "oracle-check")
        assert code == 1
        assert out.startswith("FAIL: state is not Bell-diagonal") and out.count("\n") == 1
        assert err == ""


SRC = str(pathlib.Path(qrepeater.__file__).parents[1])


def run_fresh(argv):
    """Run ``python -X importtime -m qrepeater.cli`` and list the modules it imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-X", "importtime", "-m", "qrepeater.cli", *argv],
                            capture_output=True, text=True, env=env)
    imported, err_lines = set(), []
    for line in result.stderr.splitlines():
        if line.startswith("import time:"):
            imported.add(line.rsplit("|", 1)[1].strip())
        else:
            err_lines.append(line)
    return result.returncode, result.stdout, err_lines, imported


FRESH_CASES = {
    "connect_curve": (0, ("connect-curve", "--grid", "0.5:1.0:0.1", "--L", "3", "--p2", "0.97")),
    "purify_curve_bennett": (0, ("purify-curve", "--grid", "0.6:1.0:0.1", *NOISE)),
    "purify_curve_deutsch": (0, ("purify-curve", "--protocol", "deutsch",
                                 "--grid", "0.6:1.0:0.1", *NOISE, "--format", "json")),
    "fixed_points": (0, ("fixed-points", "--p2", "0.97")),
    "sweep_m": (0, ("sweep-m", "--noise-list", "0.995,0.99", "--grid", "0.9:0.96:0.02",
                    "--levels", "4")),
    "repeater_flags": (0, ("repeater", "--scheme", "B", "--N", "1024", *NOISE,
                           "--f-work", "0.96")),
    "repeater_config": (0, ("repeater", "--config", "{config}", "--format", "tsv")),
    "repeater_infeasible": (3, ("repeater", "--scheme", "C", *NOISE, "--f-init", "0.96",
                                "--f-work", "0.96")),
    "invalid": (2, ("repeater", "--scheme", "B", "--N", "12")),
}


#: The fresh cases that write JSON, with the golden case of the same call, or read it.
FRESH_JSON = {"purify_curve_deutsch": "purify_curve_deutsch_json",
              "repeater_flags": "repeater_b_l2_json", "repeater_config": None}


@pytest.mark.parametrize("name", sorted(FRESH_CASES))
def test_analytic_subcommand_loads_neither_numpy_nor_oracle(tmp_path, name):
    expected_code, argv = FRESH_CASES[name]
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"scheme": "A", "N": 16, "p1": 0.995, "p2": 0.995,
                                  "eta": 0.995, "f_work": 0.94}))
    code, out, _, imported = run_fresh([arg.format(config=config) for arg in argv])
    assert code == expected_code
    assert "qrepeater.engine" in imported  # the probe sees the package's own imports
    assert not {"numpy", "qrepeater.oracle"} & imported
    # json is imported only by the calls that read or write JSON
    assert ("json" in imported) == (name in FRESH_JSON)
    if FRESH_JSON.get(name):
        golden = pathlib.Path(__file__).parent / "golden" / f"{FRESH_JSON[name]}.json"
        assert out == json.loads(golden.read_text())["stdout"]


def test_oracle_check_loads_the_oracle_and_passes():
    code, out, err_lines, imported = run_fresh(["oracle-check"])
    assert code == 0
    assert out.splitlines()[-1] == "PASS: all deviations within 1e-12"
    assert err_lines == []
    # the probe sees the imports the analytic subcommands must not make
    assert {"numpy", "qrepeater.oracle"} <= imported


@pytest.mark.parametrize("argv, code, out, err", [
    (["fixed-points"], 0, "f_min\tf_max\n0.5\t1\n", ""),
    (["connect-curve", "--grid", "abc"], 2, "",
     "error: grid must be 'start:stop:step', got 'abc'\n"),
])
def test_installed_script_entry_exits_with_main_code(capsys, monkeypatch,
                                                     argv, code, out, err):
    # entry() is what the installed `qrepeater` script runs; it reads sys.argv itself
    monkeypatch.setattr(sys, "argv", ["qrepeater", *argv])
    with pytest.raises(SystemExit) as exited:
        entry()
    assert exited.value.code == code
    assert capsys.readouterr() == (out, err)
