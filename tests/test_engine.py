import math
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import qrepeater
from qrepeater import cli, engine, maps
from qrepeater.engine import (
    ProtocolConfig,
    TimingModel,
    optimize_working_fidelity,
    simulate,
)
from qrepeater.errors import AuxPurificationError, InfeasibleError, ValidationError
from qrepeater.states import BellDiagonalState, NoiseParams, WernerState, werner_coeffs

NOISE = NoiseParams.uniform(0.995)
#: The acceptance grid of working fidelities: 0.86 to 0.995 in steps of 0.0025.
GRID = tuple(0.86 + 0.0025 * i for i in range(55))


def make_config(scheme="B", n_segments=16, f_init=0.96, f_work=0.96,
                noise=NOISE, length=2):
    return ProtocolConfig(n_segments=n_segments, length=length, scheme=scheme,
                          f_init=f_init, f_work=f_work, noise=noise)


#: Every float field of the library's inputs, with a constructor taking it by name.
FLOAT_FIELDS = {
    **dict.fromkeys(("p1", "p2", "eta"), NoiseParams),
    **dict.fromkeys(("f_init", "f_work"), make_config),
    **dict.fromkeys(("tau_op", "tau_pair", "segment_km", "signal_speed"), TimingModel),
}


class TestConfig:
    def test_segment_count_must_be_power_of_length(self):
        with pytest.raises(ValidationError):
            make_config(n_segments=24)

    def test_unknown_scheme(self):
        with pytest.raises(ValidationError):
            make_config(scheme="D")

    def test_timing_positive(self):
        with pytest.raises(ValidationError):
            TimingModel(tau_op=0.0)

    def test_level_count_is_exact_at_large_depth(self):
        assert make_config(n_segments=2 ** 60).n_levels == 60
        assert make_config(n_segments=3 ** 30, length=3).n_levels == 30
        with pytest.raises(ValidationError, match="not a power"):
            make_config(n_segments=2 ** 60 + 1)

    @pytest.mark.parametrize("scheme", "ABC")
    @pytest.mark.parametrize("n_segments, length, field", [
        (8.0, 2.0, "length"), (8.0, 2, "n_segments"), (8, 2.0, "length"),
        (True, 2, "n_segments"), (2, True, "length"),
    ], ids=["both-float", "float-N", "float-L", "bool-N", "bool-L"])
    def test_chain_shape_must_be_int(self, scheme, n_segments, length, field):
        # floats used to pass, and then broke schemes B and C with a TypeError
        with pytest.raises(ValidationError, match=f"^{field} must be an int, got "):
            make_config(scheme=scheme, n_segments=n_segments, length=length)

    @pytest.mark.parametrize("bad", [True, False, "0.9", 0.9 + 0j, None],
                             ids=["true", "false", "str", "complex", "none"])
    @pytest.mark.parametrize("field", list(FLOAT_FIELDS))
    def test_float_fields_reject_bools_and_non_reals(self, field, bad):
        with pytest.raises(ValidationError, match=f"^{field} must be a real number, got "):
            FLOAT_FIELDS[field](**{field: bad})

    @pytest.mark.parametrize("bad", [None, (0.9, 0.9, 0.9), {"p1": 0.9}],
                             ids=["none", "tuple", "dict"])
    @pytest.mark.parametrize("field, kind", [("noise", "NoiseParams"), ("timing", "TimingModel")])
    def test_noise_and_timing_must_be_their_classes(self, field, kind, bad):
        # each used to pass, and then died in simulate with an AttributeError
        config = dict(n_segments=4, length=2, scheme="B", f_init=0.9, f_work=0.9, noise=NOISE)
        with pytest.raises(ValidationError) as excinfo:
            simulate(ProtocolConfig(**{**config, field: bad}))
        assert str(excinfo.value) == f"{field} must be a {kind}, got {bad!r}"

    def test_bool_fields_do_not_reach_a_run(self):
        # a bool compares as 0 or 1, so without the type check this runs and reports f_work=True
        with pytest.raises(ValidationError, match="^p1 must be a real number, got True$"):
            simulate(ProtocolConfig(4, 2, "B", True, True, NoiseParams(True, True, True)))

    @pytest.mark.parametrize("field, value, message", [
        ("p1", 1.2, "p1 must lie in [0, 1], got 1.2"),
        ("p2", -1, "p2 must lie in [0, 1], got -1"),
        ("eta", math.nan, "eta must lie in [0.5, 1], got nan"),
        ("f_work", 0.2, "f_work must lie in [0.25, 1], got 0.2"),
        ("f_init", 2, "f_init must lie in [0.25, 1], got 2"),
        ("tau_op", math.inf, "timing field tau_op must be positive and finite, got inf"),
    ], ids=["p1", "p2", "eta", "f_work", "f_init", "tau_op"])
    def test_real_values_out_of_range_keep_their_messages(self, field, value, message):
        with pytest.raises(ValidationError) as excinfo:
            FLOAT_FIELDS[field](**{field: value})
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("field", list(FLOAT_FIELDS))
    def test_int_beyond_float_range_is_named(self, field):
        # a timing field used to take it, and the run then died with an OverflowError
        with pytest.raises(ValidationError, match=f"^{field} exceeds float range$"):
            FLOAT_FIELDS[field](**{field: 10 ** 400})

    @pytest.mark.parametrize("field", list(FLOAT_FIELDS))
    def test_int_is_stored_as_float(self, field):
        value = getattr(FLOAT_FIELDS[field](**{field: 1}), field)
        assert (type(value), value) == (float, 1.0)

    def test_comm_time(self):
        timing = TimingModel(segment_km=10.0, signal_speed=2e5)
        assert timing.comm_time(1) == pytest.approx(5e-5)


class TestSimulateNested:
    def test_single_level_reduction(self):
        config = make_config(n_segments=2)
        report = simulate(config)
        assert report.n_levels == 1
        assert len(report.levels) == 1
        level = report.levels[0]
        assert report.parallel_resources == pytest.approx(level.avg_pairs)
        assert report.elementary_pairs == pytest.approx(2 * level.avg_pairs)

    def test_final_fidelity_meets_working_target(self):
        for scheme in ("A", "B"):
            report = simulate(make_config(scheme=scheme, n_segments=64))
            assert report.final_fidelity >= report.f_work
            for level in report.levels:
                assert level.fidelity_achieved >= report.f_work
                assert 0.25 <= level.fidelity_connected <= 1.0

    def test_resource_identity_with_geometric_mean(self):
        # elementary pairs factor exactly as N^(log_L mbar + 1)
        report = simulate(make_config(scheme="B", n_segments=256))
        mbar = report.parallel_resources ** (1.0 / report.n_levels)
        predicted = report.n_segments ** (math.log(mbar, report.length) + 1.0)
        assert report.elementary_pairs == pytest.approx(predicted, rel=1e-9)

    def test_scheme_b_needs_fewer_copies_than_a(self):
        rep_a = simulate(make_config(scheme="A", n_segments=64))
        rep_b = simulate(make_config(scheme="B", n_segments=64))
        assert rep_b.parallel_resources < rep_a.parallel_resources

    def test_level_annotation_on_failure(self):
        # degrade gates until some level cannot recover the working fidelity
        bad = NoiseParams(1.0, 0.96, 1.0)
        with pytest.raises(InfeasibleError, match="level"):
            simulate(make_config(scheme="A", n_segments=256,
                                 f_init=0.9, f_work=0.9, noise=bad))

    def test_step_cap_is_an_infeasibility_of_its_level(self):
        # p2 is 1e-8 above the saddle node (~0.9486832981), where the map's
        # slope at f_max tends to 1: the connected pair, just above f_min,
        # needs ~70,000 steps to reach f_work, past the cap
        noise = NoiseParams(1.0, 0.9486833080505139, 1.0)
        config = make_config(scheme="A", n_segments=2, f_init=0.8786459821416053,
                             f_work=0.75011, noise=noise)
        with pytest.raises(InfeasibleError) as excinfo:
            simulate(config)
        assert excinfo.value.level == 1
        assert str(excinfo.value) == (
            f"level 1: purification did not reach the working fidelity 0.75011 "
            f"within {engine._MAX_STEPS} steps")

    def test_feasibility_monotone_in_noise(self):
        # succeeding at q keeps succeeding when every reliability improves
        chain = [NoiseParams(0.99, 0.99, 0.99), NoiseParams(0.995, 0.99, 0.995),
                 NoiseParams(1.0, 0.995, 1.0), NoiseParams(1.0, 1.0, 1.0)]
        succeeded = False
        for noise in chain:
            try:
                simulate(make_config(scheme="B", n_segments=64,
                                     f_init=0.93, f_work=0.93, noise=noise))
                succeeded = True
            except InfeasibleError:
                assert not succeeded, "feasibility was lost as noise improved"

    def test_error_tolerance_levels(self):
        # completes at 1% errors; still completes at 3% with more copies
        rep1 = simulate(make_config(scheme="B", n_segments=64, f_init=0.93,
                                    f_work=0.93, noise=NoiseParams.uniform(0.99)))
        rep3 = simulate(make_config(scheme="B", n_segments=64, f_init=0.93,
                                    f_work=0.93, noise=NoiseParams.uniform(0.97)))
        assert rep3.parallel_resources > rep1.parallel_resources


def _written_out_time(report):
    """The build-time recurrence of the report's scheme, from its own step counts."""
    timing = report.timing
    t = timing.tau_pair
    for level in report.levels:
        round_time = timing.tau_op + timing.comm_time(level.span_segments)
        if report.scheme == "C":
            t_pair = t + round_time
            t = t_pair + level.steps * (t_pair + round_time)
        else:
            t += (1 + level.steps) * round_time
    return t


class TestLevelLoop:
    # f_work up to 0.99 lies above both parallel-copy attractors at q = 0.99 (0.974 for
    # scheme A), so schemes A and B fail too
    @given(scheme=st.sampled_from("ABC"), q=st.floats(0.99, 1.0),
           f_work=st.floats(0.9, 0.99), n=st.integers(1, 8))
    @example(scheme="A", q=0.99, f_work=0.98, n=3)
    @settings(max_examples=150, deadline=None)
    def test_run_reports_consistently_or_names_its_level(self, scheme, q, f_work, n):
        config = make_config(scheme=scheme, n_segments=2 ** n, f_init=f_work,
                             f_work=f_work, noise=NoiseParams.uniform(q))
        try:
            report = simulate(config)
        except InfeasibleError as exc:
            match = re.match(r"level (\d+): ", str(exc))
            assert match and 1 <= int(match[1]) <= n
            assert exc.level == int(match[1])
            return
        assert len(report.levels) == n
        assert all(level.fidelity_achieved >= f_work for level in report.levels)
        # the per-level copy counts compose to the totals exactly, in the engine's order
        assert report.elementary_pairs == math.prod(2 * level.avg_pairs
                                                    for level in report.levels)
        if scheme == "C":
            assert all(level.avg_pairs == 1 + level.steps for level in report.levels)
        else:
            assert all(level.avg_pairs == math.prod(2.0 / p for p in level.p_succ)
                       for level in report.levels)
            assert report.parallel_resources == math.prod(level.avg_pairs
                                                          for level in report.levels)
        assert report.total_time == pytest.approx(_written_out_time(report), rel=1e-12)


def _stepped_level(config, protocol):
    """Level 1 stepped through the public state-object maps, or None where a step stalls.

    Returns ``(fidelity_connected, fidelity_achieved, p_succ)``.
    """
    noise, pumped = config.noise, config.scheme == "C"
    pair = WernerState(config.f_init).to_bell_diagonal()
    if config.scheme == "A":
        connected = WernerState(maps.connect_L(pair.fidelity, config.length, noise))
        connected = connected.to_bell_diagonal()
    else:
        connected = BellDiagonalState(maps.chain_coeffs(pair.coeffs, config.length, noise))
    state, p_succ = connected, []
    while state.fidelity < config.f_work:
        outcome, purified = maps.purify_with_aux(state, connected if pumped else state,
                                                 noise, protocol)
        if config.scheme == "A":
            purified = WernerState(outcome.out_fidelity).to_bell_diagonal()
        if purified.fidelity <= state.fidelity + 1e-13:
            return None
        p_succ.append(outcome.p_succ)
        state = purified
    return connected.fidelity, state.fidelity, tuple(p_succ)


class TestLoopMatchesPublicMaps:
    @given(scheme_protocol=st.sampled_from([("A", "bennett"), ("B", "deutsch"),
                                            ("C", "deutsch"), ("C", "bennett")]),
           q=st.floats(0.97, 1.0), f_init=st.floats(0.8, 1.0), f_work=st.floats(0.8, 0.999),
           length=st.sampled_from([2, 3]))
    @settings(max_examples=150, deadline=None)
    def test_one_level_equals_stepping_the_public_maps(self, scheme_protocol, q, f_init,
                                                       f_work, length):
        scheme, protocol = scheme_protocol
        config = make_config(scheme=scheme, n_segments=length, length=length, f_init=f_init,
                             f_work=f_work, noise=NoiseParams.uniform(q))
        want = _stepped_level(config, protocol)
        if want is None:
            with pytest.raises(InfeasibleError):
                simulate(config, protocol)
            return
        level = simulate(config, protocol).levels[0]
        assert (level.fidelity_connected, level.fidelity_achieved, level.p_succ) == want
        assert level.steps == len(want[2])

    @pytest.mark.parametrize("scheme", "ABC")
    def test_purify_kernel_output_is_checked(self, monkeypatch, scheme):
        def negative_output(kept, meas, noise, protocol):
            return 0.5, (1.0 + 2e-12, -2e-12, 0.0, 0.0)

        monkeypatch.setattr(engine, "purify_coeffs", negative_output)
        with pytest.raises(ValidationError, match="negative beyond tolerance"):
            simulate(make_config(scheme=scheme))

    @pytest.mark.parametrize("scheme", "BC")
    def test_connect_kernel_output_is_checked(self, monkeypatch, scheme):
        # the chain's inverse character transform is its last step before the check
        monkeypatch.setattr(maps, "_from_characters", lambda h1, h2, h3: (0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ValidationError, match="must sum to 1"):
            simulate(make_config(scheme=scheme))


#: (scheme, protocol, f_init, f_work): schemes A and B at their optimum working
#: fidelity at 0.5 % errors, and scheme C started 0.02 above B's.
LEVEL_RUNS = [("A", "bennett", 0.9425, 0.9425), ("B", "deutsch", 0.9675, 0.9675),
              ("C", "deutsch", 0.9875, 0.9675)]


class TestLevelMap:
    """``engine._level_map`` is one level of ``simulate``, and the fold only adds it up."""

    @pytest.mark.parametrize("scheme, protocol, f_init, f_work", LEVEL_RUNS, ids="ABC")
    def test_iterating_the_map_reproduces_the_level_records(self, scheme, protocol,
                                                            f_init, f_work):
        levels = simulate(make_config(scheme=scheme, n_segments=2 ** 10, f_init=f_init,
                                      f_work=f_work)).levels
        state = werner_coeffs(f_init)
        for record in levels:
            state, connected, p_succ, copies = engine._level_map(state, 2, NOISE, f_work,
                                                                 scheme, protocol)
            assert (connected, state[0], tuple(p_succ), len(p_succ), copies) == (
                record.fidelity_connected, record.fidelity_achieved, record.p_succ,
                record.steps, record.avg_pairs)

    @pytest.mark.parametrize("n_levels", [10, 60])
    @pytest.mark.parametrize("scheme, protocol, f_init, f_work", LEVEL_RUNS, ids="ABC")
    def test_copies_are_the_documented_product(self, scheme, protocol, f_init, f_work,
                                               n_levels):
        # the map multiplies 2 / p in at each step; the docstring's M is the left fold
        levels = simulate(make_config(scheme=scheme, n_segments=2 ** n_levels, f_init=f_init,
                                      f_work=f_work)).levels
        assert len(levels) == n_levels
        for record in levels:
            if scheme == "C":
                assert record.avg_pairs == 1.0 + record.steps
            else:
                assert record.steps > 0
                assert record.avg_pairs == math.prod((2.0 / p for p in record.p_succ),
                                                     start=1.0)


class TestUnboundedChain:
    """A chain of any length costs one closed form: no loop and no list over its links."""

    @pytest.mark.parametrize("scheme, cause", [
        ("B", "fidelity 0.250000 is at or below the purification threshold"),
        ("C", "pumping with the re-created pair stalls at fidelity 0.250000, "
              "below the working fidelity 0.96"),
    ], ids=["B", "C"])
    def test_chain_of_a_trillion_pairs_is_fully_mixed(self, capsys, scheme, cause):
        # the chain used to be a list of L states, folded link by link
        n = str(10 ** 12)
        code = cli.main(["repeater", "--scheme", scheme, "--N", n, "--L", n])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (3, "", f"infeasible: level 1: {cause}\n")

    def test_chain_at_the_largest_float_length_is_checked(self):
        length = int(sys.float_info.max)
        assert maps.chain_coeffs((0.96, 0.02, 0.01, 0.01), length, NOISE) == (0.25,) * 4
        perfect = maps.chain_coeffs((1.0, 0.0, 0.0, 0.0), length, NoiseParams())
        assert perfect == (1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("length", [4, 2 ** 53, 2 ** 53 + 1, 2 ** 53 + 2, 2 ** 53 + 3,
                                        2 ** 60, 2 ** 60 + 1])
    def test_chain_keeps_the_parity_of_its_length(self, length):
        # psi- has characters (-1, -1, 1): under perfect links a chain of an even number of
        # them is phi+ and an odd number psi-, also where length - 1 is no float
        want = (0.0, 0.0, 0.0, 1.0) if length % 2 else (1.0, 0.0, 0.0, 0.0)
        assert maps.chain_coeffs((0.0, 0.0, 0.0, 1.0), length, NoiseParams()) == want


def test_optimization_and_fixed_points_build_no_state_objects(monkeypatch):
    # one object per purify step would give thousands here
    built = []

    def counting(cls):
        original = cls.__init__

        def init(self, *args):
            built.append(cls.__name__)
            original(self, *args)
        return init

    for cls in (BellDiagonalState, WernerState):
        monkeypatch.setattr(cls, "__init__", counting(cls))
    WernerState(0.9).to_bell_diagonal()
    assert built == ["WernerState", "BellDiagonalState"]  # the counters are live
    built.clear()
    for protocol in ("bennett", "deutsch"):
        optimize_working_fidelity(2, NOISE, protocol, GRID, n_levels=10)
    maps.fixed_points(maps.deutsch_werner_map(NOISE))
    maps.fixed_points(maps.bennett_map(NOISE))
    assert built == []


def test_optimization_checks_its_arguments_once(monkeypatch):
    # it used to build and check one ProtocolConfig, with its default TimingModel, per point
    built = []
    for cls in (ProtocolConfig, TimingModel):
        def init(self, *args, _original=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _original(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", init)
    make_config()
    assert built == ["ProtocolConfig", "TimingModel"]  # the counters are live
    built.clear()
    optimize_working_fidelity(2, NOISE, "deutsch", GRID, n_levels=10)
    assert built.count("ProtocolConfig") <= 1
    assert built.count("TimingModel") <= 1


class TestTiming:
    def test_perfect_protocol_time_is_connection_rounds_only(self):
        config = make_config(scheme="A", n_segments=8, f_init=1.0, f_work=1.0,
                             noise=NoiseParams())
        report = simulate(config)
        timing = config.timing
        expected = timing.tau_pair + sum(
            timing.tau_op + timing.comm_time(2 ** k) for k in (1, 2, 3))
        assert report.total_time == pytest.approx(expected)
        assert all(level.steps == 0 for level in report.levels)

    def test_compute_time_accounting(self):
        # parallel copies: one connection round plus one round per step
        report = simulate(make_config(n_segments=4))
        m1, m2 = (level.steps for level in report.levels)
        assert m1 > 0 and m2 > 0
        timing = report.timing
        expected = (timing.tau_pair
                    + (1 + m1) * (timing.tau_op + timing.comm_time(2))
                    + (1 + m2) * (timing.tau_op + timing.comm_time(4)))
        assert report.total_time == pytest.approx(expected, rel=1e-15)

    def test_compute_time_aux_accounting(self):
        # scheme C: every pumping step re-creates its pair through the lower levels
        report = simulate(make_config(scheme="C", n_segments=4, f_init=0.97))
        m1, m2 = (level.steps for level in report.levels)
        assert m1 > 0 and m2 > 0
        timing = report.timing
        round1 = timing.tau_op + timing.comm_time(2)
        round2 = timing.tau_op + timing.comm_time(4)
        t_pair1 = timing.tau_pair + round1
        t_level1 = t_pair1 + m1 * (t_pair1 + round1)
        t_pair2 = t_level1 + round2
        t_level2 = t_pair2 + m2 * (t_pair2 + round2)
        assert report.total_time == pytest.approx(t_level2, rel=1e-15)


class TestSchemeC:
    def test_perfect_everything_single_creation_per_level(self):
        config = make_config(scheme="C", n_segments=16, f_init=1.0, f_work=1.0,
                             noise=NoiseParams())
        report = simulate(config)
        assert all(level.steps == 0 for level in report.levels)
        assert report.particles_per_node == config.n_levels + 1

    def test_deutsch_variant_holds_condition_at_every_level(self):
        config = make_config(scheme="C", n_segments=256, f_init=0.97, f_work=0.96)
        report = simulate(config)
        assert report.final_fidelity >= 0.96
        assert report.particles_per_node == 9
        for level in report.levels:
            assert level.fidelity_achieved >= 0.96

    def test_bennett_variant_fails_condition(self):
        config = make_config(scheme="C", n_segments=256, f_init=0.97, f_work=0.96)
        with pytest.raises(AuxPurificationError) as excinfo:
            simulate(config, protocol="bennett")
        assert excinfo.value.level == 1

    @pytest.mark.parametrize("protocol", ["magic", None])
    def test_unknown_protocol_rejected(self, protocol):
        # None used to run the default, "deutsch"
        with pytest.raises(ValidationError, match="protocol"):
            simulate(make_config(scheme="C", f_init=0.97), protocol=protocol)

    def test_pumping_ceiling_below_marginal_target(self):
        # with elementary pairs exactly at the working fidelity the pumping
        # attractor sits just below 0.96, so the run must be rejected
        config = make_config(scheme="C", n_segments=16, f_init=0.96, f_work=0.96)
        with pytest.raises(AuxPurificationError, match="^level 1: ") as excinfo:
            simulate(config)
        stalled = float(re.search(r"stalls at fidelity ([0-9.]+)", str(excinfo.value))[1])
        assert 0.955 < stalled < 0.96

    def test_resources_grow_linearly_in_levels(self):
        particles = []
        for n in (3, 5, 7):
            config = make_config(scheme="C", n_segments=2 ** n, f_init=0.97,
                                 f_work=0.96)
            particles.append(simulate(config).particles_per_node)
        assert particles == [4, 6, 8]

    def test_time_grows_polynomially_in_segments(self):
        times = []
        for n in (4, 6, 8, 10):
            config = make_config(scheme="C", n_segments=2 ** n, f_init=0.97,
                                 f_work=0.96)
            times.append(simulate(config).total_time)
        exponents = [math.log(t2 / t1) / math.log(4.0)
                     for t1, t2 in zip(times, times[1:])]
        assert max(exponents) < 2.0
        assert max(exponents) - min(exponents) < 0.5


class TestOptimize:
    def test_perfect_noise_minimum_is_one_at_unity(self):
        grid = [0.9, 0.95, 1.0]
        result = optimize_working_fidelity(2, NoiseParams(), "bennett", grid,
                                           n_levels=4)
        assert result.f_opt == 1.0
        assert result.m_min == pytest.approx(1.0)

    def test_curve_skips_infeasible_points(self):
        noise = NoiseParams(1.0, 0.97, 1.0)  # attractor near 0.915
        grid = [0.7, 0.85, 0.98]
        result = optimize_working_fidelity(2, noise, "bennett", grid, n_levels=4)
        assert 0.98 in result.infeasible
        assert all(f != 0.98 for f, _ in result.curve)

    def test_entire_grid_infeasible_raises(self):
        noise = NoiseParams(1.0, 0.9, 1.0)
        with pytest.raises(InfeasibleError):
            optimize_working_fidelity(2, noise, "bennett", [0.9, 0.95], n_levels=4)

    def test_unknown_protocol_rejected(self):
        # it used to run scheme B
        with pytest.raises(ValidationError, match="^unknown purification protocol 'rotation'$"):
            optimize_working_fidelity(2, NOISE, "rotation", [0.95], n_levels=4)

    @pytest.mark.parametrize("grid", [[], (), iter(())], ids=["list", "tuple", "iterator"])
    def test_empty_grid_rejected(self, grid):
        with pytest.raises(ValidationError, match="grid f_grid is empty"):
            optimize_working_fidelity(2, NOISE, "deutsch", grid, n_levels=4)

    @pytest.mark.parametrize("length, noise, protocol, message", [
        (1, NoiseParams(), "deutsch", "branching factor must be >= 2, got 1"),
        (2, None, "deutsch", "noise must be a NoiseParams, got None"),
        (2, NoiseParams(), "rotation", "unknown purification protocol 'rotation'"),
    ], ids=["length", "noise", "protocol"])
    @pytest.mark.parametrize("grid", [[], [0.2]], ids=["empty", "bad-value"])
    def test_bad_arguments_are_named_before_the_grid(self, length, noise, protocol, message,
                                                     grid):
        # an empty grid used to hide them all behind "the working-fidelity grid f_grid is
        # empty", and a bad first value the noise and protocol errors behind its own
        with pytest.raises(ValidationError) as excinfo:
            optimize_working_fidelity(length, noise, protocol, grid, n_levels=4)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("value, message", [
        (0.2, "f_work must lie in [0.25, 1], got 0.2"),
        (math.nan, "f_work must lie in [0.25, 1], got nan"),
        (True, "f_work must be a real number, got True"),
        ("0.9", "f_work must be a real number, got '0.9'"),
    ], ids=["below", "nan", "bool", "str"])
    def test_bad_grid_value_keeps_its_message(self, value, message):
        with pytest.raises(ValidationError) as excinfo:
            optimize_working_fidelity(2, NOISE, "deutsch", [0.95, value], n_levels=4)
        assert str(excinfo.value) == message

    def test_average_pairs_matches_report(self):
        # the sweep runs the level loop without building reports: every point must be
        # the report's value exactly, and every skipped point one that simulate rejects
        for protocol, scheme in (("bennett", "A"), ("deutsch", "B")):
            for q in (0.995, 0.99, 0.97):
                noise = NoiseParams.uniform(q)
                curve, infeasible = [], []
                for f in GRID:
                    config = make_config(scheme=scheme, n_segments=2 ** 10, f_init=f,
                                         f_work=f, noise=noise)
                    try:
                        report = simulate(config, protocol)
                    except InfeasibleError:
                        infeasible.append(f)
                        continue
                    curve.append((f, report.parallel_resources ** (1 / 10)))
                if not curve:  # the twirl-based protocol at 3 %
                    with pytest.raises(InfeasibleError, match="^no feasible working"):
                        optimize_working_fidelity(2, noise, protocol, GRID, n_levels=10)
                    continue
                result = optimize_working_fidelity(2, noise, protocol, GRID, n_levels=10)
                assert result.curve == tuple(curve)
                assert result.infeasible == tuple(infeasible)

    def test_totals_overflow_names_its_level_as_simulate_does(self):
        # an overflowing total is an infeasible level, so the sweep skips its point
        config = make_config(n_segments=2 ** 1000, f_init=0.9, f_work=0.9)
        with pytest.raises(InfeasibleError) as from_simulate:
            simulate(config, "deutsch")
        with pytest.raises(InfeasibleError) as from_sweep:
            optimize_working_fidelity(2, NOISE, "deutsch", [0.9], n_levels=1000)
        match = re.fullmatch(r"level (\d+): elementary_pairs exceeds float range",
                             str(from_simulate.value))
        assert match and from_simulate.value.level == int(match.group(1))
        assert str(from_sweep.value) == "no feasible working fidelity on the grid [0.9, 0.9]"

    @pytest.mark.parametrize("n_levels, message", [
        (True, "n_levels must be an int, got True"),
        (1.0, "n_levels must be an int, got 1.0"),
        (0, "n_levels must be >= 1, got 0"),
        (-1, "n_levels must be >= 1, got -1"),
        # rejected by logarithm, before 2 ** n_levels is formed
        (10 ** 6, "length ** n_levels (2 ** 1000000) exceeds float range"),
        # 1024 * log(2) rounds to log(float max), so only the exact test sees 2 ** 1024
        (1024, "segment count N exceeds float range (at most 1.79769e+308)"),
    ], ids=["bool", "float", "zero", "negative", "beyond-float-range", "at-float-max"])
    def test_level_count_rejected(self, n_levels, message):
        with pytest.raises(ValidationError) as excinfo:
            optimize_working_fidelity(2, NOISE, "deutsch", [0.95], n_levels=n_levels)
        assert str(excinfo.value) == message


def test_analytic_layers_load_without_numpy_or_oracle():
    # the closed forms and the engine stay importable without the dense oracle, and,
    # with site and its .pth files off (-S), without typing
    src = str(pathlib.Path(qrepeater.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import qrepeater.engine, qrepeater.maps; "
            "print(sorted({'numpy', 'qrepeater.oracle', 'typing'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                            check=True)
    assert result.stdout == "[]\n"
