import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrepeater import maps
from qrepeater import oracle as orc
from qrepeater.engine import ProtocolConfig, simulate
from qrepeater.errors import (
    BelowThresholdError,
    DegeneratePostSelectionError,
    NumericError,
    PurificationImpossibleError,
    ValidationError,
    WorkingFidelityUnreachableError,
)
from qrepeater.states import BellDiagonalState, NoiseParams, WernerState

PERFECT = NoiseParams()


def bell_states(min_weight=0.0):
    """Random Bell-diagonal states: four weights normalized to unit sum."""
    weights = st.lists(st.floats(min_weight, 1.0), min_size=4, max_size=4)
    return weights.filter(lambda w: sum(w) > 0.0).map(
        lambda w: BellDiagonalState(tuple(x / sum(w) for x in w)))


noise_params = st.builds(NoiseParams, st.floats(0.5, 1.0), st.floats(0.5, 1.0),
                         st.floats(0.5, 1.0))


def eq_modified_bennett(f, eta, p2):
    """The published closed form, transcribed literally, as an independent check."""
    x = (1.0 - f) / 3.0
    alpha = eta ** 2 + (1 - eta) ** 2
    beta = 2 * eta * (1 - eta)
    extra = (1 - p2 ** 2) / (8 * p2 ** 2)
    num = (f * f + x * x) * alpha + (f * x + x * x) * beta + extra
    den = ((f * f + (2 / 3) * f * (1 - f) + (5 / 9) * (1 - f) ** 2) * alpha
           + (f * x + x * x) * 4 * beta + 4 * extra)
    return num / den, den


class TestConnectL:
    def test_length_one_is_identity_exactly(self):
        for f in (0.25, 0.3123, 0.5, 0.77, 1.0):
            for noise in (PERFECT, NoiseParams(0.9, 0.9, 0.9)):
                assert maps.connect_L(f, 1, noise) == f

    def test_perfect_everything(self):
        assert maps.connect_L(1.0, 5, PERFECT) == pytest.approx(1.0, abs=1e-15)

    def test_pinned_value(self):
        # frozen 64-bit value, cross-checked against the density-matrix oracle
        noise = NoiseParams.uniform(0.995)
        assert maps.connect_L(0.95, 2, noise) == pytest.approx(0.8882136761, abs=1e-10)

    def test_composition_matches_pairwise(self):
        # the Werner-restricted closed form composes: t parameters multiply
        noise = NoiseParams.uniform(0.99)
        f4 = maps.connect_L(0.93, 4, noise)
        f2 = maps.connect_L(0.93, 2, noise)
        werner_f2 = maps.connect_L(f2, 2, noise)
        # twirled pairwise composition reproduces the L=4 formula
        assert werner_f2 == pytest.approx(f4, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            maps.connect_L(0.9, 0, PERFECT)
        with pytest.raises(ValidationError):
            maps.connect_L(0.1, 2, PERFECT)

    @given(st.floats(0.2501, 1.0), st.integers(2, 6))
    @settings(max_examples=60)
    def test_below_diagonal_with_imperfect_noise(self, f, length):
        noise = NoiseParams(0.999, 0.995, 0.995)
        assert maps.connect_L(f, length, noise) < f

    @given(st.floats(0.26, 0.99), st.floats(0.27, 1.0))
    @settings(max_examples=60)
    def test_strictly_increasing_in_fidelity(self, f1, f2):
        if abs(f1 - f2) < 1e-9:
            return
        lo, hi = sorted((f1, f2))
        noise = NoiseParams.uniform(0.99)
        assert maps.connect_L(lo, 3, noise) < maps.connect_L(hi, 3, noise)

    def test_decreasing_in_length(self):
        noise = NoiseParams.uniform(0.995)
        values = [maps.connect_L(0.95, length, noise) for length in range(1, 7)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestOracleEquivalence:
    def test_purify_deutsch_matches_oracle(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(12):
            v1, v2 = rng.random(4), rng.random(4)
            s1 = BellDiagonalState(tuple(v1 / v1.sum()))
            s2 = BellDiagonalState(tuple(v2 / v2.sum()))
            for p2 in (1.0, 0.995, 0.97):
                for eta in (1.0, 0.995, 0.97):
                    noise = NoiseParams(1.0, p2, eta)
                    p_succ, out = orc.oracle_purify(s1, s2, noise, "deutsch")
                    ref, out_cf = maps.purify_with_aux(s1, s2, noise, "deutsch")
                    worst = max(worst, abs(p_succ - ref.p_succ))
                    worst = max(worst, max(
                        abs(a - b) for a, b in zip(out.coeffs, out_cf.coeffs)))
        assert worst <= 1e-12

    def test_connect_states_matches_untwirled_oracle(self):
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(8):
            v1, v2 = rng.random(4), rng.random(4)
            s1 = BellDiagonalState(tuple(v1 / v1.sum()))
            s2 = BellDiagonalState(tuple(v2 / v2.sum()))
            for noise in (PERFECT, NoiseParams(0.99, 0.97, 0.995), NoiseParams(0.97, 1.0, 0.97)):
                got = orc.oracle_connect(s1, s2, noise, twirl_output=False)
                want = maps.connect_states(s1, s2, noise)
                worst = max(worst, max(
                    abs(a - b) for a, b in zip(got.coeffs, want.coeffs)))
        assert worst <= 1e-12

    @given(bell_states(), bell_states(), noise_params)
    @settings(max_examples=50, deadline=None)
    def test_connect_states_matches_untwirled_oracle_on_random_inputs(self, s1, s2, noise):
        got = orc.oracle_connect(s1, s2, noise, twirl_output=False)
        want = maps.connect_states(s1, s2, noise)
        assert max(abs(a - b) for a, b in zip(got.coeffs, want.coeffs)) <= 1e-12

    # weights of at least 0.01 keep p_succ away from zero, where the kept
    # state's round-off grows like 1/p_succ
    @given(bell_states(0.01), bell_states(0.01), noise_params)
    @settings(max_examples=50, deadline=None)
    def test_purify_with_aux_matches_oracle_on_random_inputs(self, target, aux, noise):
        for protocol in ("bennett", "deutsch"):
            p_succ, kept = orc.oracle_purify(target, aux, noise, protocol)
            outcome, closed = maps.purify_with_aux(target, aux, noise, protocol)
            assert abs(p_succ - outcome.p_succ) <= 1e-12
            assert max(abs(a - b) for a, b in zip(kept.coeffs, closed.coeffs)) <= 1e-12


class TestPurifyBennett:
    def test_matches_published_closed_form(self):
        for f in (0.55, 0.75, 0.9, 0.99):
            for p2 in (1.0, 0.995, 0.97):
                for eta in (1.0, 0.995, 0.97):
                    noise = NoiseParams(1.0, p2, eta)
                    res = maps.purify_bennett(f, noise)
                    f_ref, den = eq_modified_bennett(f, eta, p2)
                    assert res.out_fidelity == pytest.approx(f_ref, abs=1e-13)
                    # physical branch probability carries the gate factor
                    assert res.p_succ == pytest.approx(p2 ** 2 * den, abs=1e-13)

    def test_noiseless_reduction_on_fine_grid(self):
        for f in np.linspace(0.25, 1.0, 100):
            got = maps.purify_bennett(float(f), PERFECT)
            assert abs(got.out_fidelity - maps.eq_noiseless_bennett(float(f))) <= 1e-14

    def test_noiseless_fixed_points_by_direct_evaluation(self):
        assert maps.purify_bennett(0.5, PERFECT).out_fidelity == pytest.approx(0.5, abs=1e-15)
        res = maps.purify_bennett(1.0, PERFECT)
        assert res.out_fidelity == pytest.approx(1.0, abs=1e-15)
        assert res.p_succ == pytest.approx(1.0, abs=1e-15)

    def test_pinned_noisy_value(self):
        # frozen from the closed form; the oracle grid test covers agreement
        res = maps.purify_bennett(0.9, NoiseParams(1.0, 0.995, 0.995))
        assert res.out_fidelity == pytest.approx(0.921534013582337, abs=1e-14)
        assert res.p_succ == pytest.approx(0.86441038205, abs=1e-14)


class TestPurifyDeutsch:
    def test_perfect_pairs(self):
        perfect = BellDiagonalState((1.0, 0.0, 0.0, 0.0))
        outcome, out = maps.purify_with_aux(perfect, perfect, PERFECT, "deutsch")
        assert out.coeffs == (1.0, 0.0, 0.0, 0.0)
        assert outcome.p_succ == pytest.approx(1.0, abs=1e-15)

    def test_noiseless_werner_recursion_exact(self):
        # Werner 0.8 gives the rational image (145, 24, 2, 2)/173, p = 173/225
        state = WernerState(0.8).to_bell_diagonal()
        outcome, out = maps.purify_with_aux(state, state, PERFECT, "deutsch")
        assert out.coeffs[0] == pytest.approx(145 / 173, abs=1e-14)
        assert out.coeffs[1] == pytest.approx(24 / 173, abs=1e-14)
        assert out.coeffs[2] == pytest.approx(2 / 173, abs=1e-14)
        assert out.coeffs[3] == pytest.approx(2 / 173, abs=1e-14)
        assert outcome.p_succ == pytest.approx(173 / 225, abs=1e-14)

    def test_faster_than_bennett_under_noise(self):
        noise = NoiseParams.uniform(0.995)
        state = WernerState(0.9).to_bell_diagonal()
        _, out1 = maps.purify_with_aux(state, state, noise, "deutsch")
        outcome2, _ = maps.purify_with_aux(out1, out1, noise, "deutsch")
        f_b = maps.purify_bennett(0.9, noise).out_fidelity
        f_b2 = maps.purify_bennett(f_b, noise).out_fidelity
        assert outcome2.out_fidelity > f_b2


class TestPurifyWithAux:
    def test_aux_equals_target_reduces_to_symmetric(self):
        # the first pumping step sacrifices the connected pair itself, as a parallel step does
        noise = NoiseParams.uniform(0.99)
        parallel = one_level_run("B", 0.92, 2, noise, f_init=0.97)
        pumped = one_level_run("C", 0.92, 2, noise, f_init=0.97)
        assert parallel.steps == pumped.steps == 1
        assert parallel.p_succ == pumped.p_succ
        assert parallel.fidelity_achieved == pumped.fidelity_achieved
        assert parallel.avg_pairs == 2.0 / parallel.p_succ[0]
        assert pumped.avg_pairs == 2.0

    def test_perfect_aux_never_reduces_werner_fidelity(self):
        perfect = BellDiagonalState((1.0, 0.0, 0.0, 0.0))
        for f in (0.3, 0.5, 0.8, 0.95):
            target = WernerState(f).to_bell_diagonal()
            outcome, _ = maps.purify_with_aux(target, perfect, PERFECT, "deutsch")
            assert outcome.out_fidelity >= f - 1e-12

    def test_iterated_aux_purification_converges_above_target(self):
        noise = NoiseParams.uniform(0.995)
        pi0 = maps.connect_L(0.96, 2, noise)
        aux = WernerState(pi0).to_bell_diagonal()
        stored = aux
        previous = 0.0
        for _ in range(60):
            outcome, stored = maps.purify_with_aux(stored, aux, noise, "deutsch")
            if stored.fidelity <= previous + 1e-13:
                break
            previous = stored.fidelity
        assert stored.fidelity > 0.955
        assert stored.fidelity > pi0


#: The four Bell states in the package ordering.
BELL = dict(zip(("phi+", "phi-", "psi+", "psi-"),
                ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                 (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))))

#: (protocol, kept, sacrificed, whether no reading coincides with perfect operations)
POST_SELECTION_CASES = [("bennett", kept, aux, True)
                        for kept in ("phi+", "phi-") for aux in ("psi+", "psi-")] + [
    ("deutsch", "phi+", "psi+", True),
    ("deutsch", "phi-", "psi-", True),
    ("deutsch", "phi+", "psi-", False),
    ("deutsch", "phi-", "psi+", False),
]


@pytest.mark.parametrize("protocol, kept, aux, degenerate", POST_SELECTION_CASES)
def test_vanishing_post_selection_agrees_with_oracle(protocol, kept, aux, degenerate):
    kept, aux = BellDiagonalState(BELL[kept]), BellDiagonalState(BELL[aux])
    if degenerate:
        with pytest.raises(DegeneratePostSelectionError):
            maps.purify_with_aux(kept, aux, PERFECT, protocol)
        with pytest.raises(DegeneratePostSelectionError):
            orc.oracle_purify(kept, aux, PERFECT, protocol)
    else:
        outcome, out = maps.purify_with_aux(kept, aux, PERFECT, protocol)
        p_succ, want = orc.oracle_purify(kept, aux, PERFECT, protocol)
        assert abs(outcome.p_succ - p_succ) <= 1e-12
        assert max(abs(a - b) for a, b in zip(out.coeffs, want.coeffs)) <= 1e-12


@pytest.mark.parametrize("call, error, message", [
    (lambda: maps.chain_coeffs([], PERFECT), ValidationError, "^cannot connect an empty chain$"),
    (lambda: maps.purify_coeffs(BELL["phi+"], BELL["phi+"], PERFECT, "rotation"),
     ValidationError, "^unknown purification protocol 'rotation'$"),
    # 9 sign changes of map(F) - F on the scan grid
    (lambda: maps.fixed_points(lambda f: f + 0.01 * math.sin(40 * f)),
     NumericError, "^expected two diagonal crossings, found 9: "),
    (lambda: orc.apply_noisy_gate(np.eye(3, dtype=complex) / 3, orc.X, (0,), 1.0),
     ValidationError, r"^density matrix shape \(3, 3\) is not a power of two$"),
    (lambda: orc.bell_coefficients(np.eye(8, dtype=complex) / 8),
     ValidationError, r"^expected a 4x4 matrix, got \(8, 8\)$"),
], ids=["empty-chain", "unknown-protocol", "odd-map", "oracle-non-power-of-two",
        "oracle-not-4x4"])
def test_kernels_reject_invalid_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestFixedPoints:
    def test_noiseless_bennett(self):
        points = maps.fixed_points(maps.bennett_map(PERFECT))
        assert points.f_min == pytest.approx(0.5, abs=1e-10)
        assert points.f_max == pytest.approx(1.0, abs=1e-10)

    def test_imperfect_gate_regime(self):
        points = maps.fixed_points(maps.bennett_map(NoiseParams(1.0, 0.97, 1.0)))
        assert 0.5 < points.f_min < points.f_max < 1.0
        assert points.f_min == pytest.approx(0.5851724025220608, abs=1e-9)
        assert points.f_max == pytest.approx(0.9148275974779392, abs=1e-9)

    def test_fixed_points_satisfy_map(self):
        fmap = maps.bennett_map(NoiseParams(1.0, 0.98, 0.99))
        points = maps.fixed_points(fmap)
        assert fmap(points.f_min) == pytest.approx(points.f_min, abs=1e-9)
        assert fmap(points.f_max) == pytest.approx(points.f_max, abs=1e-9)

    def test_purification_impossible_at_low_gate_quality(self):
        # the map loses both diagonal crossings a little below p2 = 0.95
        with pytest.raises(PurificationImpossibleError):
            maps.fixed_points(maps.bennett_map(NoiseParams(1.0, 0.9, 1.0)))

    def test_threshold_scan_brackets_the_loss(self):
        feasible = []
        p2 = 0.97
        while p2 > 0.90:
            try:
                maps.fixed_points(maps.bennett_map(NoiseParams(1.0, p2, 1.0)))
                feasible.append(p2)
            except PurificationImpossibleError:
                break
            p2 = round(p2 - 0.005, 3)
        assert feasible and min(feasible) == pytest.approx(0.95, abs=1e-9)


def one_level_run(scheme, working_fidelity, length, noise, f_init=None):
    """Connect ``length`` pairs at ``f_init`` and purify back up to the working fidelity."""
    f_init = working_fidelity if f_init is None else f_init
    return simulate(ProtocolConfig(n_segments=length, length=length, scheme=scheme,
                                   f_init=f_init, f_work=working_fidelity,
                                   noise=noise)).levels[0]


def purify_steps(scheme, working_fidelity, noise):
    """The states after each purification step of a two-pair, one-level run, stepped directly."""
    werner = WernerState(working_fidelity).to_bell_diagonal()
    if scheme == "A":
        connected = maps.connect_L(working_fidelity, 2, noise)
        state = WernerState(connected).to_bell_diagonal()
    else:
        state = maps.connect_states(werner, werner, noise)
    protocol = "bennett" if scheme == "A" else "deutsch"
    states, p_succ = [], []
    while state.fidelity < working_fidelity and len(states) < 100:
        outcome, state = maps.purify_with_aux(state, state, noise, protocol)
        if scheme == "A":
            state = WernerState(outcome.out_fidelity).to_bell_diagonal()
        states.append(state)
        p_succ.append(outcome.p_succ)
    return states, tuple(p_succ)


class TestStaircase:
    def test_perfect_noise_at_unity_needs_no_steps(self):
        for scheme in ("A", "B"):
            level = one_level_run(scheme, 1.0, 2, PERFECT)
            assert level.steps == 0
            assert level.avg_pairs == 1.0
            assert level.fidelity_achieved == 1.0

    @pytest.mark.parametrize("protocol", ["bennett", "deutsch"])
    def test_fidelities_strictly_increase(self, protocol):
        noise = NoiseParams.uniform(0.995)
        # the twirl-based protocol runs as in scheme A, re-depolarizing every step
        scheme = "A" if protocol == "bennett" else "B"
        states, p_succ = purify_steps(scheme, 0.94, noise)
        fids = [state.fidelity for state in states]
        assert len(fids) >= 2
        assert all(a < b for a, b in zip(fids, fids[1:]))
        # the level loop takes the same steps
        level = one_level_run(scheme, 0.94, 2, noise)
        assert level.p_succ == p_succ
        assert level.fidelity_achieved == fids[-1] >= 0.94

    def test_avg_pairs_bounded_by_two_to_steps(self):
        noise = NoiseParams.uniform(0.995)
        for scheme in ("A", "B"):
            for f_work in (0.9, 0.94, 0.96):
                level = one_level_run(scheme, f_work, 2, noise)
                assert level.avg_pairs >= 2 ** level.steps

    def test_below_threshold_error(self):
        # p2 = 0.96 keeps fixed points but a long chain drops below f_min
        noise = NoiseParams(1.0, 0.96, 1.0)
        with pytest.raises(BelowThresholdError, match="^level 1: "):
            one_level_run("A", 0.85, 16, noise)

    def test_unreachable_working_fidelity(self):
        noise = NoiseParams(1.0, 0.97, 1.0)  # attractor near 0.915
        with pytest.raises(WorkingFidelityUnreachableError, match="^level 1: "):
            one_level_run("A", 0.95, 2, noise)

    def test_deutsch_staircase_carries_state(self):
        noise = NoiseParams.uniform(0.995)
        states, _ = purify_steps("B", 0.96, noise)
        # non-Werner output: phase-flip coefficient dominates the tail
        assert states[-1].coeffs[1] > states[-1].coeffs[2]
        assert len(states) == one_level_run("B", 0.96, 2, noise).steps == 2


def assert_valid_state(state):
    assert all(0.0 <= c <= 1.0 for c in state.coeffs)
    assert abs(sum(state.coeffs) - 1.0) <= 1e-12


def _purify_inline(kept, meas, noise, protocol):
    """``purify_coeffs`` as it was written before NoiseParams held its constants."""
    if protocol == "bennett":
        a, b, c, d = kept
        a2, b2, c2, d2 = meas
    else:
        a, d, c, b = kept
        a2, d2, c2, b2 = meas
    eta = noise.eta
    alpha = eta * eta + (1.0 - eta) ** 2
    beta = 2.0 * eta * (1.0 - eta)
    gates_ok = noise.p2 ** 2
    floor = (1.0 - gates_ok) / 8.0
    u_a = gates_ok * (a * (alpha * a2 + beta * c2) + b * (alpha * b2 + beta * d2)) + floor
    u_b = gates_ok * (alpha * (a * b2 + b * a2) + beta * (a * d2 + b * c2)) + floor
    u_c = gates_ok * (c * (alpha * c2 + beta * a2) + d * (alpha * d2 + beta * b2)) + floor
    u_d = gates_ok * (alpha * (c * d2 + d * c2) + beta * (c * b2 + d * a2)) + floor
    p_succ = u_a + u_b + u_c + u_d
    return p_succ, (u_a / p_succ, u_b / p_succ, u_c / p_succ, u_d / p_succ)


def _connect_inline(ab, bc, noise):
    """``connect_coeffs`` as it was written before NoiseParams held its constants."""
    eta = noise.eta
    kernel = (eta * eta, eta * (1.0 - eta), eta * (1.0 - eta), (1.0 - eta) ** 2)
    ideal_weight = noise.p1 * noise.p2
    mixed = (1.0 - ideal_weight) / 4.0
    conv = maps._convolve(maps._convolve(ab, bc), kernel)
    return tuple(ideal_weight * c + mixed for c in conv)


class TestMapProperties:
    @given(bell_states(0.01), bell_states(0.01), noise_params,
           st.sampled_from(["bennett", "deutsch"]))
    def test_kernels_on_derived_constants_are_bit_identical(self, s1, s2, noise, protocol):
        assert (maps.purify_coeffs(s1.coeffs, s2.coeffs, noise, protocol)
                == _purify_inline(s1.coeffs, s2.coeffs, noise, protocol))
        assert maps.connect_coeffs(s1.coeffs, s2.coeffs, noise) == _connect_inline(
            s1.coeffs, s2.coeffs, noise)

    @given(bell_states(), bell_states(), noise_params)
    def test_connect_states_returns_valid_state(self, s1, s2, noise):
        assert_valid_state(maps.connect_states(s1, s2, noise))

    # weights of at least 0.01 keep p_succ away from zero, as in the oracle tests
    @given(bell_states(0.01), bell_states(0.01), noise_params,
           st.sampled_from(["bennett", "deutsch"]))
    def test_purify_with_aux_returns_valid_state(self, target, aux, noise, protocol):
        outcome, out = maps.purify_with_aux(target, aux, noise, protocol)
        assert_valid_state(out)
        assert outcome.out_fidelity == out.fidelity
        assert 0.0 < outcome.p_succ <= 1.0

    @given(st.floats(0.25, 1.0), noise_params)
    def test_purify_bennett_returns_valid_outcome(self, fidelity, noise):
        outcome = maps.purify_bennett(fidelity, noise)
        assert 0.0 <= outcome.out_fidelity <= 1.0
        assert 0.0 < outcome.p_succ <= 1.0

    @given(st.floats(0.25, 1.0), noise_params)
    def test_rotation_step_on_werner_pairs_is_the_twirl_step(self, fidelity, noise):
        # the rotation swaps two equal Werner coefficients: same arithmetic, same bits
        werner = WernerState(fidelity).to_bell_diagonal()
        rotated, _ = maps.purify_with_aux(werner, werner, noise, "deutsch")
        twirled = maps.purify_bennett(fidelity, noise)
        assert rotated.out_fidelity == twirled.out_fidelity
        assert rotated.p_succ == twirled.p_succ
        assert maps.deutsch_werner_map(noise)(fidelity) == maps.bennett_map(noise)(fidelity)

    @given(bell_states(), bell_states(), noise_params)
    def test_connect_states_commutes(self, s1, s2, noise):
        forward = maps.connect_states(s1, s2, noise).coeffs
        backward = maps.connect_states(s2, s1, noise).coeffs
        assert max(abs(a - b) for a, b in zip(forward, backward)) <= 1e-15

    @given(bell_states(), bell_states(), bell_states(), noise_params)
    def test_connect_chain_associates(self, s1, s2, s3, noise):
        left = maps.chain_coeffs([s1.coeffs, s2.coeffs, s3.coeffs], noise)
        right = maps.connect_states(s1, maps.connect_states(s2, s3, noise), noise).coeffs
        assert max(abs(a - b) for a, b in zip(left, right)) <= 1e-15
