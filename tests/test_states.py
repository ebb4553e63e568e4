import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrepeater.errors import ValidationError
from qrepeater.states import (
    COEFF_ATOL,
    BellDiagonalState,
    WernerState,
    checked_coeffs,
    werner_coeffs,
)


@pytest.mark.parametrize("fidelity, rest", [(1.0, 0.0), (0.25, 0.25), (0.9, (1 - 0.9) / 3)],
                         ids=["pure", "maximally_mixed", "generic"])
def test_werner_state_coefficients(fidelity, rest):
    coeffs = WernerState(fidelity).to_bell_diagonal().coeffs
    assert coeffs == (fidelity, rest, rest, rest)
    assert sum(coeffs) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [0.2, -1.0, 1.0001, 2.0])
def test_werner_fidelity_domain(bad):
    with pytest.raises(ValidationError):
        WernerState(bad)


def test_werner_state_keeps_a_bell_diagonal_fidelity():
    assert WernerState(BellDiagonalState((1.0, 0.0, 0.0, 0.0)).fidelity).fidelity == 1.0
    assert WernerState(BellDiagonalState((0.7, 0.3, 0.0, 0.0)).fidelity).fidelity == 0.7
    assert WernerState(BellDiagonalState((0.25, 0.25, 0.25, 0.25)).fidelity).fidelity == 0.25


def test_bell_diagonal_fidelity_is_the_target_coefficient():
    assert BellDiagonalState((1.0, 0.0, 0.0, 0.0)).fidelity == 1.0
    assert BellDiagonalState((0.6, 0.2, 0.1, 0.1)).fidelity == 0.6


def test_werner_round_trip_keeps_the_fidelity():
    for f in (0.25, 0.3, 0.5, 0.77, 0.9, 1.0):
        state = WernerState(f).to_bell_diagonal()
        assert WernerState(state.fidelity).fidelity == state.fidelity == state.coeffs[0]


def test_negative_roundoff_is_clamped_and_renormalized():
    state = BellDiagonalState((1.0, -1e-13, 0.0, 0.0))
    assert state.coeffs[1] == 0.0
    assert sum(state.coeffs) == pytest.approx(1.0, abs=1e-12)


def test_negative_beyond_tolerance_rejected():
    with pytest.raises(ValidationError):
        BellDiagonalState((1.0, -1e-9, 0.0, 0.0))


def test_unnormalized_rejected():
    with pytest.raises(ValidationError):
        BellDiagonalState((0.5, 0.5, 0.5, 0.5))


@pytest.mark.parametrize("position", range(4))
def test_nan_coefficient_rejected(position):
    # a NaN sum compares false against the tolerance, so the check must reject, not accept
    coeffs = [1.0, 0.0, 0.0, 0.0]
    coeffs[position] = float("nan")
    with pytest.raises(ValidationError, match="must sum to 1"):
        BellDiagonalState(tuple(coeffs))


def test_nan_before_a_negative_still_names_the_negative():
    with pytest.raises(ValidationError, match="negative beyond tolerance"):
        BellDiagonalState((float("nan"), -0.5, 0.75, 0.75))


@st.composite
def bell_states(draw):
    # keep the target coefficient in the Werner domain so depolarizing stays defined
    target = draw(st.floats(0.25, 1.0))
    weights = [draw(st.floats(0.0, 1.0)) for _ in range(3)]
    total = sum(weights)
    if total == 0.0:
        rest = [(1.0 - target) / 3.0] * 3
    else:
        # normalize the weights first: scaling a subnormal weight by (1 - target)
        # before dividing would lose its precision and break the unit sum
        rest = [(1.0 - target) * (w / total) for w in weights]
    return BellDiagonalState((target, *rest))


@given(bell_states())
def test_werner_projection_idempotent_and_fidelity_preserving(state):
    # depolarizing keeps the target coefficient and symmetrizes the rest
    once = WernerState(state.fidelity)
    assert WernerState(once.to_bell_diagonal().fidelity).fidelity == once.fidelity
    assert once.fidelity == state.fidelity
    assert sum(once.to_bell_diagonal().coeffs) == pytest.approx(1.0, abs=1e-12)


def reference_checked_coeffs(coeffs):
    """The check as it was before it became one pass: the reference it must match."""
    raw = tuple(map(float, coeffs))
    if len(raw) != 4:
        raise ValidationError(f"expected 4 Bell coefficients, got {len(raw)}")
    a, b, c, d = raw
    clamped = not (a >= 0.0 and b >= 0.0 and c >= 0.0 and d >= 0.0)
    if clamped:
        for x in raw:
            if x < -COEFF_ATOL:
                raise ValidationError(f"Bell coefficient {x!r} is negative beyond tolerance")
        raw = tuple(0.0 if x < 0.0 else x for x in raw)
    total = sum(raw)
    if not abs(total - 1.0) <= COEFF_ATOL:
        raise ValidationError(f"Bell coefficients must sum to 1, got {total!r}")
    return tuple(x / total for x in raw) if clamped else raw


def reference_werner_coeffs(fidelity):
    f = float(fidelity)
    if not 0.25 <= f <= 1.0:
        raise ValidationError(f"Werner fidelity must lie in [0.25, 1.0], got {fidelity!r}")
    off = (1.0 - f) / 3.0
    return reference_checked_coeffs((f, off, off, off))


def outcome(fn, arg):
    """The repr of what a call returns (types and signed zeros included), or its error."""
    try:
        return "returned", repr(fn(arg))
    except Exception as exc:  # the class and the message must match too
        return type(exc), str(exc)


#: Values at the edges of the check: signed zeros, round-off negatives at and
#: past the tolerance, non-finite values and ints.
EDGE_VALUES = st.sampled_from([
    0.0, -0.0, 1.0, 0.5, 0.25, -1e-13, -COEFF_ATOL, -1.0000001e-12, -1e-9, -0.5,
    float("nan"), float("inf"), -float("inf"), 0, 1, -1, 2,
])
ANY_VALUE = st.one_of(
    EDGE_VALUES,
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-COEFF_ATOL, 0.0),
    st.integers(-3, 3),
)
CONTAINERS = st.sampled_from([tuple, list, lambda values: (x for x in values)])


@st.composite
def coefficient_inputs(draw):
    """(container, values): mostly 4 values near a unit sum, so every path is reached."""
    n = draw(st.sampled_from([4, 4, 4, 4, 3, 5]))
    if draw(st.booleans()):
        weights = [draw(st.floats(0.0, 1.0)) for _ in range(n)]
        total = sum(weights) or 1.0
        values = [w / total for w in weights]
    else:
        values = [draw(ANY_VALUE) for _ in range(n)]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        if draw(st.booleans()):
            values[i] = draw(EDGE_VALUES)
        else:
            # a round-off negative whose weight moves to the next value, keeping the sum
            values[(i + 1) % n] += values[i]
            values[i] = -draw(st.floats(0.0, 2 * COEFF_ATOL))
    values = [np.float64(v) if draw(st.booleans()) and isinstance(v, float) else v
              for v in values]
    return draw(CONTAINERS), values


@settings(max_examples=500)
@given(coefficient_inputs())
def test_checked_coeffs_matches_reference(case):
    container, values = case
    assert outcome(checked_coeffs, container(values)) == \
        outcome(reference_checked_coeffs, container(values))


@pytest.mark.parametrize("bad", [True, False, "1", "0", None, 1 + 0j],
                         ids=["true", "false", "str-1", "str-0", "none", "complex"])
@pytest.mark.parametrize("index", range(4))
def test_checked_coeffs_rejects_non_numbers(index, bad):
    # float() used to take a bool or a numeric string, so ("1", "0", "0", "0") built the target
    values = [1.0 if index else 0.0, 0.0, 0.0, 0.0]
    values[index] = bad
    with pytest.raises(ValidationError) as excinfo:
        BellDiagonalState(tuple(values))
    assert str(excinfo.value) == f"Bell coefficient must be a real number, got {bad!r}"


@settings(max_examples=300)
@given(st.one_of(
    EDGE_VALUES,
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.25, 1.0),
    st.floats(0.25, 1.0).map(np.float64),
    st.integers(-1, 2),
))
def test_werner_coeffs_matches_reference(fidelity):
    assert outcome(werner_coeffs, fidelity) == outcome(reference_werner_coeffs, fidelity)


@given(st.floats(0.25, 1.0))
def test_werner_coeffs_sum_within_rounding(fidelity):
    # the bound in werner_coeffs' docstring, which is why it runs no sum test
    assert abs(sum(werner_coeffs(fidelity)) - 1.0) <= 1e-15
