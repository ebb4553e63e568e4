import pytest
from hypothesis import given, strategies as st

from qrepeater.errors import ValidationError
from qrepeater.states import BellDiagonalState, WernerState


def test_werner_from_fidelity_pure():
    assert WernerState(1.0).to_bell_diagonal().coeffs == (1.0, 0.0, 0.0, 0.0)


def test_werner_from_fidelity_maximally_mixed():
    assert WernerState(0.25).to_bell_diagonal().coeffs == (0.25, 0.25, 0.25, 0.25)


def test_werner_from_fidelity_generic():
    coeffs = WernerState(0.9).to_bell_diagonal().coeffs
    assert coeffs[0] == 0.9
    for c in coeffs[1:]:
        assert c == pytest.approx((1 - 0.9) / 3, abs=1e-15)
    assert sum(coeffs) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [0.2, -1.0, 1.0001, 2.0])
def test_werner_fidelity_domain(bad):
    with pytest.raises(ValidationError):
        WernerState(bad)


def test_twirl_trivial_cases():
    assert WernerState(BellDiagonalState((1.0, 0.0, 0.0, 0.0)).fidelity).fidelity == 1.0
    assert WernerState(BellDiagonalState((0.7, 0.3, 0.0, 0.0)).fidelity).fidelity == 0.7
    assert WernerState(BellDiagonalState((0.25, 0.25, 0.25, 0.25)).fidelity).fidelity == 0.25


def test_fidelity_of():
    assert BellDiagonalState((1.0, 0.0, 0.0, 0.0)).fidelity == 1.0
    assert BellDiagonalState((0.6, 0.2, 0.1, 0.1)).fidelity == 0.6


def test_twirl_round_trip_on_werner():
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
def test_twirl_idempotent_and_preserving(state):
    # depolarizing keeps the target coefficient and symmetrizes the rest
    once = WernerState(state.fidelity)
    assert WernerState(once.to_bell_diagonal().fidelity).fidelity == once.fidelity
    assert once.fidelity == state.fidelity
    assert sum(once.to_bell_diagonal().coeffs) == pytest.approx(1.0, abs=1e-12)
