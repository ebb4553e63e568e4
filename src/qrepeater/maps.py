"""Closed-form fidelity maps for connection and purification, and their analysis.

All maps in this module are exact algebraic images of the noisy circuits
simulated in :mod:`qrepeater.oracle`; the test suite verifies agreement to
1e-12.  States are Bell-diagonal coefficient 4-vectors in the package
ordering (see :mod:`qrepeater.states`), where composing Pauli flips is XOR
on indices.

Success probabilities are physical: they are the total probability of the
post-selected (coinciding-readings) branches, including the two-qubit gate
reliability factor.  With perfect gates they reduce to the familiar
normalization denominators of the noiseless maps.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import (
    AuxPurificationError,
    BelowThresholdError,
    DegeneratePostSelectionError,
    NumericError,
    PurificationImpossibleError,
    ValidationError,
    WorkingFidelityUnreachableError,
)
from .oracle import NoiseParams
from .states import BellDiagonalState, WernerState

_PSUCC_EPS = 1e-15
_GAIN_EPS = 1e-13
_MAX_STEPS = 10_000

#: Bell-index permutation effected by the opposite-sign pi/2 rotations of the
#: deutsch protocol: target and bit-flip states are fixed, the phase-flip and
#: both-flip states swap.
_DEUTSCH_PERM = (0, 3, 2, 1)


@dataclass(frozen=True)
class PurifyOutcome:
    """Result of one purification step: kept fidelity and success probability."""

    out_fidelity: float
    p_succ: float


@dataclass(frozen=True)
class FixedPoints:
    """Lower (repelling) and upper (attracting) fixed points of a fidelity map."""

    f_min: float
    f_max: float


@dataclass(frozen=True)
class PurifyTrace:
    """Record of repeated purification back up to the working fidelity.

    ``steps`` holds (fidelity, p_succ) after each step and ``final_state``
    the full Bell-diagonal state after the last one.  ``avg_pairs`` is the
    expected number of pairs consumed: the product of 2/p_succ over the steps
    with parallel copies, one plus the step count with a re-created
    auxiliary pair.
    """

    steps: tuple[tuple[float, float], ...]
    avg_pairs: float
    final_state: BellDiagonalState


def connect_L(fidelity: float, length: int, noise: NoiseParams) -> float:
    """Fidelity after fusing a chain of ``length`` equal Werner pairs.

    Each of the ``length - 1`` middle-node measurements contributes one
    factor of gate and readout noise; the result decreases exponentially in
    ``length`` unless pairs and operations are perfect.  ``length == 1``
    returns the input unchanged.
    """
    if length < 1:
        raise ValidationError(f"chain length must be >= 1, got {length}")
    if not 0.25 <= fidelity <= 1.0:
        raise ValidationError(f"fidelity must lie in [0.25, 1], got {fidelity!r}")
    if length == 1:
        return float(fidelity)
    t = (4.0 * fidelity - 1.0) / 3.0
    noise_factor = noise.p1 * noise.p2 * (4.0 * noise.eta ** 2 - 1.0) / 3.0
    return 0.25 + 0.75 * noise_factor ** (length - 1) * t ** length


def _convolve(v: Sequence[float], w: Sequence[float]) -> list[float]:
    """Group convolution of Bell coefficient vectors (index XOR)."""
    out = [0.0, 0.0, 0.0, 0.0]
    for i in range(4):
        vi = v[i]
        if vi == 0.0:
            continue
        for j in range(4):
            out[i ^ j] += vi * w[j]
    return out


def connect_states(pair_ab: BellDiagonalState, pair_bc: BellDiagonalState,
                   noise: NoiseParams) -> BellDiagonalState:
    """Bell-diagonal state after one noisy middle-node fusion of two pairs.

    Readout errors shift the reading-conditioned correction by a Pauli flip,
    which acts as a convolution kernel; gate and correction failures mix in
    the fully depolarized pair.  Restricted to Werner inputs the fidelity of
    the result equals ``connect_L(F, 2, noise)`` exactly, but the output is
    in general not Werner, and no depolarization is applied here.
    """
    eta = noise.eta
    kernel = (eta * eta, eta * (1.0 - eta), eta * (1.0 - eta), (1.0 - eta) ** 2)
    ideal_weight = noise.p1 * noise.p2
    mixed = (1.0 - ideal_weight) / 4.0
    conv = _convolve(_convolve(pair_ab.coeffs, pair_bc.coeffs), kernel)
    return BellDiagonalState(tuple(ideal_weight * c + mixed for c in conv))


def connect_chain(pairs: Iterable[BellDiagonalState], noise: NoiseParams) -> BellDiagonalState:
    """Fuse a chain of pairs with one noisy middle-node measurement per link."""
    pairs = list(pairs)
    if not pairs:
        raise ValidationError("cannot connect an empty chain")
    state = pairs[0]
    for nxt in pairs[1:]:
        state = connect_states(state, nxt, noise)
    return state


def _general_purify(kept: Sequence[float], meas: Sequence[float],
                    noise: NoiseParams, protocol: str) -> tuple[float, tuple[float, ...]]:
    """One noisy two-pair purification step on Bell coefficient vectors.

    Returns ``(p_succ, output_coeffs)`` for the kept pair, post-selected on
    coinciding detector readings.  ``alpha``/``beta`` are the coincidence
    probabilities given matching/mismatching stored flip bits; failed gates
    contribute a uniform floor.
    """
    if protocol == "deutsch":
        kept = [kept[i] for i in _DEUTSCH_PERM]
        meas = [meas[i] for i in _DEUTSCH_PERM]
    elif protocol != "bennett":
        raise ValidationError(f"unknown purification protocol {protocol!r}")

    a, b, c, d = kept
    a2, b2, c2, d2 = meas
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
    if p_succ < _PSUCC_EPS:
        raise DegeneratePostSelectionError(
            "purification post-selection has vanishing success probability"
        )
    return p_succ, (u_a / p_succ, u_b / p_succ, u_c / p_succ, u_d / p_succ)


def purify_bennett(fidelity: float, noise: NoiseParams) -> PurifyOutcome:
    """One purification step of the twirl-based protocol on Werner pairs.

    The map acts on the fidelity alone; the output pair is depolarized back
    to Werner form before the next step, as the protocol prescribes.
    """
    werner = WernerState(fidelity).to_bell_diagonal().coeffs
    p_succ, out = _general_purify(werner, werner, noise, "bennett")
    return PurifyOutcome(out[0], p_succ)


def purify_with_aux(target: BellDiagonalState, aux: BellDiagonalState,
                    noise: NoiseParams, protocol: str = "deutsch",
                    ) -> tuple[PurifyOutcome, BellDiagonalState]:
    """Purify ``target`` by sacrificing a (generally different) ``aux`` pair.

    Same circuits as the symmetric steps, with the auxiliary pair on the
    measured side; ``aux == target`` is the symmetric step.  Full
    Bell-diagonal states are carried: with the rotation-based protocol the
    output is *not* depolarized, which is what makes it converge in fewer
    steps.
    """
    p_succ, out = _general_purify(target.coeffs, aux.coeffs, noise, protocol)
    out_state = BellDiagonalState(out)
    return PurifyOutcome(out_state.fidelity, p_succ), out_state


def bennett_map(noise: NoiseParams) -> Callable[[float], float]:
    """The one-parameter fidelity map of one twirl-based purification step."""
    def fmap(fidelity: float) -> float:
        return purify_bennett(fidelity, noise).out_fidelity
    return fmap


def deutsch_werner_map(noise: NoiseParams) -> Callable[[float], float]:
    """Fidelity after one rotation-based step applied to two Werner pairs."""
    def fmap(fidelity: float) -> float:
        state = WernerState(fidelity).to_bell_diagonal()
        outcome, _ = purify_with_aux(state, state, noise, "deutsch")
        return outcome.out_fidelity
    return fmap


def _bisect(g: Callable[[float], float], lo: float, hi: float,
            g_lo: float, xtol: float = 1e-12) -> float:
    """Sign-change bisection; ``g(lo)`` and ``g(hi)`` must have opposite signs."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if g_mid == 0.0 or hi - lo < xtol:
            return mid
        if (g_lo < 0.0) != (g_mid < 0.0):
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    return 0.5 * (lo + hi)


def fixed_points(fidelity_map: Callable[[float], float],
                 search_interval: tuple[float, float] = (0.251, 1.0),
                 grid_step: float = 1e-3) -> FixedPoints:
    """Locate the two nontrivial fixed points of a purification fidelity map.

    Scans ``search_interval`` for sign changes of ``map(F) - F`` and bisects
    each to 1e-12; an exact zero at the upper endpoint (the perfect-operation
    case) counts as a fixed point.  The lower point repels, the upper one
    attracts.  Raises :class:`PurificationImpossibleError` when the map never
    crosses the diagonal, and :class:`NumericError` when the crossing count
    is not the expected two (a genuinely odd map, not an infeasibility).
    """
    lo, hi = search_interval
    if not 0.25 <= lo < hi <= 1.0:
        raise ValidationError(f"bad search interval {search_interval!r}")

    def gap(f: float) -> float:
        return fidelity_map(f) - f

    count = max(2, int(round((hi - lo) / grid_step)) + 1)
    xs = [lo + (hi - lo) * i / (count - 1) for i in range(count)]
    gs = [gap(x) for x in xs]

    roots: list[float] = []
    for x, g in zip(xs, gs):
        if g == 0.0:
            roots.append(x)
    for (x0, g0), (x1, g1) in zip(zip(xs, gs), zip(xs[1:], gs[1:])):
        if g0 == 0.0 or g1 == 0.0:
            continue
        if (g0 < 0.0) != (g1 < 0.0):
            roots.append(_bisect(gap, x0, x1, g0))

    roots.sort()
    deduped: list[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] > 1e-6:
            deduped.append(r)

    if not deduped:
        raise PurificationImpossibleError(
            "the purification map lies below the diagonal on the whole interval"
        )
    if len(deduped) != 2:
        raise NumericError(
            f"expected two diagonal crossings, found {len(deduped)}: {deduped}"
        )
    return FixedPoints(deduped[0], deduped[1])


def _purify_until(state: BellDiagonalState, target_fidelity: float,
                  noise: NoiseParams, protocol: str,
                  aux: BellDiagonalState | None = None) -> PurifyTrace:
    """Iterate purification until the fidelity reaches the target.

    Without ``aux`` every step pairs two parallel copies of the current
    state; the twirl-based protocol re-depolarizes the output each step, the
    rotation-based one carries the full state.  With ``aux`` every step
    sacrifices a freshly re-created copy of that pair instead (pumping), and
    no step depolarizes.  Overshoot past the target is allowed and recorded.
    A step that gains nothing raises: :class:`AuxPurificationError` when
    pumping, :class:`BelowThresholdError` when the start was already at the
    repelling threshold, :class:`WorkingFidelityUnreachableError` otherwise.
    """
    steps: list[tuple[float, float]] = []
    avg_pairs = 1.0
    current = state
    while current.fidelity < target_fidelity:
        if len(steps) >= _MAX_STEPS:
            raise NumericError(
                f"purification did not terminate within {_MAX_STEPS} steps"
            )
        if aux is None and protocol == "bennett":
            outcome = purify_bennett(current.fidelity, noise)
            nxt = WernerState(outcome.out_fidelity).to_bell_diagonal()
        else:
            outcome, nxt = purify_with_aux(current, current if aux is None else aux,
                                           noise, protocol)
        if nxt.fidelity <= current.fidelity + _GAIN_EPS:
            stalled = current.fidelity
            if aux is not None:
                raise AuxPurificationError(
                    f"pumping with the re-created pair stalls at fidelity "
                    f"{stalled:.6f}, below the working fidelity {target_fidelity}"
                )
            if stalled <= state.fidelity + 1e-9:
                raise BelowThresholdError(
                    f"fidelity {state.fidelity:.6f} is at or below the purification threshold"
                )
            raise WorkingFidelityUnreachableError(
                f"purification stalls at fidelity {stalled:.6f}, "
                f"below the working fidelity {target_fidelity}"
            )
        steps.append((nxt.fidelity, outcome.p_succ))
        if aux is None:
            avg_pairs *= 2.0 / outcome.p_succ
        else:
            avg_pairs += 1.0
        current = nxt
    return PurifyTrace(steps=tuple(steps), avg_pairs=avg_pairs, final_state=current)


def eq_noiseless_bennett(fidelity: float) -> float:
    """Noiseless twirl-protocol map, used as an independent reduction check."""
    f = fidelity
    x = (1.0 - f) / 3.0
    return (f * f + x * x) / (f * f + 2.0 * f * x + 5.0 * x * x)
