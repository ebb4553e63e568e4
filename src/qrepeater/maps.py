"""Closed-form fidelity maps for connection and purification, and their fixed points.

All maps in this module are exact algebraic images of the noisy circuits
simulated in :mod:`qrepeater.oracle`; the test suite verifies agreement to
1e-12.  States are Bell-diagonal coefficient 4-vectors in the package
ordering (see :mod:`qrepeater.states`), where composing Pauli flips is XOR
on indices.

Success probabilities are physical: they are the total probability of the
post-selected (coinciding-readings) branches, including the two-qubit gate
reliability factor.  With perfect gates they reduce to the familiar
normalization denominators of the noiseless maps.

Each map is one kernel on coefficient 4-tuples (``connect_coeffs``, the
chain fold ``chain_coeffs``, ``purify_coeffs``) that the state-object and
fidelity maps wrap; every output they use passes ``checked_coeffs``.
Iterating purification up to a working fidelity is the level loop of
:func:`qrepeater.engine.simulate`.
"""
from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from .errors import (
    DegeneratePostSelectionError,
    NumericError,
    PurificationImpossibleError,
    ValidationError,
)
from .states import BellDiagonalState, NoiseParams, checked_coeffs, werner_coeffs

#: The purification steps: twirl-based (Bennett et al.), rotation-based (Deutsch et al.).
PROTOCOLS = ("bennett", "deutsch")

_PSUCC_EPS = 1e-15

#: Fidelities at which ``fixed_points`` scans for diagonal crossings: 750
#: points, 1e-3 apart, from just above the maximally mixed state up to 1.
_SCAN_GRID = tuple(0.251 + (1.0 - 0.251) * i / 749 for i in range(750))


class PurifyOutcome(NamedTuple):
    """Result of one purification step: kept fidelity and success probability."""

    out_fidelity: float
    p_succ: float


class FixedPoints(NamedTuple):
    """Lower (repelling) and upper (attracting) fixed points of a fidelity map."""

    f_min: float
    f_max: float


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
    try:
        return 0.25 + 0.75 * noise_factor ** (length - 1) * t ** length
    except OverflowError:  # an int exponent beyond float range
        raise ValidationError("chain length L exceeds float range") from None


def _convolve(v: Sequence[float], w: Sequence[float]) -> list[float]:
    """Group convolution of Bell coefficient vectors: ``out[k] = sum_i v[i] * w[i ^ k]``."""
    v0, v1, v2, v3 = v
    w0, w1, w2, w3 = w
    return [v0 * w0 + v1 * w1 + v2 * w2 + v3 * w3,
            v0 * w1 + v1 * w0 + v2 * w3 + v3 * w2,
            v0 * w2 + v1 * w3 + v2 * w0 + v3 * w1,
            v0 * w3 + v1 * w2 + v2 * w1 + v3 * w0]


def connect_coeffs(ab: Sequence[float], bc: Sequence[float],
                   noise: NoiseParams) -> tuple[float, ...]:
    """Unchecked Bell coefficients after one noisy middle-node fusion of two pairs.

    Readout errors shift the reading-conditioned correction by a Pauli flip,
    which acts as a convolution kernel; gate and correction failures mix in
    the fully depolarized pair.  Restricted to Werner inputs the fidelity of
    the result equals ``connect_L(F, 2, noise)`` exactly, but the output is
    in general not Werner, and no depolarization is applied here.
    """
    kernel, ideal_weight, mixed = noise.connect_constants
    c0, c1, c2, c3 = _convolve(_convolve(ab, bc), kernel)
    return (ideal_weight * c0 + mixed, ideal_weight * c1 + mixed,
            ideal_weight * c2 + mixed, ideal_weight * c3 + mixed)


def chain_coeffs(pairs: Sequence[Sequence[float]], noise: NoiseParams) -> tuple[float, ...]:
    """Checked coefficients of a chain fused left to right, one link at a time."""
    if not pairs:
        raise ValidationError("cannot connect an empty chain")
    state = pairs[0]
    for nxt in pairs[1:]:
        state = checked_coeffs(connect_coeffs(state, nxt, noise))
    return state


def connect_states(pair_ab: BellDiagonalState, pair_bc: BellDiagonalState,
                   noise: NoiseParams) -> BellDiagonalState:
    """Bell-diagonal state after one noisy middle-node fusion (:func:`connect_coeffs`)."""
    return BellDiagonalState(connect_coeffs(pair_ab.coeffs, pair_bc.coeffs, noise))


def purify_coeffs(kept: Sequence[float], meas: Sequence[float],
                  noise: NoiseParams, protocol: str) -> tuple[float, tuple[float, ...]]:
    """One noisy two-pair purification step on Bell coefficient vectors.

    Returns ``(p_succ, output_coeffs)``, unchecked, for the kept pair,
    post-selected on coinciding detector readings.  ``alpha``/``beta`` are
    the coincidence probabilities given matching/mismatching stored flip
    bits; failed gates contribute a uniform floor.
    """
    if protocol == "bennett":
        a, b, c, d = kept
        a2, b2, c2, d2 = meas
    elif protocol == "deutsch":
        # the opposite-sign pi/2 rotations fix the target and bit-flip states
        # and swap the phase-flip and both-flip states (indices 1 and 3)
        a, d, c, b = kept
        a2, d2, c2, b2 = meas
    else:
        raise ValidationError(f"unknown purification protocol {protocol!r}")

    alpha, beta, gates_ok, floor = noise.purify_constants
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
    werner = werner_coeffs(fidelity)
    p_succ, out = purify_coeffs(werner, werner, noise, "bennett")
    return PurifyOutcome(checked_coeffs(out)[0], p_succ)


def purify_with_aux(target: BellDiagonalState, aux: BellDiagonalState,
                    noise: NoiseParams, protocol: str) -> tuple[PurifyOutcome, BellDiagonalState]:
    """Purify ``target`` by sacrificing a (generally different) ``aux`` pair.

    Same circuits as the symmetric steps, with the auxiliary pair on the
    measured side; ``aux == target`` is the symmetric step.  Full
    Bell-diagonal states are carried: with the rotation-based protocol the
    output is *not* depolarized, which is what makes it converge in fewer
    steps.
    """
    p_succ, out = purify_coeffs(target.coeffs, aux.coeffs, noise, protocol)
    out_state = BellDiagonalState(out)
    return PurifyOutcome(out_state.fidelity, p_succ), out_state


def bennett_map(noise: NoiseParams) -> Callable[[float], float]:
    """The fidelity view of :func:`purify_bennett`, the map ``fixed_points`` searches."""
    return lambda fidelity: purify_bennett(fidelity, noise).out_fidelity


# On Werner pairs the rotation-based step only swaps two equal coefficients,
# so its fidelity map is the twirl-based one bit for bit.
deutsch_werner_map = bennett_map


def _bisect(g: Callable[[float], float], lo: float, hi: float, g_lo: float) -> float:
    """Sign-change bisection to 1e-12; ``g(lo)`` and ``g(hi)`` must have opposite signs."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if g_mid == 0.0 or hi - lo < 1e-12:
            return mid
        if (g_lo < 0.0) != (g_mid < 0.0):
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    return 0.5 * (lo + hi)


def fixed_points(fidelity_map: Callable[[float], float]) -> FixedPoints:
    """Locate the two nontrivial fixed points of a purification fidelity map.

    Scans ``_SCAN_GRID`` for sign changes of ``map(F) - F`` and bisects each
    to 1e-12; an exact zero on the grid (at the upper endpoint, the
    perfect-operation case) counts as a fixed point.  The lower point repels,
    the upper one attracts; a map that only touches the diagonal has one
    double fixed point, returned as both.  Raises
    :class:`PurificationImpossibleError` when the map never reaches the
    diagonal, and :class:`NumericError` on more than two crossings (a
    genuinely odd map, not an infeasibility).
    """
    def gap(f: float) -> float:
        return fidelity_map(f) - f

    xs = _SCAN_GRID
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
    if not roots:
        raise PurificationImpossibleError(
            "the purification map lies below the diagonal on the whole interval"
        )
    if len(roots) > 2:
        raise NumericError(f"expected two diagonal crossings, found {len(roots)}: {roots}")
    return FixedPoints(roots[0], roots[-1])


def eq_noiseless_bennett(fidelity: float) -> float:
    """Noiseless twirl-protocol map, used as an independent reduction check."""
    f = fidelity
    x = (1.0 - f) / 3.0
    return (f * f + x * x) / (f * f + 2.0 * f * x + 5.0 * x * x)
