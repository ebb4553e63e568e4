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

Each map is one kernel on coefficient 4-tuples (``connect_coeffs``, its closed
form for a chain of equal pairs ``chain_coeffs``, ``purify_coeffs``) that the
state-object maps wrap; every output they use passes ``checked_coeffs``.  On Werner
pairs (scheme A, the fidelity maps) purification runs ``werner_step``: ``purify_coeffs``
on scalars, in the same operation order, so its outputs equal the kernel's bit for bit.
Iterating purification up to a working fidelity is the level loop of
:func:`qrepeater.engine.simulate`.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Sequence

from .errors import (
    DegeneratePostSelectionError,
    NumericError,
    PurificationImpossibleError,
    ValidationError,
)
from .states import (COEFF_ATOL, BellDiagonalState, NoiseParams, checked_coeffs, require_in,
                     require_int, require_type)

#: The purification steps: twirl-based (Bennett et al.), rotation-based (Deutsch et al.).
PROTOCOLS = ("bennett", "deutsch")


def require_protocol(protocol: str) -> None:
    """Raise :class:`ValidationError` unless ``protocol`` is one of :data:`PROTOCOLS`."""
    if protocol not in PROTOCOLS:
        raise ValidationError(f"unknown purification protocol {protocol!r}")


_PSUCC_EPS = 1e-15
_VANISHING = "purification post-selection has vanishing success probability"

#: Fidelities at which ``fixed_points`` scans for diagonal crossings: 750
#: points, 1e-3 apart, from just above the maximally mixed state up to 1.
_SCAN_GRID = tuple(0.251 + (1.0 - 0.251) * i / 749 for i in range(750))


class PurifyOutcome(namedtuple("PurifyOutcome", "out_fidelity p_succ")):
    """Result of one purification step: kept fidelity and success probability."""

    __slots__ = ()


class FixedPoints(namedtuple("FixedPoints", "f_min f_max")):
    """Lower (repelling) and upper (attracting) fixed points of a fidelity map."""

    __slots__ = ()


def connect_L(fidelity: float, length: int, noise: NoiseParams) -> float:
    """Fidelity after fusing a chain of ``length`` equal Werner pairs, twirled after every link.

    The twirl replaces the link factors of :func:`chain_coeffs` by their mean; for ``length >= 3``
    and ``eta < 1`` that is below the untwirled chain (power means).  ``length == 1`` is the input.
    """
    require_int("chain length", length)
    if length < 1:
        raise ValidationError(f"chain length must be >= 1, got {length}")
    fidelity = require_in("fidelity", fidelity, 0.25, 1)
    require_type("noise", noise, NoiseParams)
    if length == 1:
        return fidelity
    t = (4.0 * fidelity - 1.0) / 3.0
    noise_factor = noise.p1 * noise.p2 * (4.0 * noise.eta ** 2 - 1.0) / 3.0
    try:
        return 0.25 + 0.75 * noise_factor ** (length - 1) * t ** length
    except OverflowError:  # an int exponent beyond float range
        raise ValidationError("chain length L exceeds float range") from None


def _characters(v: Sequence[float]) -> tuple[float, float, float]:
    """The characters ``s = 1, 2, 3`` of a Bell vector: ``sum_i (-1)**popcount(s & i) * v[i]``."""
    v0, v1, v2, v3 = v
    return v0 - v1 + v2 - v3, v0 + v1 - v2 - v3, v0 - v1 - v2 + v3


def _from_characters(h1: float, h2: float, h3: float) -> tuple[float, ...]:
    """The Bell vector with characters ``(1, h1, h2, h3)``: the inverse of :func:`_characters`."""
    return ((1.0 + h1 + h2 + h3) / 4.0, (1.0 - h1 + h2 - h3) / 4.0,
            (1.0 + h1 - h2 - h3) / 4.0, (1.0 - h1 - h2 + h3) / 4.0)


def connect_coeffs(ab: Sequence[float], bc: Sequence[float],
                   noise: NoiseParams) -> tuple[float, ...]:
    """Unchecked Bell coefficients after one noisy middle-node fusion of two pairs.

    Fusion, readout flips and gate failures convolve on the Bell group Z2 x Z2; on its characters
    the output is ``g(s) * a(s) * b(s)``, ``g`` from ``noise.connect_constants``.  On Werner
    inputs its fidelity is ``connect_L(F, 2, noise)``, though the output is in general not Werner.
    """
    g1, g3 = noise.connect_constants
    a1, a2, a3 = _characters(ab)
    b1, b2, b3 = _characters(bc)
    return _from_characters(g1 * a1 * b1, g1 * a2 * b2, g3 * a3 * b3)


def chain_coeffs(pair: Sequence[float], length: int, noise: NoiseParams) -> tuple[float, ...]:
    """Checked coefficients of ``length >= 1`` equal pairs fused at every node, in one step.

    Characters ``(g(s) * v(s)) ** (length - 1) * v(s)``, as in :func:`connect_coeffs` (bit for bit
    at two pairs).  A float power rounds its exponent to a float, which is even from ``2**53`` on,
    so each power takes its sign from the parity of ``length - 1`` itself: this is how float
    powers of a negative base already work below ``2**53``.
    """
    g1, g3 = noise.connect_constants
    v1, v2, v3 = _characters(pair)
    n = length - 1
    return checked_coeffs(_from_characters(_power(g1 * v1, n) * v1, _power(g1 * v2, n) * v2,
                                           _power(g3 * v3, n) * v3))


def _power(x: float, n: int) -> float:
    """``x ** n`` for an int ``n >= 0``, with the sign of ``x`` when ``n`` is odd."""
    return math.copysign(abs(x) ** n, x if n & 1 else 1.0)


def connect_states(pair_ab: BellDiagonalState, pair_bc: BellDiagonalState,
                   noise: NoiseParams) -> BellDiagonalState:
    """Bell-diagonal state after one noisy middle-node fusion (:func:`connect_coeffs`)."""
    require_type("noise", noise, NoiseParams)
    require_type("pair_ab", pair_ab, BellDiagonalState)
    require_type("pair_bc", pair_bc, BellDiagonalState)
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
        require_protocol(protocol)  # raises: both protocols are handled above

    alpha, beta, gates_ok, floor = noise.purify_constants
    u_a = gates_ok * (a * (alpha * a2 + beta * c2) + b * (alpha * b2 + beta * d2)) + floor
    u_b = gates_ok * (alpha * (a * b2 + b * a2) + beta * (a * d2 + b * c2)) + floor
    u_c = gates_ok * (c * (alpha * c2 + beta * a2) + d * (alpha * d2 + beta * b2)) + floor
    u_d = gates_ok * (alpha * (c * d2 + d * c2) + beta * (c * b2 + d * a2)) + floor

    p_succ = u_a + u_b + u_c + u_d
    if p_succ < _PSUCC_EPS:
        raise DegeneratePostSelectionError(_VANISHING)
    return p_succ, (u_a / p_succ, u_b / p_succ, u_c / p_succ, u_d / p_succ)


def werner_step(fidelity: float, noise: NoiseParams) -> tuple[float, float]:
    """Checked ``(p_succ, fidelity)`` of :func:`purify_coeffs` on two Werner pairs of a float F.

    Its expressions on ``(F, x, x, x)``, ``x = (1 - F) / 3``, in their order, sharing only
    exactly equal products, so both equal the 4-tuple path's bit for bit, in either
    protocol; the output is checked as ``checked_coeffs`` checks it, without a tuple.
    """
    x = (1.0 - fidelity) / 3.0
    alpha, beta, gates_ok, floor = noise.purify_constants
    ax, bx, fx, xx = alpha * x, beta * x, fidelity * x, x * x
    mixed, flips = x * (ax + bx), beta * (fx + xx)
    u_a = gates_ok * (fidelity * (alpha * fidelity + bx) + mixed) + floor
    u_b = gates_ok * (alpha * (fx + fx) + flips) + floor
    u_c = gates_ok * (x * (ax + beta * fidelity) + mixed) + floor
    u_d = gates_ok * (alpha * (xx + xx) + flips) + floor
    p_succ = u_a + u_b + u_c + u_d
    if p_succ < _PSUCC_EPS:
        raise DegeneratePostSelectionError(_VANISHING)
    a, b, c, d = u_a / p_succ, u_b / p_succ, u_c / p_succ, u_d / p_succ
    if a >= 0.0 and b >= 0.0 and c >= 0.0 and d >= 0.0 and abs(a + b + c + d - 1.0) <= COEFF_ATOL:
        return p_succ, a
    return p_succ, checked_coeffs((a, b, c, d))[0]


def purify_bennett(fidelity: float, noise: NoiseParams) -> PurifyOutcome:
    """One purification step of the twirl-based protocol on Werner pairs (:func:`werner_step`).

    The map acts on the fidelity alone; the output pair is depolarized back
    to Werner form before the next step, as the protocol prescribes.
    """
    fidelity = require_in("Werner fidelity", fidelity, 0.25, 1.0)
    require_type("noise", noise, NoiseParams)
    p_succ, out = werner_step(fidelity, noise)
    return PurifyOutcome(out, p_succ)


def purify_with_aux(target: BellDiagonalState, aux: BellDiagonalState,
                    noise: NoiseParams, protocol: str) -> tuple[PurifyOutcome, BellDiagonalState]:
    """Purify ``target`` by sacrificing a (generally different) ``aux`` pair.

    Same circuits as the symmetric steps, with the auxiliary pair on the
    measured side; ``aux == target`` is the symmetric step.  Full
    Bell-diagonal states are carried: with the rotation-based protocol the
    output is *not* depolarized, which is what makes it converge in fewer
    steps.
    """
    require_type("noise", noise, NoiseParams)
    require_type("target", target, BellDiagonalState)
    require_type("aux", aux, BellDiagonalState)
    p_succ, out = purify_coeffs(target.coeffs, aux.coeffs, noise, protocol)
    out_state = BellDiagonalState(out)
    return PurifyOutcome(out_state.fidelity, p_succ), out_state


def bennett_map(noise: NoiseParams) -> Callable[[float], float]:
    """The fidelity view of :func:`purify_bennett`, the map ``fixed_points`` searches.

    ``noise`` is checked once, here; each evaluation runs the range check and
    :func:`werner_step` as :func:`purify_bennett` does, without building its outcome.
    """
    require_type("noise", noise, NoiseParams)

    def fidelity_map(fidelity: float) -> float:
        return werner_step(require_in("Werner fidelity", fidelity, 0.25, 1.0), noise)[1]
    return fidelity_map


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

