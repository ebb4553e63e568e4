"""Exact density-matrix simulation of noisy connection and purification circuits.

The state is a dense density matrix over at most four qubits (16 x 16),
which leaves no room for approximation error.  It is real (float64) where
the gates are, which is everywhere but the rotation-based step's pi/2
rotations; after them that step goes on in real arithmetic when no
imaginary part exceeds 1e-15, that is, rounding.  The module
provides imperfect-operation primitives (depolarizing-style gate noise and
an imperfect projective readout) and builds the two circuits the analytic
layer models in closed form:

* ``oracle_connect``  -- Bell measurement at a middle node joining two pairs,
* ``oracle_purify``   -- two-pair purification (``bennett`` or ``deutsch``
  variant) with post-selection on coinciding apparatus readings.

Each primitive takes a (..., D, D) stack of density matrices.  Each circuit
runs gate by gate, in few and small dense steps, and carries its four
reading branches as one stack:

* No gate builds a full-register operator.  A gate is two matrix products
  on its target qubits' axes of the reshaped stack.  Gate noise scales
  that result by p and adds (1 - p)/K times the targets' reduced state to
  the blocks on the targets' diagonal, in place, which is tracing the
  targets out and putting them back maximally mixed.  The axis
  permutation, its inverse and the shapes for each register size and
  target tuple form a plan, checked and built once and kept in a bounded
  cache.  This is exact: a plan depends on its key alone, and an invalid
  key raises before it is cached, so every check still runs on every call.
* A readout of several qubits multiplies the state elementwise by a weight
  per reading: a polynomial in eta over 0/1 masks (cached the same way)
  that keep each block whose row and column bits of the read qubits equal
  an outcome, weighted eta per qubit the reading gets right and 1 - eta per
  qubit it misreads.  One readout of two qubits gives the four unnormalized
  branches, whose traces are their probabilities; purification sums the
  two whose readings agree.  This is exact: each branch is the probability
  of its readings times the renormalized post-readout state.
* Connection's basis change (a perfect Hadamard on the control) joins its
  noisy CNOT as one two-qubit gate.  This is exact: the noise term, I/4 on
  both qubits times the others' marginal, is unchanged by a unitary on them.
* The rotation-based step's perfect pi/2 rotations act as one two-qubit
  gate on the stack of both 4 x 4 pair matrices before the product.  This
  is exact: the rotations carry no noise (p1 stays out of purification)
  and each acts within its own pair, so it commutes with taking the product.
* Connection traces out the middle node of all four branches at once, and
  applies their noisy corrections as one stacked gate on 4 x 4s.  This is
  exact: the correction channel acts on qubit 3 alone, and a channel on one
  qubit commutes with tracing out others.

``tests/test_oracle.py`` holds the kron-built primitives and both circuits
in the literal gate order as the dense reference they must match to 1e-13.
The closed-form maps in :mod:`qrepeater.maps` are required to agree with
these routines to 1e-12; ``closed_form_deviations`` measures that on the
grid behind ``qrepeater oracle-check`` and acceptance criterion 1.  This is
the only module that needs numpy, and only the ``oracle-check`` subcommand
imports it.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import maps
from .errors import DegeneratePostSelectionError, NumericError, ValidationError
from .states import BellDiagonalState, NoiseParams, werner_coeffs

I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.array([[1.0, 0.0], [0.0, -1.0]])
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=float,
)

# pi/2 rotations about X, opposite handedness for the two ends of a pair.
ROT_X_POS = (I2 - 1j * X) / np.sqrt(2.0)
ROT_X_NEG = (I2 + 1j * X) / np.sqrt(2.0)
#: The rotation-based step's rotations on one pair, node A's qubit first.
_PAIR_ROTATION = np.kron(ROT_X_POS, ROT_X_NEG)
#: Connection's noisy CNOT (1 -> 2) and the basis change on qubit 1, as one gate.
_BELL_MEASUREMENT = np.kron(HADAMARD, I2) @ CNOT
#: Connection's Pauli correction on qubit 3 for readings m1, m2 of qubits 1, 2: entry 2*m1 + m2.
_CORRECTIONS = np.array([I2, X, Z, Z @ X])

_BRANCH_EPS = 1e-15


def _num_qubits(rho: np.ndarray) -> int:
    dim = rho.shape[-1] if rho.ndim else 0
    n = dim.bit_length() - 1
    if rho.shape[-2:] != (dim, dim) or 2 ** n != dim:
        raise ValidationError(f"density matrix shape {rho.shape} is not a power of two")
    return n


def _check_targets(targets: tuple[int, ...], n_qubits: int) -> None:
    if len(set(targets)) != len(targets):
        raise ValidationError(f"duplicate target qubits {targets}")
    for t in targets:
        if not 0 <= t < n_qubits:
            raise ValidationError(f"qubit index {t} out of range for {n_qubits} qubits")


#: Bound of each cache: the two circuits use seven plans and two masks, the tests more.
_CACHE_SIZE = 64


class _Plan(NamedTuple):
    """How to view a stack of ``n``-qubit density matrices with some target qubits outermost.

    The frame has shape (B, K, R, R, K): the stack as one axis, the row index
    of the targets, in the order given, then the other qubits' row and
    column indices in register order, then the column index of the targets.
    A gate on the targets is then a plain matrix product on either side.
    """

    tensor: tuple[int, ...]  # (-1,) + (2,) * 2n: the stack, one axis per row bit, per column bit
    axes: tuple[int, ...]  # tensor axes in frame order
    back: tuple[int, ...]  # the inverse permutation, frame order back to register order
    frame: tuple[int, int, int, int, int]


@lru_cache(maxsize=_CACHE_SIZE)
def _plan(n_qubits: int, targets: tuple[int, ...]) -> _Plan:
    """The checked frame of ``targets`` on an ``n_qubits`` register, built once per key.

    An invalid key raises before anything is cached, so every call with it
    raises again.
    """
    _check_targets(targets, n_qubits)
    rest = tuple(q for q in range(n_qubits) if q not in targets)
    axes = (0,) + tuple(1 + q for q in targets + rest) + tuple(
        1 + n_qubits + q for q in rest + targets)
    k = 2 ** len(targets)
    r = 2 ** n_qubits // k
    back = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    return _Plan((-1,) + (2,) * (2 * n_qubits), axes, back, (-1, k, r, r, k))


def apply_noisy_gate(rho: np.ndarray, gate: np.ndarray, targets: tuple[int, ...],
                     p: float) -> np.ndarray:
    """``gate`` on ``targets`` (in their tensor order) with weight p, white noise otherwise.

    The gate acts on the targets' own axes only; the noise traces the
    targets out and puts them back maximally mixed, I/2 on each.  ``gate``
    is one (K, K) matrix, or a stack with the states' leading shape.  The
    result is real when the states and the gate are.
    """
    plan = _plan(_num_qubits(rho), tuple(targets))
    _, k, r, _, _ = plan.frame
    if gate.shape[-2:] != (k, k):
        raise ValidationError(f"gate of shape {gate.shape} does not act on {len(targets)} qubits")
    if gate.ndim > 2 and gate.shape[:-2] != rho.shape[:-2]:
        raise ValidationError(f"gate stack {gate.shape} does not match states {rho.shape}")
    gate = gate.reshape(-1, k, k)
    frame = rho.reshape(plan.tensor).transpose(plan.axes).reshape(-1, k, r * r * k)
    ideal = (gate @ frame).reshape(-1, r * r * k, k) @ gate.conj().transpose(0, 2, 1)
    if p != 1.0:
        # a writable view of the blocks on the targets' diagonal, (B, K, R * R)
        diagonal = np.einsum("bkmk->bkm", ideal.reshape(-1, k, r * r, k))
        reduced = diagonal.sum(axis=1)
        ideal *= p
        diagonal += ((1.0 - p) / k) * reduced[:, None, :]
    return ideal.reshape(plan.tensor).transpose(plan.back).reshape(rho.shape)


def partial_trace(rho: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Trace out every qubit not listed in ``keep`` (result in ``keep`` order), per matrix."""
    plan = _plan(_num_qubits(rho), tuple(keep))
    k = plan.frame[1]
    frame = rho.reshape(plan.tensor).transpose(plan.axes).reshape(plan.frame)
    return frame.trace(axis1=2, axis2=3).reshape(rho.shape[:-2] + (k, k))


@lru_cache(maxsize=_CACHE_SIZE)
def _readout_masks(n_qubits: int, targets: tuple[int, ...]) -> np.ndarray:
    """Read-only 0/1 masks of the readings of T = len(targets) qubits, (T + 1, 2**T * D * D).

    Row j, viewed as (2, ..., 2, D, D), keeps for the readings m the blocks
    whose row and column bits of the targets both equal an outcome that
    differs from m in j of the targets, which is projecting on those outcomes.
    """
    _check_targets(targets, n_qubits)
    t = len(targets)
    bits = (np.arange(2 ** n_qubits)[:, None] >> (n_qubits - 1 - np.array(targets, dtype=int))) & 1
    readings = np.indices((2,) * t).reshape(t, 2 ** t).T
    misreads = (readings[:, None, :] != bits[None, :, :]).sum(axis=-1)  # (2**T, D)
    same_block = (bits[:, None, :] == bits[None, :, :]).all(axis=-1)  # (D, D)
    masks = (np.arange(t + 1)[:, None, None, None] == misreads[None, :, :, None]) & same_block
    masks = masks.reshape(t + 1, -1).astype(float)
    masks.setflags(write=False)
    return masks


def _readout(rho: np.ndarray, targets: tuple[int, ...], eta: float):
    """Unnormalized readout branches of ``targets``: (..., 2, ..., 2, D, D) and their traces.

    Each qubit is projected, but the apparatus reports the wrong outcome with
    probability 1 - eta.  A branch is the projection on each outcome weighted
    by eta for each qubit read right and 1 - eta for each misread, a
    polynomial in eta over cached masks; its trace is the probability of the
    readings.  The new axes are indexed by the readings, in target order.  A
    branch is dropped, that is, it and its probability are set to 0, when its
    probability or that of its first reading is below 1e-15.
    """
    masks = _readout_masks(_num_qubits(rho), tuple(targets))
    t = len(targets)
    poly = np.array([eta ** (t - j) * (1.0 - eta) ** j for j in range(t + 1)])
    weights = (poly @ masks).reshape((2,) * t + rho.shape[-2:])
    branches = rho.reshape(rho.shape[:-2] + (1,) * t + rho.shape[-2:]) * weights
    probs = branches.trace(axis1=-2, axis2=-1).real
    kept = probs >= _BRANCH_EPS
    if not kept.all():  # else each first reading's probability is above 1e-15 too
        first = probs.sum(axis=tuple(range(1 - t, 0)))
        kept &= (first >= _BRANCH_EPS).reshape(first.shape + (1,) * (t - 1))
        branches[~kept] = 0.0
        probs = np.where(kept, probs, 0.0)
    return branches, probs


#: The four Bell kets as columns, in the package-wide ordering.
_BELL = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, -1.0],
        [1.0, -1.0, 0.0, 0.0],
    ],
) / np.sqrt(2.0)
_BELL_H = _BELL.T

_OFF_DIAGONAL = ~np.eye(4, dtype=bool)


def bell_diagonal_to_dm(state) -> np.ndarray:
    """4x4 density matrix of a Bell-diagonal state; a (..., 4) coefficient array gives a stack."""
    coeffs = np.asarray(state.coeffs if isinstance(state, BellDiagonalState) else state)
    if coeffs.shape[-1:] != (4,):
        raise ValidationError(f"expected Bell coefficient vectors, got shape {coeffs.shape}")
    return (_BELL * coeffs[..., None, :]) @ _BELL_H


def bell_coefficients(rho: np.ndarray) -> np.ndarray:
    """Diagonal of a two-qubit density matrix in the Bell basis.

    The closed forms carry only these four numbers, so a state with an
    off-diagonal Bell-basis element above 1e-12 raises :class:`NumericError`.
    """
    if rho.shape != (4, 4):
        raise ValidationError(f"expected a 4x4 matrix, got {rho.shape}")
    in_bell = _BELL_H @ rho @ _BELL
    off_diagonal = np.abs(in_bell[_OFF_DIAGONAL]).max()
    if not off_diagonal <= 1e-12:  # NaN fails too
        raise NumericError(
            f"state is not Bell-diagonal: off-diagonal Bell-basis element "
            f"{off_diagonal:.3e} exceeds 1e-12"
        )
    return in_bell.diagonal().real.copy()


def _pair_product(pairs: np.ndarray) -> np.ndarray:
    """Four-qubit product of a stack of two pair matrices, on qubits (0, 1) and (2, 3)."""
    first, second = pairs
    return (first[:, None, :, None] * second[None, :, None, :]).reshape(16, 16)


def oracle_connect(pair_ab: BellDiagonalState, pair_bc: BellDiagonalState,
                   noise: NoiseParams, twirl_output: bool = True) -> BellDiagonalState:
    """Join two pairs by a noisy Bell measurement at the shared middle node.

    Qubits 1 and 2 sit at the middle node.  The Bell measurement is a noisy
    CNOT (1 -> 2) followed by a perfect basis change on the control, applied
    as one noisy gate, and two noisy readouts.  The middle node is traced
    out of all four reading branches, and the reading-conditioned Pauli
    corrections act on the remaining pair's qubit 3 as one stacked noisy
    one-qubit gate; the unnormalized branches, whose traces are their
    probabilities, are summed.  By default the resulting pair is depolarized
    to Werner form; with ``twirl_output=False`` the raw Bell-diagonal
    coefficients are returned.
    """
    rho = _pair_product(bell_diagonal_to_dm(np.array((pair_ab.coeffs, pair_bc.coeffs))))
    rho = apply_noisy_gate(rho, _BELL_MEASUREMENT, (1, 2), noise.p2)

    branches, _ = _readout(rho, (1, 2), noise.eta)
    # the corrections act on qubit 3 alone, so they commute with tracing out 1 and 2
    outer = partial_trace(branches.reshape(4, 16, 16), (0, 3))
    joined = apply_noisy_gate(outer, _CORRECTIONS, (1,), noise.p1).sum(axis=0)

    coeffs = bell_coefficients(joined)
    if twirl_output:
        fid = float(coeffs[0])
        off = (1.0 - fid) / 3.0
        return BellDiagonalState((fid, off, off, off))
    return BellDiagonalState(tuple(coeffs.tolist()))


def oracle_purify(kept: BellDiagonalState, sacrificed: BellDiagonalState,
                  noise: NoiseParams, protocol: str):
    """Simulate one two-pair purification step; returns ``(p_succ, kept_state)``.

    The kept pair sits on qubits (0, 1), the sacrificed pair on (2, 3);
    qubits 0 and 2 belong to one node, 1 and 3 to the other.  Both variants
    apply a bilateral noisy CNOT (kept controls sacrificed), read out the
    sacrificed pair with imperfect detectors and keep the coinciding-reading
    branches.  The ``deutsch`` variant first applies perfect pi/2 rotations
    of opposite sign on the two nodes, as one two-qubit gate on the stack of
    both pairs before the product: the model leaves the one-qubit gate noise
    p1 out of purification, and each rotation acts within its own pair.
    """
    if protocol not in maps.PROTOCOLS:
        raise ValidationError(f"unknown purification protocol {protocol!r}")
    pairs = bell_diagonal_to_dm(np.array((kept.coeffs, sacrificed.coeffs)))
    if protocol == "deutsch":
        pairs = apply_noisy_gate(pairs, _PAIR_ROTATION, (0, 1), 1.0)
        if np.abs(pairs.imag).max() <= 1e-15:  # rounding: Bell-diagonal pairs rotate to reals
            pairs = pairs.real
    rho = _pair_product(pairs)

    rho = apply_noisy_gate(rho, CNOT, (0, 2), noise.p2)
    rho = apply_noisy_gate(rho, CNOT, (1, 3), noise.p2)

    branches, probs = _readout(rho, (2, 3), noise.eta)
    p_succ = float(probs[0, 0] + probs[1, 1])
    kept_sum = branches[0, 0] + branches[1, 1]
    if p_succ < _BRANCH_EPS:
        raise DegeneratePostSelectionError(
            "post-selection kept no probability mass; degenerate parameter regime"
        )
    coeffs = bell_coefficients(partial_trace(kept_sum, (0, 1)) / p_succ)
    return p_succ, BellDiagonalState(tuple(coeffs.tolist()))


def closed_form_deviations() -> tuple[float, float, float, float]:
    """Worst ``|closed form - oracle|`` on the check grid.

    Returns the maxima for connection fidelity, twirl-based purification
    fidelity, its ``p_succ``, and the rotation-based map (all four
    coefficients and ``p_succ``) on seeded random Bell-diagonal pairs.
    """
    fidelities = (0.55, 0.7, 0.85, 0.97)
    values = (1.0, 0.995, 0.99, 0.97)
    worst_connect = worst_pf = worst_pp = 0.0
    for f in fidelities:
        werner = BellDiagonalState(werner_coeffs(f))
        for p1 in values:
            for p2 in values:
                for eta in values:
                    noise = NoiseParams(p1, p2, eta)
                    got = oracle_connect(werner, werner, noise).fidelity
                    want = maps.connect_L(f, 2, noise)
                    worst_connect = max(worst_connect, abs(got - want))
        for p2 in values:
            for eta in values:
                noise = NoiseParams(1.0, p2, eta)
                p_succ, out = oracle_purify(werner, werner, noise, "bennett")
                ref = maps.purify_bennett(f, noise)
                worst_pf = max(worst_pf, abs(out.fidelity - ref.out_fidelity))
                worst_pp = max(worst_pp, abs(p_succ - ref.p_succ))

    worst_deutsch = 0.0
    rng = np.random.default_rng(20240817)
    for _ in range(8):
        v1 = rng.random(4)
        v2 = rng.random(4)
        s1 = BellDiagonalState(tuple(v1 / v1.sum()))
        s2 = BellDiagonalState(tuple(v2 / v2.sum()))
        for p2 in (1.0, 0.995, 0.97):
            for eta in (1.0, 0.995, 0.97):
                noise = NoiseParams(1.0, p2, eta)
                p_succ, out = oracle_purify(s1, s2, noise, "deutsch")
                ref, out_cf = maps.purify_with_aux(s1, s2, noise, "deutsch")
                dev = max(abs(a - b) for a, b in zip(out.coeffs, out_cf.coeffs))
                worst_deutsch = max(worst_deutsch, dev, abs(p_succ - ref.p_succ))
    return worst_connect, worst_pf, worst_pp, worst_deutsch
