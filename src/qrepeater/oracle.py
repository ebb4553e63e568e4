"""Exact density-matrix simulation of noisy connection and purification circuits.

The state is a dense complex density matrix over at most four qubits
(16 x 16), which leaves no room for approximation error.  No operation
builds a full-register operator: a gate is two matrix products on its
target qubits' axes of the reshaped state, gate noise traces the targets
out and puts them back maximally mixed, and a readout keeps the block whose
row and column bits of the read qubit both equal the reading.  The module
provides these imperfect-operation primitives (depolarizing-style gate
noise and an imperfect projective readout) and builds the two circuits the
analytic layer models in closed form:

* ``oracle_connect``  -- Bell measurement at a middle node joining two pairs,
* ``oracle_purify``   -- two-pair purification (``bennett`` or ``deutsch``
  variant) with post-selection on coinciding apparatus readings.

The closed-form maps in :mod:`qrepeater.maps` are required to agree with
these routines to 1e-12; ``closed_form_deviations`` measures that on the
grid behind ``qrepeater oracle-check`` and acceptance criterion 1.  This is
the only module that needs numpy, and only the ``oracle-check`` subcommand
imports it.
"""
from __future__ import annotations

import numpy as np

from . import maps
from .errors import DegeneratePostSelectionError, NumericError, ValidationError
from .states import BellDiagonalState, NoiseParams, WernerState

I2 = np.eye(2, dtype=complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)

# pi/2 rotations about X, opposite handedness for the two ends of a pair.
ROT_X_POS = (I2 - 1j * X) / np.sqrt(2.0)
ROT_X_NEG = (I2 + 1j * X) / np.sqrt(2.0)

_BRANCH_EPS = 1e-15


def _num_qubits(rho: np.ndarray) -> int:
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    if rho.shape != (dim, dim) or 2 ** n != dim:
        raise ValidationError(f"density matrix shape {rho.shape} is not a power of two")
    return n


def _check_targets(targets: tuple[int, ...], n_qubits: int) -> None:
    if len(set(targets)) != len(targets):
        raise ValidationError(f"duplicate target qubits {targets}")
    for t in targets:
        if not 0 <= t < n_qubits:
            raise ValidationError(f"qubit index {t} out of range for {n_qubits} qubits")


def _to_frame(rho: np.ndarray, targets: tuple[int, ...]) -> tuple[np.ndarray, tuple[int, ...]]:
    """``rho`` with the ``targets`` axes moved outermost, and the permutation used.

    The frame has shape (K, R, R, K): the row index of the targets, in the
    order given, then the other qubits' row and column indices in register
    order, then the column index of the targets.  A gate on the targets is
    then a plain matrix product on either side.
    """
    n = _num_qubits(rho)
    targets = tuple(targets)
    _check_targets(targets, n)
    rest = tuple(q for q in range(n) if q not in targets)
    axes = targets + rest + tuple(n + q for q in rest + targets)
    k = 2 ** len(targets)
    frame = rho.reshape((2,) * (2 * n)).transpose(axes)
    return frame.reshape(k, rho.shape[0] // k, rho.shape[0] // k, k), axes


def _from_frame(frame: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`_to_frame`: the frame back as a register-order matrix."""
    back = sorted(range(len(axes)), key=axes.__getitem__)
    dim = frame.shape[0] * frame.shape[1]
    return frame.reshape((2,) * len(axes)).transpose(back).reshape(dim, dim)


def apply_noisy_gate(rho: np.ndarray, gate: np.ndarray, targets: tuple[int, ...],
                     p: float) -> np.ndarray:
    """``gate`` on ``targets`` (in their tensor order) with weight p, white noise otherwise.

    The gate acts on the targets' own axes only; the noise traces the
    targets out and puts them back maximally mixed, I/2 on each.
    """
    frame, axes = _to_frame(rho, targets)
    k = frame.shape[0]
    if gate.shape != (k, k):
        raise ValidationError(f"gate of shape {gate.shape} does not act on {len(targets)} qubits")
    ideal = ((gate @ frame.reshape(k, -1)).reshape(-1, k) @ gate.conj().T).reshape(frame.shape)
    if p != 1.0:
        reduced = ideal.trace(axis1=0, axis2=3) / k
        mixed = np.eye(k)[:, None, None, :] * reduced[None, :, :, None]
        ideal = p * ideal + (1.0 - p) * mixed
    return _from_frame(ideal, axes)


def partial_trace(rho: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Trace out every qubit not listed in ``keep`` (result in ``keep`` order)."""
    frame, _ = _to_frame(rho, keep)
    return frame.trace(axis1=1, axis2=2)


def noisy_measure(rho: np.ndarray, target: int, eta: float):
    """Imperfect computational-basis readout of one qubit.

    The qubit is projected, but the apparatus reports the wrong outcome with
    probability 1 - eta.  Returns a list of ``(reading, probability,
    post_state)`` with the post-measurement states renormalized; branches of
    essentially zero probability are omitted.
    """
    n = _num_qubits(rho)
    _check_targets((target,), n)
    before, after = 2 ** target, 2 ** (n - target - 1)
    # axes: (higher qubits, target, lower qubits) for rows, then the same for columns
    view = rho.reshape(before, 2, after, before, 2, after)
    branches = []
    for reading in (0, 1):
        # projecting on outcome b keeps the block whose row and column bits are both b
        weights = np.zeros((2, 1, 1, 2, 1))
        weights[reading, 0, 0, reading] = eta
        weights[1 - reading, 0, 0, 1 - reading] = 1.0 - eta
        post = (view * weights).reshape(rho.shape)
        prob = float(post.trace().real)
        if prob < _BRANCH_EPS:
            continue
        branches.append((reading, prob, post / prob))
    return branches


#: The four Bell kets as columns, in the package-wide ordering.
_BELL = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, -1.0],
        [1.0, -1.0, 0.0, 0.0],
    ],
    dtype=complex,
) / np.sqrt(2.0)


_OFF_DIAGONAL = ~np.eye(4, dtype=bool)


def bell_diagonal_to_dm(state: BellDiagonalState) -> np.ndarray:
    """4x4 density matrix of a Bell-diagonal state."""
    return (_BELL * np.array(state.coeffs)) @ _BELL.conj().T


def bell_coefficients(rho: np.ndarray) -> np.ndarray:
    """Diagonal of a two-qubit density matrix in the Bell basis.

    The closed forms carry only these four numbers, so a state with an
    off-diagonal Bell-basis element above 1e-12 raises :class:`NumericError`.
    """
    if rho.shape != (4, 4):
        raise ValidationError(f"expected a 4x4 matrix, got {rho.shape}")
    in_bell = _BELL.conj().T @ rho @ _BELL
    off_diagonal = np.abs(in_bell[_OFF_DIAGONAL]).max()
    if off_diagonal > 1e-12:
        raise NumericError(
            f"state is not Bell-diagonal: off-diagonal Bell-basis element "
            f"{off_diagonal:.3e} exceeds 1e-12"
        )
    return in_bell.diagonal().real.copy()


def _pair_product(pair_ab: BellDiagonalState, pair_cd: BellDiagonalState) -> np.ndarray:
    """Four-qubit product state: first pair on qubits (0, 1), second on (2, 3)."""
    first, second = bell_diagonal_to_dm(pair_ab), bell_diagonal_to_dm(pair_cd)
    return (first[:, None, :, None] * second[None, :, None, :]).reshape(16, 16)


def oracle_connect(pair_ab: BellDiagonalState, pair_bc: BellDiagonalState,
                   noise: NoiseParams, twirl_output: bool = True) -> BellDiagonalState:
    """Join two pairs by a noisy Bell measurement at the shared middle node.

    Qubits 1 and 2 sit at the middle node.  The Bell measurement is a noisy
    CNOT (1 -> 2) followed by a basis change on the control and two noisy
    readouts; the reading-conditioned Pauli correction on qubit 3 is applied
    as a noisy one-qubit operation, and the four branches are averaged with
    their probabilities.  By default the resulting pair is depolarized to
    Werner form; with ``twirl_output=False`` the raw Bell-diagonal
    coefficients of the joined pair are returned instead.
    """
    rho = _pair_product(pair_ab, pair_bc)
    rho = apply_noisy_gate(rho, CNOT, (1, 2), noise.p2)
    # the basis change is part of the measurement decomposition, not a noisy gate
    rho = apply_noisy_gate(rho, HADAMARD, (1,), 1.0)

    averaged = np.zeros_like(rho)
    for m1, prob1, rho1 in noisy_measure(rho, 1, noise.eta):
        for m2, prob2, rho2 in noisy_measure(rho1, 2, noise.eta):
            correction = (Z if m1 else I2) @ (X if m2 else I2)
            corrected = apply_noisy_gate(rho2, correction, (3,), noise.p1)
            averaged += prob1 * prob2 * corrected

    reduced = partial_trace(averaged, (0, 3))
    coeffs = bell_coefficients(reduced)
    if twirl_output:
        fid = float(coeffs[0])
        off = (1.0 - fid) / 3.0
        return BellDiagonalState((fid, off, off, off))
    return BellDiagonalState(tuple(coeffs))


def oracle_purify(kept: BellDiagonalState, sacrificed: BellDiagonalState,
                  noise: NoiseParams, protocol: str):
    """Simulate one two-pair purification step; returns ``(p_succ, kept_state)``.

    The kept pair sits on qubits (0, 1), the sacrificed pair on (2, 3);
    qubits 0 and 2 belong to one node, 1 and 3 to the other.  Both variants
    apply a bilateral noisy CNOT (kept controls sacrificed), read out the
    sacrificed pair with imperfect detectors and keep the coinciding-reading
    branches.  The ``deutsch`` variant first applies perfect pi/2 rotations
    of opposite sign on the two nodes: the model leaves the one-qubit gate
    noise p1 out of purification.
    """
    if protocol not in maps.PROTOCOLS:
        raise ValidationError(f"unknown purification protocol {protocol!r}")
    rho = _pair_product(kept, sacrificed)

    if protocol == "deutsch":
        rotations = ((0, ROT_X_POS), (2, ROT_X_POS), (1, ROT_X_NEG), (3, ROT_X_NEG))
        for qubit, gate in rotations:
            rho = apply_noisy_gate(rho, gate, (qubit,), 1.0)

    rho = apply_noisy_gate(rho, CNOT, (0, 2), noise.p2)
    rho = apply_noisy_gate(rho, CNOT, (1, 3), noise.p2)

    kept_sum = np.zeros_like(rho)
    p_succ = 0.0
    for m2, prob2, rho2 in noisy_measure(rho, 2, noise.eta):
        for m3, prob3, rho3 in noisy_measure(rho2, 3, noise.eta):
            if m2 != m3:
                continue
            p_succ += prob2 * prob3
            kept_sum += prob2 * prob3 * rho3
    if p_succ < _BRANCH_EPS:
        raise DegeneratePostSelectionError(
            "post-selection kept no probability mass; degenerate parameter regime"
        )
    reduced = partial_trace(kept_sum / p_succ, (0, 1))
    coeffs = bell_coefficients(reduced)
    return p_succ, BellDiagonalState(tuple(coeffs))


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
        werner = WernerState(f).to_bell_diagonal()
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
