"""Exact density-matrix simulation of noisy connection and purification circuits.

Everything here works on dense complex matrices over at most four qubits
(16 x 16), which is cheap and leaves no room for approximation error.  The
module provides the imperfect-operation primitives (depolarizing-style gate
noise and an imperfect projective readout) and builds the two circuits the
analytic layer models in closed form:

* ``oracle_connect``  -- Bell measurement at a middle node joining two pairs,
* ``oracle_purify``   -- two-pair purification (``bennett`` or ``deutsch``
  variant) with post-selection on coinciding apparatus readings.

The closed-form maps in :mod:`qrepeater.maps` are required to agree with
these routines to 1e-12; the test suite enforces that on a parameter grid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePostSelectionError, ValidationError
from .states import BellDiagonalState

I2 = np.eye(2, dtype=complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
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

_PROJ = (
    np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
)

_BRANCH_EPS = 1e-15


@dataclass(frozen=True)
class NoiseParams:
    """Reliability parameters of the imperfect-operation model.

    p1, p2 are the one- and two-qubit gate reliabilities in [0, 1]; eta is
    the quality of the readout projection in [1/2, 1].
    """

    p1: float = 1.0
    p2: float = 1.0
    eta: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.p1 <= 1.0:
            raise ValidationError(f"p1 must lie in [0, 1], got {self.p1!r}")
        if not 0.0 <= self.p2 <= 1.0:
            raise ValidationError(f"p2 must lie in [0, 1], got {self.p2!r}")
        if not 0.5 <= self.eta <= 1.0:
            raise ValidationError(f"eta must lie in [0.5, 1], got {self.eta!r}")

    @classmethod
    def perfect(cls) -> "NoiseParams":
        return cls(1.0, 1.0, 1.0)

    @classmethod
    def uniform(cls, q: float) -> "NoiseParams":
        """All three reliabilities set to the same value."""
        return cls(q, q, q)


def _num_qubits(rho: np.ndarray) -> int:
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    if rho.shape != (dim, dim) or 2 ** n != dim:
        raise ValidationError(f"density matrix shape {rho.shape} is not a power of two")
    return n


def embed(op: np.ndarray, n_qubits: int, targets: tuple[int, ...]) -> np.ndarray:
    """Expand an operator acting on ``targets`` to the full register.

    ``op`` is given in the tensor order of ``targets``; qubit 0 is the most
    significant factor of the register.
    """
    targets = tuple(targets)
    k = len(targets)
    if len(set(targets)) != k:
        raise ValidationError(f"duplicate target qubits {targets}")
    for t in targets:
        if not 0 <= t < n_qubits:
            raise ValidationError(f"qubit index {t} out of range for {n_qubits} qubits")
    rest = [q for q in range(n_qubits) if q not in targets]
    full = np.kron(op, np.eye(2 ** (n_qubits - k), dtype=complex))
    # full acts on (targets..., rest...); permute its axes into register order
    axis_of_qubit = {q: i for i, q in enumerate(list(targets) + rest)}
    perm = [axis_of_qubit[q] for q in range(n_qubits)]
    tensor = full.reshape((2,) * (2 * n_qubits))
    tensor = tensor.transpose(perm + [n_qubits + p for p in perm])
    return tensor.reshape(2 ** n_qubits, 2 ** n_qubits)


def partial_trace(rho: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Trace out every qubit not listed in ``keep`` (result in ``keep`` order)."""
    n = _num_qubits(rho)
    keep = tuple(keep)
    traced = [q for q in range(n) if q not in keep]
    tensor = rho.reshape((2,) * (2 * n))
    # descending order keeps each remaining qubit's row axis at its original index
    for q in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=q, axis2=q + tensor.ndim // 2)
    k = len(keep)
    ascending = sorted(keep)
    perm = [ascending.index(q) for q in keep]
    tensor = tensor.transpose(perm + [k + p for p in perm])
    return tensor.reshape(2 ** k, 2 ** k)


def _mix_targets(rho: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """Replace ``targets`` by the maximally mixed state, keeping their marginal."""
    n = _num_qubits(rho)
    rest = tuple(q for q in range(n) if q not in targets)
    if not rest:
        # keep the map linear: scale by the input trace
        return np.trace(rho) * np.eye(rho.shape[0], dtype=complex) / rho.shape[0]
    reduced = partial_trace(rho, rest)
    k = len(targets)
    mixed = np.kron(np.eye(2 ** k, dtype=complex) / 2 ** k, reduced)
    # mixed currently acts on (targets..., rest...); permute into register order
    axis_of_qubit = {q: i for i, q in enumerate(list(targets) + list(rest))}
    perm = [axis_of_qubit[q] for q in range(n)]
    tensor = mixed.reshape((2,) * (2 * n))
    tensor = tensor.transpose(perm + [n + p for p in perm])
    return tensor.reshape(rho.shape)


def apply_noisy_one_qubit(rho: np.ndarray, gate: np.ndarray, target: int,
                          p1: float) -> np.ndarray:
    """Imperfect one-qubit gate: ideal action with weight p1, white noise otherwise."""
    n = _num_qubits(rho)
    u = embed(gate, n, (target,))
    ideal = u @ rho @ u.conj().T
    if p1 == 1.0:
        return ideal
    return p1 * ideal + (1.0 - p1) * _mix_targets(ideal, (target,))


def apply_noisy_two_qubit(rho: np.ndarray, gate: np.ndarray,
                          targets: tuple[int, int], p2: float) -> np.ndarray:
    """Imperfect two-qubit gate: ideal action with weight p2, white noise otherwise."""
    n = _num_qubits(rho)
    u = embed(gate, n, targets)
    ideal = u @ rho @ u.conj().T
    if p2 == 1.0:
        return ideal
    return p2 * ideal + (1.0 - p2) * _mix_targets(ideal, targets)


def povm_elements(eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Single-qubit readout POVM with projection quality eta (sums to identity exactly)."""
    p0 = eta * _PROJ[0] + (1.0 - eta) * _PROJ[1]
    p1 = eta * _PROJ[1] + (1.0 - eta) * _PROJ[0]
    return p0, p1


def noisy_measure(rho: np.ndarray, target: int, eta: float):
    """Imperfect computational-basis readout of one qubit.

    The qubit is projected, but the apparatus reports the wrong outcome with
    probability 1 - eta.  Returns a list of ``(reading, probability,
    post_state)`` with the post-measurement states renormalized; branches of
    essentially zero probability are omitted.
    """
    n = _num_qubits(rho)
    proj = [embed(p, n, (target,)) for p in _PROJ]
    collapsed = [p @ rho @ p for p in proj]
    branches = []
    for reading in (0, 1):
        post = eta * collapsed[reading] + (1.0 - eta) * collapsed[1 - reading]
        prob = float(np.trace(post).real)
        if prob < _BRANCH_EPS:
            continue
        branches.append((reading, prob, post / prob))
    return branches


def bell_vectors() -> np.ndarray:
    """The four Bell kets as columns, in the package-wide ordering."""
    s = 1.0 / np.sqrt(2.0)
    return np.array(
        [
            [s, s, 0.0, 0.0],
            [0.0, 0.0, s, s],
            [0.0, 0.0, s, -s],
            [s, -s, 0.0, 0.0],
        ],
        dtype=complex,
    )


_BELL = bell_vectors()


def bell_diagonal_to_dm(state: BellDiagonalState) -> np.ndarray:
    """4x4 density matrix of a Bell-diagonal state."""
    rho = np.zeros((4, 4), dtype=complex)
    for k, c in enumerate(state.coeffs):
        v = _BELL[:, k]
        rho += c * np.outer(v, v.conj())
    return rho


def bell_coefficients(rho: np.ndarray) -> np.ndarray:
    """Diagonal of a two-qubit density matrix in the Bell basis."""
    if rho.shape != (4, 4):
        raise ValidationError(f"expected a 4x4 matrix, got {rho.shape}")
    return np.array([(_BELL[:, k].conj() @ rho @ _BELL[:, k]).real for k in range(4)])


def validate_density_matrix(rho: np.ndarray, atol: float = 1e-10) -> None:
    """Raise if ``rho`` is not Hermitian, unit trace and positive within atol."""
    if np.abs(rho - rho.conj().T).max() > atol:
        raise ValidationError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > atol:
        raise ValidationError("density matrix trace differs from 1")
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < -atol:
        raise ValidationError(f"density matrix has negative eigenvalue {eigs.min()}")


def choi_matrix(channel, n_qubits: int) -> np.ndarray:
    """Choi matrix of ``channel`` (a function on 2^n x 2^n density matrices)."""
    dim = 2 ** n_qubits
    choi = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            basis = np.zeros((dim, dim), dtype=complex)
            basis[i, j] = 1.0
            out = channel(basis)
            choi += np.kron(basis, out)
    return choi


def _pair_product(pair_ab: BellDiagonalState, pair_cd: BellDiagonalState) -> np.ndarray:
    """Four-qubit product state: first pair on qubits (0, 1), second on (2, 3)."""
    return np.kron(bell_diagonal_to_dm(pair_ab), bell_diagonal_to_dm(pair_cd))


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
    rho = apply_noisy_two_qubit(rho, CNOT, (1, 2), noise.p2)
    # the basis change is part of the measurement decomposition, not a noisy gate
    u = embed(HADAMARD, 4, (1,))
    rho = u @ rho @ u.conj().T

    averaged = np.zeros_like(rho)
    for m1, prob1, rho1 in noisy_measure(rho, 1, noise.eta):
        for m2, prob2, rho2 in noisy_measure(rho1, 2, noise.eta):
            correction = np.linalg.matrix_power(Z, m1) @ np.linalg.matrix_power(X, m2)
            corrected = apply_noisy_one_qubit(rho2, correction, 3, noise.p1)
            averaged += prob1 * prob2 * corrected

    reduced = partial_trace(averaged, (0, 3))
    coeffs = bell_coefficients(reduced)
    if twirl_output:
        fid = float(coeffs[0])
        off = (1.0 - fid) / 3.0
        return BellDiagonalState((fid, off, off, off))
    return BellDiagonalState(tuple(coeffs))


def oracle_purify(kept: BellDiagonalState, sacrificed: BellDiagonalState,
                  noise: NoiseParams, protocol: str = "bennett",
                  include_one_qubit_noise: bool = False):
    """Simulate one two-pair purification step; returns ``(p_succ, kept_state)``.

    The kept pair sits on qubits (0, 1), the sacrificed pair on (2, 3);
    qubits 0 and 2 belong to one node, 1 and 3 to the other.  Both variants
    apply a bilateral noisy CNOT (kept controls sacrificed), read out the
    sacrificed pair with imperfect detectors and keep the coinciding-reading
    branches.  The ``deutsch`` variant first applies pi/2 rotations of
    opposite sign on the two nodes; those rotations are perfect unless
    ``include_one_qubit_noise`` is set, in which case they carry the
    one-qubit gate noise p1.
    """
    if protocol not in ("bennett", "deutsch"):
        raise ValidationError(f"unknown purification protocol {protocol!r}")
    rho = _pair_product(kept, sacrificed)

    if protocol == "deutsch":
        rotations = ((0, ROT_X_POS), (2, ROT_X_POS), (1, ROT_X_NEG), (3, ROT_X_NEG))
        for qubit, gate in rotations:
            if include_one_qubit_noise:
                rho = apply_noisy_one_qubit(rho, gate, qubit, noise.p1)
            else:
                u = embed(gate, 4, (qubit,))
                rho = u @ rho @ u.conj().T

    rho = apply_noisy_two_qubit(rho, CNOT, (0, 2), noise.p2)
    rho = apply_noisy_two_qubit(rho, CNOT, (1, 3), noise.p2)

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
