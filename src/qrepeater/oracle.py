"""Exact density-matrix simulation of noisy connection and purification circuits.

The state is a dense density matrix over four qubits (16 x 16), which
leaves no room for approximation error.  It is real (float64) throughout:
every gate is real but the rotation-based step's pi/2 rotations, and those
act only on constants built at import, whose imaginary parts are rounding.
Operations are imperfect as in the closed forms: a gate of reliability p
acts with weight p and otherwise puts its qubits back maximally mixed, and
a readout reports the wrong outcome with probability 1 - eta.  The module
builds the two circuits the analytic layer models in closed form:

* ``oracle_connect``  -- Bell measurement at a middle node joining two pairs,
* ``oracle_purify``   -- two-pair purification (``bennett`` or ``deutsch``
  variant) with post-selection on coinciding apparatus readings.

Each circuit is a fixed sequence of contractions on a register order chosen
once, so that no gate needs the state transposed.  The state is held as a
16 x 16 matrix whose rows index one pair of qubits' 4 x 4 matrix, flat,
and whose columns the other pair's.  Connection runs on qubits
(1, 2, 0, 3), the middle node's pair by the outer pair; purification on
(0, 2, 1, 3), node A's pair by node B's.  A gate or a noise channel on one
of these pairs is then a matrix product on one side: vec(G rho G^T) is
kron(G, G) vec(rho), and gate noise of reliability p sends vec(rho) to
p vec(rho) + (1 - p) vec(I/4) tr(rho).  Every basis change that depends on
no input is built once, at import, from the dense gates; a call gathers
its product state, applies its gate noise and readout weights, and checks
its output.  Each step below is exact:

* Bell projectors in.  The four Bell projectors are held flat, (4, 16), so
  that both pair matrices are one product: coefficients times projectors.
* Rotated projectors.  The rotation-based step's perfect pi/2 rotations
  carry no noise (p1 stays out of purification) and each acts within its
  own pair, so they commute with taking the product and act on the
  projectors instead.  The rotated projectors are built once, checked real
  to 1e-15 (the rotations permute the Bell states) and stored real; a
  pair, a convex combination of the four, has no larger imaginary part.
* The product state is gathered in its layout from the two pair matrices
  with constant indices.  Purification's two CNOTs, one on each side,
  permute those indices and are folded into them; a permutation rounds
  nothing.  Both CNOTs' noise follows both gates, since channels on
  disjoint pairs commute.
* Reading qubits and discarding them is one step: the state's diagonal
  blocks on the read qubits, one per outcome, weighted per reading by eta
  for each qubit read right and 1 - eta for each misread.  A reading's
  branch is its weighted sum of blocks, and the branch's trace is the
  reading's probability.  A branch is dropped (weight and probability set
  to 0) when its probability, or that of its first reading, is below 1e-15.
* Connection's basis change (a perfect Hadamard on the control) joins its
  noisy CNOT as one two-qubit gate G: the noise term, I/4 on both qubits
  times the others' marginal, is unchanged by a unitary on them.  Only the
  middle node's diagonal blocks of G rho G^T are read, which are rows 5a
  of kron(G, G) times the state: one matrix product.
* Connection's gate noise is applied on the read blocks: its term's block
  is a quarter of their sum for every outcome, so it enters the readout
  weights as (1 - p2)/4 each, by linearity.
* Connection's Pauli corrections act on qubit 3 alone, so they commute with
  tracing out the middle node; on the four branches of the outer pair they
  are one constant matrix, with the change to the Bell basis,
  kron(B^T, B^T) on a flat 4 x 4 matrix, folded in.  Their noise is
  applied once, on the summed branches: the channel is linear, and its
  noise term, I/2 on qubit 3 times qubit 0's marginal, is the same for
  every Pauli.
* Bell-basis readout out.  Purification's readout gathers the read
  qubits' diagonal blocks, one kept block per outcome, from the flat state
  with one constant index array, and turns the four to the Bell basis with
  one product by kron(B^T, B^T).  A block's diagonal sum is its trace, the
  outcome's probability.

Both circuits end in the Bell basis, and an output with an off-diagonal
Bell-basis element above 1e-12 raises :class:`NumericError`.
``tests/test_oracle.py`` holds both circuits in the literal gate order,
built with kron, as the dense reference they must match to 1e-13.

The kernels of :mod:`qrepeater.maps` that the engine runs must agree with
these circuits to 1e-12.  ``closed_form_deviations``, behind ``qrepeater
oracle-check`` and acceptance criterion 1, checks that on one grid that
proves it everywhere, since both sides are polynomials: each output
(``p_succ`` times the coefficients, in purification) is affine in each
pair, of degree 2 in eta and in a Werner pair's fidelity F (connecting two),
of degree 1 in p1 and p2 in connection, and of degree 2 in p2 and 0 in p1
in purification; ``werner_step`` on two Werner pairs is of degree 2 in F,
p2 and eta.  The grid takes one node more than each degree, four affinely
independent pairs and both purification steps: 543 circuits.
This is the only module that needs numpy, and only the ``oracle-check``
subcommand imports it.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from . import maps
from .errors import DegeneratePostSelectionError, NumericError
from .states import BellDiagonalState, NoiseParams, require_type, werner_coeffs

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
#: The rotation-based step's rotations on one pair, node A's qubit first, and its adjoint.
_PAIR_ROTATION = np.kron(ROT_X_POS, ROT_X_NEG)
_PAIR_ROTATION_H = _PAIR_ROTATION.conj().T

#: The four Bell kets as columns, in the package-wide ordering.
_BELL = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, -1.0],
        [1.0, -1.0, 0.0, 0.0],
    ],
) / np.sqrt(2.0)
#: The four Bell projectors |B_k><B_k|, flat: a pair's flat matrix is its coefficients times these.
_BELL_PROJECTORS = np.einsum("ik,jk->kij", _BELL, _BELL).reshape(4, 16)
#: The change to the Bell basis of a flat 4 x 4 matrix: vec(B^T rho B) = kron(B^T, B^T) vec(rho).
_TO_BELL = np.kron(_BELL.T, _BELL.T)
_OFF_DIAGONAL = ~np.eye(4, dtype=bool).reshape(16)

_BRANCH_EPS = 1e-15


def _rotated_projectors() -> np.ndarray:
    """The Bell projectors after the rotation-based step's rotations, flat and real.

    The rotations permute the Bell states, so any imaginary part is rounding:
    above 1e-15 raises :class:`NumericError`.
    """
    rotated = _PAIR_ROTATION @ _BELL_PROJECTORS.reshape(4, 4, 4) @ _PAIR_ROTATION_H
    imaginary = np.abs(rotated.imag).max()
    if not imaginary <= 1e-15:
        raise NumericError(f"rotated Bell projectors have imaginary parts up to {imaginary:.3e}")
    return rotated.real.reshape(4, 16).copy()


def _product_gathers(layout: str) -> tuple[np.ndarray, np.ndarray]:
    """(16, 16) indices into a flat (2, 4, 4) pair stack that gather each pair's factor.

    ``layout`` is an einsum of the first pair's bits ``ijkl`` (rows of qubits 0
    and 1, columns of 0 and 1) and the second's ``mnop`` (qubits 2 and 3) that
    lays out their product; it runs here on flat indices and ones.
    """
    index, ones = np.arange(32).reshape(2, 2, 2, 2, 2), np.ones((2, 2, 2, 2), dtype=int)
    first = np.einsum(layout, index[0], ones)
    second = np.einsum(layout, ones, index[1])
    return first.reshape(16, 16), second.reshape(16, 16)


def _on_flat_pair(channel) -> np.ndarray:
    """The 16 x 16 matrix of a linear map of 4 x 4 matrices, acting on them flat."""
    return np.array([channel(basis.reshape(4, 4)).reshape(16) for basis in np.eye(16)]).T


#: Connection's product: rows are qubits (1, 2) flat, columns qubits (0, 3) flat.
_CONNECT_GATHERS = _product_gathers("ijkl,mnop->jmloinkp")
#: Connection's noisy CNOT (1 -> 2) and the basis change on qubit 1, as one gate G, and
#: the rows of kron(G, G) that give its middle-node diagonal block for each outcome.
_BELL_MEASUREMENT = np.kron(HADAMARD, I2) @ CNOT
_MIDDLE_BLOCKS = np.kron(_BELL_MEASUREMENT, _BELL_MEASUREMENT)[::5]
#: Connection's Pauli correction on qubit 3 for readings m1, m2 of qubits 1, 2 (entry
#: 2*m1 + m2), as one map from the four stacked flat branches of qubits (0, 3) to their
#: corrected sum in the Bell basis; stacked with that map through the correction's noise term.
_PAULI_CORRECTIONS = np.concatenate(
    [np.kron(np.kron(I2, c), np.kron(I2, c)) for c in (I2, X, Z, Z @ X)], axis=1)
_QUBIT_3_MIXING = _on_flat_pair(
    lambda rho: np.kron(np.trace(rho.reshape(2, 2, 2, 2), axis1=1, axis2=3), I2 / 2))
_CORRECTIONS = np.stack((_TO_BELL @ _PAULI_CORRECTIONS,
                         _TO_BELL @ _QUBIT_3_MIXING @ _PAULI_CORRECTIONS))
del _PAULI_CORRECTIONS, _QUBIT_3_MIXING

#: Purification's product after both CNOTs: rows are qubits (0, 2) flat, columns (1, 3)
#: flat, and each CNOT is kron(CNOT, CNOT) on its side, a permutation.
_CNOT_ON_FLAT_PAIR = np.kron(CNOT, CNOT).argmax(axis=1)
_PURIFY_GATHERS = tuple(gather[np.ix_(_CNOT_ON_FLAT_PAIR, _CNOT_ON_FLAT_PAIR)]
                        for gather in _product_gathers("ijkl,mnop->imkojnlp"))
#: The identity and the two-qubit gate noise term, vec(I/4) tr(rho), on a flat pair.
_FLAT_IDENTITY = np.eye(16)
_PAIR_MIXING = _on_flat_pair(lambda rho: np.trace(rho) * np.eye(4) / 4)
#: The rotation-based step's input projectors.
_ROTATED_PROJECTORS = _rotated_projectors()
#: Purification's readout: with rows (0, 2) and columns (1, 3) of the state as row and column
#: bits, outcome 2x + y of reading x and y keeps the block ``state[i x k x, j y l y]``, the kept
#: pair's ``ijkl``; row 2x + y holds that block's entries in the flat state.
_PURIFY_READ = np.einsum("ixkxjyly->xyijkl", np.arange(256).reshape((2,) * 8)).reshape(4, 16)

#: Misreads of reading m on outcome a of two qubits, both indexed 2 * first + second.
_MISREADS = np.array([[bin(m ^ a).count("1") for a in range(4)] for m in range(4)])


def _readings(outcomes: np.ndarray, eta: float, p: float = 1.0):
    """Weights of two qubits' four readings on their four outcomes, and the readings' probabilities.

    ``outcomes`` holds the outcomes' probabilities, the first qubit's bit
    major.  Row m weights an outcome by eta per qubit read right and 1 - eta
    per misread; with ``p < 1``, p times that plus (1 - p)/4, which is gate
    noise on both qubits just before the readout.  A reading is dropped,
    its row and probability set to 0, when its probability or that of its
    first reading is below 1e-15.
    """
    right, wrong = eta, 1.0 - eta
    mixed = 0.25 * (1.0 - p)
    weights = np.array((p * right * right + mixed, p * right * wrong + mixed,
                        p * wrong * wrong + mixed))[_MISREADS]
    probs = weights @ outcomes
    if not probs.min() >= _BRANCH_EPS:  # NaN is dropped too
        first = probs.reshape(2, 2).sum(axis=1).repeat(2)
        dropped = ~((probs >= _BRANCH_EPS) & (first >= _BRANCH_EPS))
        weights[dropped] = 0.0
        probs[dropped] = 0.0
    return weights, probs


def _bell_diagonal(in_bell: np.ndarray) -> np.ndarray:
    """The diagonal of a flat 4 x 4 matrix in the Bell basis, checked to be all it holds.

    An off-diagonal element above 1e-12 raises :class:`NumericError`.
    """
    off_diagonal = np.abs(in_bell[_OFF_DIAGONAL]).max()
    if not off_diagonal <= 1e-12:  # NaN fails too
        raise NumericError(
            f"state is not Bell-diagonal: off-diagonal Bell-basis element "
            f"{off_diagonal:.3e} exceeds 1e-12"
        )
    return in_bell[::5].real.copy()


def oracle_connect(pair_ab: BellDiagonalState, pair_bc: BellDiagonalState,
                   noise: NoiseParams, twirl_output: bool = True) -> BellDiagonalState:
    """Join two pairs by a noisy Bell measurement at the shared middle node.

    Qubits 1 and 2 sit at the middle node.  The Bell measurement is a noisy
    CNOT (1 -> 2) followed by a perfect basis change on the control, applied
    as one noisy gate, and two noisy readouts.  The middle node is traced
    out of all four reading branches, and the reading-conditioned Pauli
    corrections act on the remaining pair's qubit 3 as noisy one-qubit
    gates; the unnormalized branches, whose traces are their probabilities,
    are summed.  By default the resulting pair is depolarized to Werner
    form; with ``twirl_output=False`` the raw Bell-diagonal coefficients are
    returned.
    """
    require_type("noise", noise, NoiseParams)
    require_type("pair_ab", pair_ab, BellDiagonalState)
    require_type("pair_bc", pair_bc, BellDiagonalState)
    pairs = (np.array((pair_ab.coeffs, pair_bc.coeffs)) @ _BELL_PROJECTORS).reshape(32)
    first, second = _CONNECT_GATHERS
    blocks = _MIDDLE_BLOCKS @ (pairs[first] * pairs[second])  # flat 4 x 4 of qubits (0, 3)
    weights, _ = _readings(blocks[:, ::5].sum(axis=1), noise.eta, noise.p2)
    corrected = _CORRECTIONS @ (weights @ blocks).reshape(64)
    coeffs = _bell_diagonal(np.array((noise.p1, 1.0 - noise.p1)) @ corrected)

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
    of opposite sign on the two nodes, through the rotated Bell projectors
    that both pairs are built from: the model leaves the one-qubit gate
    noise p1 out of purification, and each rotation acts within its own pair.
    """
    maps.require_protocol(protocol)
    require_type("noise", noise, NoiseParams)
    require_type("kept", kept, BellDiagonalState)
    require_type("sacrificed", sacrificed, BellDiagonalState)
    projectors = _ROTATED_PROJECTORS if protocol == "deutsch" else _BELL_PROJECTORS
    pairs = (np.array((kept.coeffs, sacrificed.coeffs)) @ projectors).reshape(32)
    first, second = _PURIFY_GATHERS
    state = pairs[first] * pairs[second]
    if noise.p2 != 1.0:  # each CNOT's noise, on its side
        channel = noise.p2 * _FLAT_IDENTITY + (1.0 - noise.p2) * _PAIR_MIXING
        state = channel @ state @ channel.T

    blocks = state.reshape(256)[_PURIFY_READ] @ _TO_BELL.T  # kept pair, Bell basis
    weights, probs = _readings(blocks[:, ::5].sum(axis=1), noise.eta)
    p_succ = float(probs[0] + probs[3])
    if p_succ < _BRANCH_EPS:
        raise DegeneratePostSelectionError(
            "post-selection kept no probability mass; degenerate parameter regime"
        )
    coeffs = _bell_diagonal((weights[0] + weights[3]) @ blocks / p_succ)
    return p_succ, BellDiagonalState(tuple(coeffs.tolist()))


#: The check grid (module docstring): the pairs 0.15 + 0.4 e_i, and the nodes of the inputs
#: of degree 1 (p1 and p2 in connection) and of degree 2 (the rest).
_GRID_PAIRS = tuple(tuple(0.15 + 0.4 * (i == j) for j in range(4)) for i in range(4))
_GRID_DEGREE_1 = (0.5, 1.0)
_GRID_DEGREE_2 = (0.5, 0.75, 1.0)


def closed_form_deviations() -> dict[str, tuple[float, str]]:
    """Worst ``|closed form - oracle|`` of each kernel the engine runs, on the check grid.

    ``connect_coeffs`` (all coefficients) and both steps of ``purify_coeffs``
    (``p_succ`` and coefficients, at p1 = 1) on every two grid pairs, and
    ``connect_L(F, 2, noise)`` and ``werner_step`` (at p1 = 1) on two Werner
    pairs; a NaN counts as infinite.
    Returns, in check order, each map's label -> (its worst deviation, the
    node where it occurs: the indices i of its pairs, or F, and the noise).
    """
    found: dict[str, tuple[float, str]] = {}

    def record(name, node, noise, got, want):
        gaps = [abs(a - b) for a, b in zip(got, want)]
        deviation = math.inf if any(map(math.isnan, gaps)) else max(gaps)
        if name not in found or deviation > found[name][0]:
            found[name] = (deviation, f"{node}, p1={noise.p1:g} p2={noise.p2:g} "
                                      f"eta={noise.eta:g}")

    pairs = list(enumerate(BellDiagonalState(pair) for pair in _GRID_PAIRS))
    connect_noises = [NoiseParams(*node) for node in
                      itertools.product(_GRID_DEGREE_1, _GRID_DEGREE_1, _GRID_DEGREE_2)]
    for (i, first), (j, second) in itertools.product(pairs, repeat=2):
        for noise in connect_noises:
            got = oracle_connect(first, second, noise, twirl_output=False).coeffs
            record("connection coefficients", f"pairs (e{i}, e{j})", noise, got,
                   maps.connect_coeffs(first.coeffs, second.coeffs, noise))
    for f in _GRID_DEGREE_2:
        werner = BellDiagonalState(werner_coeffs(f))
        for noise in connect_noises:
            got = oracle_connect(werner, werner, noise, twirl_output=False).fidelity
            record("connection fidelity", f"F={f:g}", noise, (got,),
                   (maps.connect_L(f, 2, noise),))
    for protocol in maps.PROTOCOLS:
        for (i, kept), (j, sacrificed) in itertools.product(pairs, repeat=2):
            for p2, eta in itertools.product(_GRID_DEGREE_2, _GRID_DEGREE_2):
                noise = NoiseParams(1.0, p2, eta)
                p_succ, out = oracle_purify(kept, sacrificed, noise, protocol)
                want_p, want = maps.purify_coeffs(kept.coeffs, sacrificed.coeffs, noise, protocol)
                record(f"{protocol} purification", f"pairs (e{i}, e{j})", noise,
                       (p_succ, *out.coeffs), (want_p, *want))
    for f, p2, eta in itertools.product(_GRID_DEGREE_2, repeat=3):
        werner, noise = BellDiagonalState(werner_coeffs(f)), NoiseParams(1.0, p2, eta)
        p_succ, out = oracle_purify(werner, werner, noise, "bennett")
        record("Werner purification", f"F={f:g}", noise, (p_succ, out.fidelity),
               maps.werner_step(f, noise))
    return found
