import itertools

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qrepeater import maps, oracle as orc
from qrepeater.errors import DegeneratePostSelectionError, NumericError, ValidationError
from qrepeater.states import BellDiagonalState, NoiseParams, WernerState

PERFECT = NoiseParams()


def random_density_matrix(rng, n_qubits):
    dim = 2 ** n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def assert_density_matrix(rho):
    """Hermitian, unit trace and positive within 1e-10."""
    assert np.abs(rho - rho.conj().T).max() <= 1e-10
    assert abs(np.trace(rho).real - 1.0) <= 1e-10
    assert np.linalg.eigvalsh(rho).min() >= -1e-10


def choi_matrix(channel, n_qubits):
    """Choi matrix of ``channel`` (a function on 2^n x 2^n density matrices)."""
    dim = 2 ** n_qubits
    choi = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            basis = np.zeros((dim, dim), dtype=complex)
            basis[i, j] = 1.0
            choi += np.kron(basis, channel(basis))
    return choi


# Dense reference: the oracle's former primitives, which build every operator
# on the full register with kron.  The contraction primitives must match it.


def _to_register_order(op, targets):
    """Permute an operator on (targets..., rest...) into register order."""
    n = op.shape[0].bit_length() - 1
    order = list(targets) + [q for q in range(n) if q not in targets]
    perm = [order.index(q) for q in range(n)]
    tensor = op.reshape((2,) * (2 * n)).transpose(perm + [n + p for p in perm])
    return tensor.reshape(op.shape)


def embed(op, n_qubits, targets):
    """Expand an operator acting on ``targets`` (in their tensor order) to the register."""
    k = len(targets)
    full = np.kron(op, np.eye(2 ** (n_qubits - k), dtype=complex))
    return _to_register_order(full, tuple(targets))


def dense_partial_trace(rho, keep):
    n = rho.shape[0].bit_length() - 1
    tensor = rho.reshape((2,) * (2 * n))
    # descending order keeps each remaining qubit's row axis at its original index
    for q in sorted(set(range(n)) - set(keep), reverse=True):
        tensor = np.trace(tensor, axis1=q, axis2=q + tensor.ndim // 2)
    k = len(keep)
    ascending = sorted(keep)
    perm = [ascending.index(q) for q in keep]
    return tensor.transpose(perm + [k + p for p in perm]).reshape(2 ** k, 2 ** k)


def _mix_targets(rho, targets):
    """Replace ``targets`` by the maximally mixed state, keeping their marginal."""
    n = rho.shape[0].bit_length() - 1
    rest = tuple(q for q in range(n) if q not in targets)
    if not rest:
        return np.trace(rho) * np.eye(rho.shape[0], dtype=complex) / rho.shape[0]
    k = len(targets)
    mixed = np.kron(np.eye(2 ** k, dtype=complex) / 2 ** k, dense_partial_trace(rho, rest))
    return _to_register_order(mixed, tuple(targets))


def dense_noisy_gate(rho, gate, targets, p):
    u = embed(gate, rho.shape[0].bit_length() - 1, targets)
    ideal = u @ rho @ u.conj().T
    if p == 1.0:
        return ideal
    return p * ideal + (1.0 - p) * _mix_targets(ideal, targets)


def dense_noisy_measure(rho, target, eta):
    n = rho.shape[0].bit_length() - 1
    proj = [embed(np.diag(e).astype(complex), n, (target,)) for e in ([1, 0], [0, 1])]
    collapsed = [p @ rho @ p for p in proj]
    branches = []
    for reading in (0, 1):
        post = eta * collapsed[reading] + (1.0 - eta) * collapsed[1 - reading]
        prob = float(np.trace(post).real)
        if prob >= 1e-15:
            branches.append((reading, prob, post / prob))
    return branches


def dense_two_readouts(rho, targets, eta):
    """{(m1, m2): (probability, unnormalized branch)} of two nested dense readouts."""
    return {(m1, m2): (prob1 * prob2, prob1 * prob2 * rho2)
            for m1, prob1, rho1 in dense_noisy_measure(rho, targets[0], eta)
            for m2, prob2, rho2 in dense_noisy_measure(rho1, targets[1], eta)}


def dense_bell_kets():
    """The Bell kets phi+, phi-, psi+, psi- built with kron, as columns."""
    e0, e1 = np.eye(2, dtype=complex)
    return np.array([(np.kron(e0, x) + sign * np.kron(e1, y)) / np.sqrt(2.0)
                     for x, y in ((e0, e1), (e1, e0)) for sign in (1, -1)]).T


def dense_bell_state(coeffs):
    """sum_k c_k |B_k><B_k| over the Bell kets built with kron."""
    return sum(c * np.outer(ket, ket.conj()) for c, ket in zip(coeffs, dense_bell_kets().T))


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def flat_pairs(rho, rows):
    """A four-qubit matrix as (qubits ``rows``, their 4 x 4 flat) by (the other two, flat)."""
    cols = tuple(q for q in range(4) if q not in rows)
    axes = [rows[0], rows[1], 4 + rows[0], 4 + rows[1], cols[0], cols[1], 4 + cols[0], 4 + cols[1]]
    return rho.reshape((2,) * 8).transpose(axes).reshape(16, 16)


def from_flat_pairs(state, rows):
    """The inverse of :func:`flat_pairs`: the matrix back in register order."""
    cols = tuple(q for q in range(4) if q not in rows)
    axes = [rows[0], rows[1], 4 + rows[0], 4 + rows[1], cols[0], cols[1], 4 + cols[0], 4 + cols[1]]
    return state.reshape((2,) * 8).transpose(np.argsort(axes)).reshape(16, 16)


def gate_noise(p):
    """The two-qubit gate noise channel on a flat pair, as the oracle builds it."""
    return p * orc._FLAT_IDENTITY + (1.0 - p) * orc._PAIR_MIXING


def purification_state(kept, sacrificed, p):
    """The oracle's state after purification's noisy CNOTs, rows (0, 2) and columns (1, 3) flat."""
    pairs = np.array((kept, sacrificed)).reshape(32)
    first, second = orc._PURIFY_GATHERS
    channel = gate_noise(p)
    return channel @ (pairs[first] * pairs[second]) @ channel.T


#: Connection's Pauli correction on qubit 3 for readings (m1, m2), entry 2*m1 + m2.
PAULIS = [orc.I2, orc.X, orc.Z, orc.Z @ orc.X]


def corrected_sum(branches, p):
    """The oracle's noisy corrections of four 4 x 4 branches of qubits (0, 3), summed.

    The oracle's corrections end in the Bell basis; the sum is turned back here.
    """
    in_bell = (np.array((p, 1.0 - p)) @ (orc._CORRECTIONS @ branches.reshape(64))).reshape(4, 4)
    return orc._BELL @ in_bell @ orc._BELL.T


def readout_blocks(rho, targets):
    """The diagonal blocks of ``rho`` on two target qubits, one per outcome, the rest kept."""
    n = rho.shape[0].bit_length() - 1
    rest = tuple(q for q in range(n) if q not in targets)
    blocks = []
    for outcome in itertools.product((0, 1), repeat=2):
        proj = embed(np.diag([1.0 - outcome[0], outcome[0]]).astype(complex), n, targets[:1])
        proj = proj @ embed(np.diag([1.0 - outcome[1], outcome[1]]).astype(complex), n,
                            targets[1:])
        blocks.append(dense_partial_trace(proj @ rho @ proj, rest))
    return np.array(blocks)


def oracle_readout(rho, targets, eta):
    """The oracle's readout of two qubits of ``rho``: branches (rest kept) and probabilities."""
    blocks = readout_blocks(rho, targets)
    weights, probs = orc._readings(np.trace(blocks, axis1=1, axis2=2).real, eta)
    return np.tensordot(weights, blocks, axes=1), probs


seeds = st.integers(0, 2 ** 32 - 1)
# weights of at least 0.01 leave every coherence room of at least 2.5e-11
# below the positivity limit sqrt(c_j c_k)
bell_weights = st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4).map(
    lambda w: np.array(w) / sum(w))
# a register of 2..4 qubits and an ordering of its qubits to draw targets from
registers = st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), st.permutations(range(n))))
gate_weights = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
ALL_PAIRS = list(itertools.permutations(range(4), 2))


class TestAgainstDenseReference:
    """Each of the oracle's gates, noise terms and readouts against the dense reference."""

    @given(seeds, gate_weights)
    def test_one_qubit_gate(self, seed, p):
        # connection's noisy Pauli corrections on qubit 3 of four branches, summed
        rng = np.random.default_rng(seed)
        branches = np.array([rng.random() * random_density_matrix(rng, 2) for _ in range(4)])
        want = sum(dense_noisy_gate(branch, pauli, (1,), p)
                   for branch, pauli in zip(branches, PAULIS))
        assert np.abs(corrected_sum(branches, p) - want).max() <= 1e-13

    @given(seeds, gate_weights)
    def test_two_qubit_gate(self, seed, p):
        # purification's noisy CNOTs (0 -> 2) and (1 -> 3) on any two pair matrices
        rng = np.random.default_rng(seed)
        kept, sacrificed = random_density_matrix(rng, 2), random_density_matrix(rng, 2)
        want = dense_noisy_gate(np.kron(kept, sacrificed), orc.CNOT, (0, 2), p)
        want = dense_noisy_gate(want, orc.CNOT, (1, 3), p)
        got = from_flat_pairs(purification_state(kept, sacrificed, p), (0, 2))
        assert np.abs(got - want).max() <= 1e-13

    @pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda pair: f"{pair[0]}-{pair[1]}")
    def test_two_qubit_gate_on_every_ordered_pair(self, pair):
        # with a pair's qubits flat on one side, its gate is kron(G, conj G) and its
        # noise the oracle's channel, on that side; reversed and non-adjacent pairs such
        # as (2, 0) and (3, 1) included
        rng = np.random.default_rng(ALL_PAIRS.index(pair))
        rho, gate = random_density_matrix(rng, 4), random_unitary(rng, 4)
        for p in (1.0, 0.9, 0.0):
            state = gate_noise(p) @ np.kron(gate, gate.conj()) @ flat_pairs(rho, pair)
            want = dense_noisy_gate(rho, gate, pair, p)
            assert np.abs(from_flat_pairs(state, pair) - want).max() <= 1e-13

    @given(seeds, registers, st.one_of(st.just(0.5), st.just(1.0), st.floats(0.5, 1.0)))
    def test_readout(self, seed, register, eta):
        # the probabilities of the first reading are those of one dense readout
        n, order = register
        rho = random_density_matrix(np.random.default_rng(seed), n)
        blocks = readout_blocks(rho, tuple(order[:2]))
        _, probs = orc._readings(np.trace(blocks, axis1=1, axis2=2).real, eta)
        first = probs.reshape(2, 2).sum(axis=1)
        for reading, want_prob, _ in dense_noisy_measure(rho, order[0], eta):
            assert abs(first[reading] - want_prob) <= 1e-13

    @staticmethod
    def check_two_qubit_readout(rho, targets, eta):
        """Both readings at once against two nested dense readouts, rest kept."""
        n = rho.shape[0].bit_length() - 1
        rest = tuple(q for q in range(n) if q not in targets)
        branches, probs = oracle_readout(rho, targets, eta)
        want = dense_two_readouts(rho, targets, eta)
        omitted = 0
        for index, reading in enumerate(itertools.product((0, 1), repeat=2)):
            if reading not in want:  # dropped: exactly zero
                omitted += 1
                assert probs[index] == 0.0 and not branches[index].any()
                continue
            want_prob, want_branch = want[reading]
            assert abs(probs[index] - want_prob) <= 1e-13
            assert np.abs(branches[index] - dense_partial_trace(want_branch, rest)).max() <= 1e-13
        return omitted

    @given(seeds, registers, st.one_of(st.just(0.5), st.just(1.0), st.floats(0.5, 1.0)))
    def test_two_qubit_readout(self, seed, register, eta):
        n, order = register
        rho = random_density_matrix(np.random.default_rng(seed), n)
        self.check_two_qubit_readout(rho, tuple(order[:2]), eta)

    def test_two_qubit_readout_drops_what_the_reference_omits(self):
        rng = np.random.default_rng(13)
        ground = np.diag([1.0, 0.0])
        # qubit 0 in |0>: a perfect reading 1 of it is omitted with both second readings;
        # |00> on qubits (1, 2): reading 0 of qubit 1 is kept, and (0, 1) omitted after it
        first = np.kron(ground, random_density_matrix(rng, 2))
        second = np.kron(random_density_matrix(rng, 1), np.kron(ground, ground))
        assert self.check_two_qubit_readout(first, (0, 2), 1.0) == 2
        assert self.check_two_qubit_readout(second, (1, 2), 1.0) == 3
        assert self.check_two_qubit_readout(first, (0, 2), 0.9) == 0
        # a rounding-size negative probability: reading (1, 0) is above 1e-15 and still
        # dropped, as its first reading's probability 5e-16 is below
        odd = np.diag([0.5, 0.5 - 5e-16, 2e-15, -1.5e-15])
        assert self.check_two_qubit_readout(odd, (0, 1), 1.0) == 2

    @given(seeds, registers, st.one_of(st.just(0.5), st.just(1.0), st.floats(0.5, 1.0)))
    def test_partial_trace(self, seed, register, eta):
        # reading two qubits and summing every reading's branch traces them out
        n, order = register
        rho = random_density_matrix(np.random.default_rng(seed), n)
        targets = tuple(order[:2])
        branches, _ = oracle_readout(rho, targets, eta)
        want = dense_partial_trace(rho, tuple(q for q in range(n) if q not in targets))
        assert np.abs(branches.sum(axis=0) - want).max() <= 1e-13


class TestFoldedConstants:
    """The basis changes the oracle builds at import, against the kron-built reference."""

    def test_rotated_projectors_are_the_dense_rotations(self):
        assert not np.iscomplexobj(orc._ROTATED_PROJECTORS)
        for projector, coeffs in zip(orc._ROTATED_PROJECTORS, np.eye(4)):
            want = dense_noisy_gate(dense_bell_state(coeffs), orc.ROT_X_POS, (0,), 1.0)
            want = dense_noisy_gate(want, orc.ROT_X_NEG, (1,), 1.0)
            assert np.abs(projector.reshape(4, 4) - want).max() <= 1e-15

    @given(seeds)
    def test_readout_is_the_read_blocks_in_the_bell_basis(self, seed):
        # purification's state, rows (0, 2) and columns (1, 3) flat, read on qubits 2 and 3
        rho = random_density_matrix(np.random.default_rng(seed), 4)
        got = flat_pairs(rho, (0, 2)).reshape(256)[orc._PURIFY_READ] @ orc._TO_BELL.T
        got = got.reshape(4, 4, 4)
        kets = dense_bell_kets()
        want = [kets.conj().T @ block @ kets for block in readout_blocks(rho, (2, 3))]
        assert np.abs(got - np.array(want)).max() <= 1e-13


class TestNoiseParams:
    def test_ranges(self):
        with pytest.raises(ValidationError):
            NoiseParams(p1=1.2)
        with pytest.raises(ValidationError):
            NoiseParams(p2=-0.1)
        with pytest.raises(ValidationError):
            NoiseParams(eta=0.4)

    def test_uniform(self):
        q = NoiseParams.uniform(0.99)
        assert (q.p1, q.p2, q.eta) == (0.99, 0.99, 0.99)


class TestOneQubitNoise:
    """Connection's corrections on qubit 3 and their noise."""

    def test_p1_one_is_ideal(self):
        rng = np.random.default_rng(3)
        branches = np.array([random_density_matrix(rng, 2) for _ in range(4)])
        ideal = sum(np.kron(orc.I2, pauli) @ branch @ np.kron(orc.I2, pauli).T
                    for branch, pauli in zip(branches, PAULIS))
        assert np.allclose(corrected_sum(branches, 1.0), ideal, atol=1e-14)

    def test_p1_zero_fully_mixes_target(self):
        rng = np.random.default_rng(4)
        branches = np.array([random_density_matrix(rng, 2) / 4 for _ in range(4)])
        out = corrected_sum(branches, 0.0)
        assert np.allclose(dense_partial_trace(out, (1,)), np.eye(2) / 2, atol=1e-12)
        assert np.allclose(dense_partial_trace(out, (0,)),
                           dense_partial_trace(branches.sum(axis=0), (0,)), atol=1e-12)

    def test_identity_gate_on_ground_state(self):
        # reading (0, 0) is corrected by the identity
        branches = np.zeros((4, 4, 4))
        branches[0, 0, 0] = 1.0
        out = corrected_sum(branches, 0.995)
        assert np.allclose(np.diag(out), [0.9975, 0.0025, 0.0, 0.0], atol=1e-15)


class TestTwoQubitNoise:
    """Purification's CNOTs on the flat pairs of both nodes, and their noise."""

    def test_p2_one_is_ideal_cnot(self):
        ket_10 = np.diag([0.0, 0.0, 1.0, 0.0])
        ket_00 = np.diag([1.0, 0.0, 0.0, 0.0])
        # kept |10>, sacrificed |00>: the CNOTs give |1010> on qubits 0..3, that is
        # |11> on node A's qubits (0, 2) and |00> on node B's (1, 3)
        out = purification_state(ket_10, ket_00, 1.0)
        assert out[15, 0] == pytest.approx(1.0) and np.abs(out).sum() == pytest.approx(1.0)

    def test_p2_zero_fully_mixes_pair(self):
        rng = np.random.default_rng(5)
        rho = random_density_matrix(rng, 4)
        out = from_flat_pairs(gate_noise(0.0) @ flat_pairs(rho, (0, 2)), (0, 2))
        assert np.allclose(dense_partial_trace(out, (0, 2)), np.eye(4) / 4, atol=1e-12)
        assert np.allclose(dense_partial_trace(out, (1, 3)),
                           dense_partial_trace(rho, (1, 3)), atol=1e-12)

    def test_noisy_cnot_on_bell_times_zero(self):
        # frozen from a direct evaluation of the noise model: the CNOTs copy the kept
        # phi+ onto |00>, whose trace leaves (|00><00| + |11><11|)/2, phi+ weight 1/2;
        # every noise term leaves I/4, weight 1/4: 0.99**2 / 2 + (1 - 0.99**2) / 4
        bell = dense_bell_state((1.0, 0.0, 0.0, 0.0))
        out = from_flat_pairs(purification_state(bell, np.diag([1.0, 0.0, 0.0, 0.0]), 0.99),
                              (0, 2))
        weight = bell_diagonal(dense_partial_trace(out, (0, 1)))[0]
        assert weight == pytest.approx(0.495025, abs=1e-12)


class TestMeasurement:
    """The readings of two qubits, from their outcomes' probabilities."""

    def test_perfect_readout_of_ground_state(self):
        weights, probs = orc._readings(np.array([1.0, 0.0, 0.0, 0.0]), 1.0)
        # every reading but (0, 0) has probability 0, so its branch is dropped
        assert (probs[1:] == 0.0).all() and not weights[1:].any()
        assert probs[0] == pytest.approx(1.0)
        assert np.array_equal(weights[0], [1.0, 0.0, 0.0, 0.0])

    def test_misread_probability(self):
        _, probs = orc._readings(np.array([1.0, 0.0, 0.0, 0.0]), 0.995)
        # the first qubit read as 1, whatever the second reads
        assert probs[2] + probs[3] == pytest.approx(0.005, abs=1e-15)

    def test_maximally_mixed_is_uniform(self):
        for eta in (1.0, 0.9, 0.75):
            for prob in orc._readings(np.full(4, 0.25), eta)[1]:
                assert prob == pytest.approx(0.25)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(6)
        outcomes = rng.random(4)
        outcomes /= outcomes.sum()
        for p in (1.0, 0.8):
            assert orc._readings(outcomes, 0.97, p)[1].sum() == pytest.approx(1.0, abs=1e-12)


class TestChannelStructure:
    def test_one_qubit_choi_positive(self):
        # a correction on qubit 3 with its noise, as a channel on one branch
        for m in range(4):
            for p in (1.0, 0.97, 0.5, 0.0):
                def channel(rho, m=m, p=p):
                    branches = np.zeros((4, 4, 4), dtype=complex)
                    branches[m] = rho
                    return corrected_sum(branches, p)
                assert np.linalg.eigvalsh(choi_matrix(channel, 2)).min() > -1e-10

    def test_two_qubit_choi_positive(self):
        for p in (1.0, 0.97, 0.3):
            superop = gate_noise(p) @ np.kron(orc.CNOT, orc.CNOT)
            choi = choi_matrix(lambda rho: (superop @ rho.reshape(16)).reshape(4, 4), 2)
            assert np.linalg.eigvalsh(choi).min() > -1e-10

    def test_operations_preserve_density_matrix(self):
        rng = np.random.default_rng(7)
        kept, sacrificed = random_density_matrix(rng, 2), random_density_matrix(rng, 2)
        assert_density_matrix(from_flat_pairs(purification_state(kept, sacrificed, 0.97),
                                              (0, 2)))


class TestConnect:
    def test_perfect_pairs_perfect_ops(self):
        perfect = BellDiagonalState((1.0, 0.0, 0.0, 0.0))
        out = orc.oracle_connect(perfect, perfect, PERFECT)
        assert out.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_werner_perfect_ops_closed_form(self):
        for f in (0.6, 0.8, 0.95):
            s = WernerState(f).to_bell_diagonal()
            got = orc.oracle_connect(s, s, PERFECT).fidelity
            t = (4 * f - 1) / 3
            assert got == pytest.approx(0.25 + 0.75 * t * t, abs=1e-12)

    def test_output_is_werner_by_default(self):
        s = WernerState(0.9).to_bell_diagonal()
        out = orc.oracle_connect(s, s, NoiseParams(0.99, 0.98, 0.97))
        off = out.coeffs[1:]
        assert max(off) - min(off) < 1e-14

    def test_untwirled_output_preserves_fidelity(self):
        s = WernerState(0.9).to_bell_diagonal()
        noise = NoiseParams(0.99, 0.98, 0.97)
        twirled = orc.oracle_connect(s, s, noise, twirl_output=True)
        raw = orc.oracle_connect(s, s, noise, twirl_output=False)
        assert raw.fidelity == pytest.approx(twirled.fidelity, abs=1e-13)


class TestPurify:
    def test_bennett_perfect_pairs(self):
        perfect = BellDiagonalState((1.0, 0.0, 0.0, 0.0))
        p, out = orc.oracle_purify(perfect, perfect, PERFECT, "bennett")
        assert p == pytest.approx(1.0, abs=1e-12)
        assert out.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_deutsch_ideal_map_pinned(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            v = rng.random(4)
            v /= v.sum()
            s = BellDiagonalState(tuple(v))
            p, out = orc.oracle_purify(s, s, PERFECT, "deutsch")
            a, b, c, d = v
            norm = (a + d) ** 2 + (b + c) ** 2
            expected = ((a * a + d * d) / norm, 2 * a * d / norm,
                        (b * b + c * c) / norm, 2 * b * c / norm)
            assert np.allclose(out.coeffs, expected, atol=1e-12)
            assert p == pytest.approx(norm, abs=1e-12)

    def test_deutsch_beats_bennett_on_second_step(self):
        # one step is identical on Werner inputs; the advantage shows when the
        # non-depolarized output is purified again
        noise = PERFECT
        s = WernerState(0.9).to_bell_diagonal()
        _, out_d = orc.oracle_purify(s, s, noise, "deutsch")
        p_b1, out_b = orc.oracle_purify(s, s, noise, "bennett")
        assert out_d.fidelity == pytest.approx(out_b.fidelity, abs=1e-12)
        _, out_d2 = orc.oracle_purify(out_d, out_d, noise, "deutsch")
        twirled = WernerState(out_b.fidelity).to_bell_diagonal()
        _, out_b2 = orc.oracle_purify(twirled, twirled, noise, "bennett")
        assert out_d2.fidelity > out_b2.fidelity

    def test_p1_does_not_enter_purification(self):
        s = WernerState(0.85).to_bell_diagonal()
        base = NoiseParams(1.0, 0.99, 0.99)
        lossy = NoiseParams(0.6, 0.99, 0.99)
        assert orc.oracle_purify(s, s, base, "bennett") == orc.oracle_purify(
            s, s, lossy, "bennett"
        )

    def test_unknown_protocol_rejected(self):
        s = WernerState(0.9).to_bell_diagonal()
        with pytest.raises(ValidationError):
            orc.oracle_purify(s, s, PERFECT, "magic")


def bell_basis_state(coeffs, coherence=None):
    """Density matrix with the given Bell-basis diagonal and an optional (j, k, z) coherence."""
    in_bell = np.diag(coeffs).astype(complex)
    if coherence is not None:
        j, k, z = coherence
        in_bell[j, k], in_bell[k, j] = z, np.conj(z)
    return orc._BELL @ in_bell @ orc._BELL.conj().T


def checked_bell_diagonal(rho):
    """The circuits' final check, on a 4 x 4 density matrix."""
    return orc._bell_diagonal(orc._TO_BELL @ rho.reshape(16))


class TestBellDiagonalCheck:
    @given(bell_weights)
    def test_bell_diagonal_state_passes(self, coeffs):
        got = checked_bell_diagonal(bell_basis_state(coeffs))
        assert np.abs(got - coeffs).max() <= 1e-15

    def test_nan_state_trips_the_check(self):
        with pytest.raises(NumericError, match="not Bell-diagonal"):
            checked_bell_diagonal(np.full((4, 4), np.nan))

    @given(bell_weights, st.sampled_from(list(itertools.combinations(range(4), 2))),
           st.floats(1e-8, 1.0), st.floats(0.0, 2 * np.pi))
    def test_coherence_between_bell_states_trips_the_check(self, coeffs, pair, scale, phase):
        j, k = pair
        z = scale * np.sqrt(coeffs[j] * coeffs[k]) * np.exp(1j * phase)
        rho = bell_basis_state(coeffs, (j, k, z))
        assert np.linalg.eigvalsh(rho).min() >= -1e-12  # still a state
        with pytest.raises(NumericError, match="not Bell-diagonal"):
            checked_bell_diagonal(rho)


# Dense reference circuits: both circuits spelled out gate by gate with the
# kron-built primitives above, in the literal gate order (the perfect Hadamard
# after the noisy CNOT, four one-qubit rotations, each correction on the full
# register before the trace).  The oracle joins the Hadamard to the CNOT,
# applies that gate's noise on the read blocks, rotates both pairs before the
# product, folds purification's CNOTs into the product's indices, traces out
# the middle node before the corrections and adds their noise once, to the
# sum; all of these are exact, so the two must agree.

reliabilities = st.one_of(st.just(1.0), st.floats(0.0, 1.0))
readout_qualities = st.one_of(st.just(1.0), st.just(0.5), st.floats(0.5, 1.0))
noises = st.builds(NoiseParams, reliabilities, reliabilities, readout_qualities)
SKEWED = np.array([0.55, 0.2, 0.15, 0.1])


def bell_diagonal(rho):
    return np.real(np.diag(orc._BELL.conj().T @ rho @ orc._BELL))


def dense_connect(pair_ab, pair_bc, noise):
    rho = np.kron(pair_ab, pair_bc)
    rho = dense_noisy_gate(rho, orc.CNOT, (1, 2), noise.p2)
    rho = dense_noisy_gate(rho, orc.HADAMARD, (1,), 1.0)
    averaged = np.zeros_like(rho)
    for m1, prob1, rho1 in dense_noisy_measure(rho, 1, noise.eta):
        for m2, prob2, rho2 in dense_noisy_measure(rho1, 2, noise.eta):
            correction = (orc.Z if m1 else orc.I2) @ (orc.X if m2 else orc.I2)
            averaged += prob1 * prob2 * dense_noisy_gate(rho2, correction, (3,), noise.p1)
    return dense_partial_trace(averaged, (0, 3))


def dense_purify(kept, sacrificed, noise, protocol):
    rho = np.kron(kept, sacrificed)
    if protocol == "deutsch":
        for qubit, gate in ((0, orc.ROT_X_POS), (2, orc.ROT_X_POS),
                            (1, orc.ROT_X_NEG), (3, orc.ROT_X_NEG)):
            rho = dense_noisy_gate(rho, gate, (qubit,), 1.0)
    rho = dense_noisy_gate(rho, orc.CNOT, (0, 2), noise.p2)
    rho = dense_noisy_gate(rho, orc.CNOT, (1, 3), noise.p2)
    kept_sum, p_succ = np.zeros_like(rho), 0.0
    for m2, prob2, rho2 in dense_noisy_measure(rho, 2, noise.eta):
        for m3, prob3, rho3 in dense_noisy_measure(rho2, 3, noise.eta):
            if m2 == m3:
                p_succ += prob2 * prob3
                kept_sum += prob2 * prob3 * rho3
    return p_succ, dense_partial_trace(kept_sum / p_succ, (0, 1))


class TestCircuitsAgainstDenseReference:
    @given(first=bell_weights, second=bell_weights, noise=noises)
    @example(first=SKEWED, second=SKEWED[::-1], noise=PERFECT)
    @example(first=SKEWED, second=SKEWED[::-1], noise=NoiseParams(0.9, 0.8, 0.5))
    def test_connect(self, first, second, noise):
        pair_1, pair_2 = BellDiagonalState(tuple(first)), BellDiagonalState(tuple(second))
        got = orc.oracle_connect(pair_1, pair_2, noise, twirl_output=False)
        want = bell_diagonal(dense_connect(dense_bell_state(pair_1.coeffs),
                                           dense_bell_state(pair_2.coeffs), noise))
        assert np.abs(np.array(got.coeffs) - want).max() <= 1e-13

    @pytest.mark.parametrize("protocol", ["bennett", "deutsch"])
    @given(first=bell_weights, second=bell_weights, noise=noises)
    @example(first=SKEWED, second=SKEWED[::-1], noise=PERFECT)
    @example(first=SKEWED, second=SKEWED[::-1], noise=NoiseParams(1.0, 0.8, 0.5))
    def test_purify(self, protocol, first, second, noise):
        kept, sacrificed = BellDiagonalState(tuple(first)), BellDiagonalState(tuple(second))
        p_succ, out = orc.oracle_purify(kept, sacrificed, noise, protocol)
        want_p, want = dense_purify(dense_bell_state(kept.coeffs),
                                    dense_bell_state(sacrificed.coeffs), noise, protocol)
        assert abs(p_succ - want_p) <= 1e-13
        assert np.abs(np.array(out.coeffs) - bell_diagonal(want)).max() <= 1e-13


    @pytest.mark.parametrize("protocol", ["bennett", "deutsch"])
    def test_dropped_branches_on_pure_bell_pairs(self, monkeypatch, protocol):
        # with perfect readout, pure Bell inputs leave readings of probability 0 (a
        # bit flip on one side always flips the readings' agreement), and every
        # dropped branch must agree with the nested dense readouts, which omit them
        dropped = []
        readings = orc._readings

        def spy(outcomes, eta, p=1.0):
            weights, probs = readings(outcomes, eta, p)
            dropped.append(int((probs == 0.0).sum()))
            return weights, probs

        monkeypatch.setattr(orc, "_readings", spy)
        for kept, sacrificed in itertools.product(np.eye(4), repeat=2):
            states = BellDiagonalState(tuple(kept)), BellDiagonalState(tuple(sacrificed))
            matrices = [dense_bell_state(state.coeffs) for state in states]
            with np.errstate(divide="ignore", invalid="ignore"):  # p_succ 0 divides by 0
                want_p, want = dense_purify(*matrices, PERFECT, protocol)
            if want_p < 1e-15:
                with pytest.raises(DegeneratePostSelectionError):
                    orc.oracle_purify(*states, PERFECT, protocol)
                continue
            p_succ, out = orc.oracle_purify(*states, PERFECT, protocol)
            assert abs(p_succ - want_p) <= 1e-13
            assert np.abs(np.array(out.coeffs) - bell_diagonal(want)).max() <= 1e-13
        assert len(dropped) == 16 and all(count == 2 for count in dropped)


class TestClosedFormsOnTheGrid:
    """The shipped check runs a grid as fine as the closed forms' degrees.

    Each pair enters both sides affinely (purification's ``p_succ`` and
    ``p_succ`` times its vector); eta enters with degree 2, p2 with degree 1
    in connection and 2 in purification, p1 with degree 1 in connection only,
    and a Werner pair's fidelity with degree 2 in a connection of two and in
    the scalar Werner step (``maps.werner_step``, p2 and eta likewise 2).  So a
    tensor grid with one node more than each degree, affinely independent
    pairs, and both purification steps makes equality there equality
    everywhere.  The calls ``closed_form_deviations`` makes are read off the
    circuits, so the test holds the shipped grid, not a copy of it.
    """

    @staticmethod
    def tensor_nodes(calls, degrees):
        """Each input's nodes, checked to hold one more than its degree and to span ``calls``."""
        assert len(set(calls)) == len(calls)
        nodes = [sorted({call[k] for call in calls}) for k in range(len(degrees))]
        assert [len(values) for values in nodes] == [degree + 1 for degree in degrees]
        assert set(calls) == set(itertools.product(*nodes))
        return nodes

    @staticmethod
    def run_shipped_check(monkeypatch):
        """The check's worst deviation per map, and the circuit calls it made."""
        connects, purifies = [], []
        oracle_connect, oracle_purify = orc.oracle_connect, orc.oracle_purify

        def connect_spy(first, second, noise, **options):
            connects.append((first.coeffs, second.coeffs, noise.p1, noise.p2, noise.eta))
            return oracle_connect(first, second, noise, **options)

        def purify_spy(kept, sacrificed, noise, protocol):
            purifies.append((kept.coeffs, sacrificed.coeffs, noise.p1, noise.p2, noise.eta,
                             protocol))
            return oracle_purify(kept, sacrificed, noise, protocol)

        monkeypatch.setattr(orc, "oracle_connect", connect_spy)
        monkeypatch.setattr(orc, "oracle_purify", purify_spy)
        worst = {name: deviation for name, (deviation, _) in orc.closed_form_deviations().items()}
        return worst, connects, purifies

    def test_connection_full_vector(self, monkeypatch):
        worst, connects, _ = self.run_shipped_check(monkeypatch)
        assert worst["connection coefficients"] <= 1e-12
        assert worst["connection fidelity"] <= 1e-12
        # the grid pairs are affinely independent (linearly, as each sums to 1); on them
        # connection runs p1 and p2 (degree 1) and eta (2)
        pairs = set(orc._GRID_PAIRS)
        assert len(pairs) == 4 and np.linalg.matrix_rank(np.array(sorted(pairs))) == 4
        on_pairs = [call for call in connects if {call[0], call[1]} <= pairs]
        assert len(on_pairs) == 192
        first, second, *noise_nodes = self.tensor_nodes(on_pairs, (3, 3, 1, 1, 2))
        assert first == second == sorted(pairs)
        # the rest: two equal Werner pairs, whose fidelity (2) runs on the same noise nodes
        werner = [call for call in connects if call not in on_pairs]
        assert len(werner) == 36
        assert all(first == second and len(set(first[1:])) == 1 for first, second, *_ in werner)
        by_fidelity = [(first[0], *noise) for first, _, *noise in werner]
        assert self.tensor_nodes(by_fidelity, (2, 1, 1, 2))[1:] == noise_nodes

    def test_purification_vector_and_success_probability(self, monkeypatch):
        worst, _, purifies = self.run_shipped_check(monkeypatch)
        assert all(worst[f"{protocol} purification"] <= 1e-12 for protocol in maps.PROTOCOLS)
        pairs = set(orc._GRID_PAIRS)
        on_pairs = [call for call in purifies if {call[0], call[1]} <= pairs]
        assert len(on_pairs) == 288
        # the two pairs (affine, so 4 nodes each), p1 (degree 0), p2 and eta (2), and
        # both protocols
        kept, sacrificed, p1, *_, protocols = self.tensor_nodes(on_pairs, (3, 3, 0, 2, 2, 1))
        assert kept == sacrificed == sorted(pairs)
        assert np.linalg.matrix_rank(np.array(kept)) == 4
        assert p1 == [1.0] and protocols == sorted(maps.PROTOCOLS)

    def test_werner_step(self, monkeypatch):
        worst, _, purifies = self.run_shipped_check(monkeypatch)
        assert worst["Werner purification"] <= 1e-12
        # the rest: the twirl-based step on two equal Werner pairs at p1 = 1, whose
        # fidelity, p2 and eta (degree 2 each) run on the grid's degree-2 nodes
        werner = [call for call in purifies if not {call[0], call[1]} <= set(orc._GRID_PAIRS)]
        assert len(werner) == 27
        assert all(kept == sacrificed and len(set(kept[1:])) == 1 and p1 == 1.0
                   and protocol == "bennett" for kept, sacrificed, p1, *_, protocol in werner)
        by_fidelity = [(kept[0], p2, eta) for kept, _, _, p2, eta, _ in werner]
        nodes = self.tensor_nodes(by_fidelity, (2, 2, 2))
        assert nodes == [sorted(orc._GRID_DEGREE_2)] * 3


class TestRealArithmetic:
    """Every gate of the circuits is real but the rotation-based step's rotation."""

    @pytest.mark.parametrize("circuit", ["connect", "bennett", "deutsch"])
    @pytest.mark.parametrize("noise", [PERFECT, NoiseParams(0.9, 0.8, 0.5)],
                             ids=["perfect", "noisy"])
    def test_only_the_rotation_gets_a_complex_array(self, monkeypatch, circuit, noise):
        complex_constants = {name for name, value in vars(orc).items()
                             if isinstance(value, np.ndarray) and np.iscomplexobj(value)}
        assert complex_constants == {"ROT_X_POS", "ROT_X_NEG", "_PAIR_ROTATION",
                                     "_PAIR_ROTATION_H"}
        # the state each circuit ends in is real: the rotations act only on the rotated
        # projectors, built at import and stored real, so no call enters complex arithmetic
        final = []
        bell_diagonal = orc._bell_diagonal

        def spy(in_bell):
            final.append(np.iscomplexobj(in_bell))
            return bell_diagonal(in_bell)

        monkeypatch.setattr(orc, "_bell_diagonal", spy)
        first, second = BellDiagonalState(tuple(SKEWED)), BellDiagonalState(tuple(SKEWED[::-1]))
        if circuit == "connect":
            orc.oracle_connect(first, second, noise, twirl_output=False)
        else:
            orc.oracle_purify(first, second, noise, circuit)
        assert final == [False]
