import itertools

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qrepeater import oracle as orc
from qrepeater.errors import NumericError, ValidationError
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


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


seeds = st.integers(0, 2 ** 32 - 1)
# a register of 2..4 qubits and an ordering of its qubits to draw targets from
registers = st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), st.permutations(range(n))))
gate_weights = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
ALL_PAIRS = list(itertools.permutations(range(4), 2))


class TestAgainstDenseReference:
    @given(seeds, registers, gate_weights)
    def test_one_qubit_gate(self, seed, register, p):
        rng = np.random.default_rng(seed)
        n, order = register
        rho, gate = random_density_matrix(rng, n), random_unitary(rng, 2)
        got = orc.apply_noisy_gate(rho, gate, (order[0],), p)
        assert np.abs(got - dense_noisy_gate(rho, gate, (order[0],), p)).max() <= 1e-13

    @given(seeds, registers, gate_weights)
    def test_two_qubit_gate(self, seed, register, p):
        rng = np.random.default_rng(seed)
        n, order = register
        rho, gate = random_density_matrix(rng, n), random_unitary(rng, 4)
        got = orc.apply_noisy_gate(rho, gate, order[:2], p)
        assert np.abs(got - dense_noisy_gate(rho, gate, order[:2], p)).max() <= 1e-13

    @pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda pair: f"{pair[0]}-{pair[1]}")
    def test_two_qubit_gate_on_every_ordered_pair(self, pair):
        # reversed and non-adjacent pairs such as (2, 0) and (3, 1) included
        rng = np.random.default_rng(ALL_PAIRS.index(pair))
        rho, gate = random_density_matrix(rng, 4), random_unitary(rng, 4)
        for p in (1.0, 0.9):
            got = orc.apply_noisy_gate(rho, gate, pair, p)
            assert np.abs(got - dense_noisy_gate(rho, gate, pair, p)).max() <= 1e-13

    @given(seeds, registers, st.one_of(st.just(0.5), st.just(1.0), st.floats(0.5, 1.0)))
    def test_readout(self, seed, register, eta):
        rng = np.random.default_rng(seed)
        n, order = register
        rho = random_density_matrix(rng, n)
        got = orc.noisy_measure(rho, order[0], eta)
        want = dense_noisy_measure(rho, order[0], eta)
        assert [reading for reading, _, _ in got] == [reading for reading, _, _ in want]
        for (_, prob, post), (_, want_prob, want_post) in zip(got, want):
            assert abs(prob - want_prob) <= 1e-13
            assert np.abs(post - want_post).max() <= 1e-13

    @given(seeds, registers, st.integers(0, 4))
    def test_partial_trace(self, seed, register, size):
        n, order = register
        rho = random_density_matrix(np.random.default_rng(seed), n)
        keep = order[:size]
        assert np.abs(orc.partial_trace(rho, keep) - dense_partial_trace(rho, keep)).max() <= 1e-13


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
    def test_p1_one_is_ideal(self):
        rng = np.random.default_rng(3)
        rho = random_density_matrix(rng, 2)
        u = embed(orc.X, 2, (1,))
        ideal = u @ rho @ u.conj().T
        out = orc.apply_noisy_gate(rho, orc.X, (1,), 1.0)
        assert np.allclose(out, ideal, atol=1e-14)

    def test_p1_zero_fully_mixes_target(self):
        rng = np.random.default_rng(4)
        rho = random_density_matrix(rng, 2)
        out = orc.apply_noisy_gate(rho, orc.HADAMARD, (0,), 0.0)
        marginal = orc.partial_trace(out, (0,))
        assert np.allclose(marginal, np.eye(2) / 2, atol=1e-12)
        assert np.allclose(orc.partial_trace(out, (1,)),
                           orc.partial_trace(rho, (1,)), atol=1e-12)

    def test_identity_gate_on_ground_state(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = orc.apply_noisy_gate(rho, orc.I2, (0,), 0.995)
        assert np.allclose(np.diag(out).real, [0.9975, 0.0025], atol=1e-15)

    def test_index_out_of_range(self):
        rho = np.eye(4, dtype=complex) / 4
        with pytest.raises(ValidationError):
            orc.apply_noisy_gate(rho, orc.X, (5,), 1.0)


class TestTwoQubitNoise:
    def test_p2_one_is_ideal_cnot(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[2, 2] = 1.0  # |10>
        out = orc.apply_noisy_gate(rho, orc.CNOT, (0, 1), 1.0)
        assert out[3, 3].real == pytest.approx(1.0)

    def test_p2_zero_fully_mixes_pair(self):
        rng = np.random.default_rng(5)
        rho = random_density_matrix(rng, 3)
        out = orc.apply_noisy_gate(rho, orc.CNOT, (0, 2), 0.0)
        assert np.allclose(orc.partial_trace(out, (0, 2)), np.eye(4) / 4, atol=1e-12)

    def test_noisy_cnot_on_bell_times_zero(self):
        # frozen from a direct evaluation of the noise model:
        # weight = 0.99 * 1/2 + 0.01 * 1/4
        bell = orc.bell_diagonal_to_dm(BellDiagonalState((1.0, 0.0, 0.0, 0.0)))
        ground = np.diag([1.0, 0.0]).astype(complex)
        rho = np.kron(bell, ground)
        out = orc.apply_noisy_gate(rho, orc.CNOT, (1, 2), 0.99)
        weight = orc.bell_coefficients(orc.partial_trace(out, (0, 1)))[0]
        assert weight == pytest.approx(0.4975, abs=1e-12)

    def test_duplicate_indices_rejected(self):
        rho = np.eye(4, dtype=complex) / 4
        with pytest.raises(ValidationError):
            orc.apply_noisy_gate(rho, orc.CNOT, (1, 1), 1.0)

    def test_gate_of_wrong_size_rejected(self):
        rho = np.eye(8, dtype=complex) / 8
        with pytest.raises(ValidationError, match="does not act on 2 qubits"):
            orc.apply_noisy_gate(rho, orc.X, (0, 2), 1.0)


class TestMeasurement:
    def test_perfect_readout_of_ground_state(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        branches = orc.noisy_measure(rho, 0, 1.0)
        assert len(branches) == 1
        reading, prob, post = branches[0]
        assert reading == 0 and prob == pytest.approx(1.0)
        assert np.allclose(post, rho)

    def test_misread_probability(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        branches = dict(
            (reading, prob) for reading, prob, _ in orc.noisy_measure(rho, 0, 0.995)
        )
        assert branches[1] == pytest.approx(0.005, abs=1e-15)

    def test_maximally_mixed_is_uniform(self):
        rho = np.eye(2, dtype=complex) / 2
        for eta in (1.0, 0.9, 0.75):
            for _, prob, _ in orc.noisy_measure(rho, 0, eta):
                assert prob == pytest.approx(0.5)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(6)
        rho = random_density_matrix(rng, 2)
        total = sum(prob for _, prob, _ in orc.noisy_measure(rho, 1, 0.97))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestChannelStructure:
    def test_one_qubit_choi_positive(self):
        for p in (1.0, 0.97, 0.5, 0.0):
            choi = choi_matrix(
                lambda rho, p=p: orc.apply_noisy_gate(rho, orc.X, (0,), p), 1
            )
            assert np.linalg.eigvalsh(choi).min() > -1e-10

    def test_two_qubit_choi_positive(self):
        for p in (1.0, 0.97, 0.3):
            choi = choi_matrix(
                lambda rho, p=p: orc.apply_noisy_gate(rho, orc.CNOT, (0, 1), p), 2
            )
            assert np.linalg.eigvalsh(choi).min() > -1e-10

    def test_operations_preserve_density_matrix(self):
        rng = np.random.default_rng(7)
        rho = random_density_matrix(rng, 3)
        out = orc.apply_noisy_gate(rho, orc.CNOT, (0, 1), 0.97)
        out = orc.apply_noisy_gate(out, orc.HADAMARD, (2,), 0.98)
        assert_density_matrix(out)


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


# weights of at least 0.01 leave every coherence room of at least 2.5e-11
# below the positivity limit sqrt(c_j c_k)
bell_weights = st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4).map(
    lambda w: np.array(w) / sum(w))


def bell_basis_state(coeffs, coherence=None):
    """Density matrix with the given Bell-basis diagonal and an optional (j, k, z) coherence."""
    in_bell = np.diag(coeffs).astype(complex)
    if coherence is not None:
        j, k, z = coherence
        in_bell[j, k], in_bell[k, j] = z, np.conj(z)
    return orc._BELL @ in_bell @ orc._BELL.conj().T


class TestBellDiagonalCheck:
    @given(bell_weights)
    def test_bell_diagonal_state_passes(self, coeffs):
        got = orc.bell_coefficients(bell_basis_state(coeffs))
        assert np.abs(got - coeffs).max() <= 1e-15

    @given(bell_weights, st.sampled_from(list(itertools.combinations(range(4), 2))),
           st.floats(1e-8, 1.0), st.floats(0.0, 2 * np.pi))
    def test_coherence_between_bell_states_trips_the_check(self, coeffs, pair, scale, phase):
        j, k = pair
        z = scale * np.sqrt(coeffs[j] * coeffs[k]) * np.exp(1j * phase)
        rho = bell_basis_state(coeffs, (j, k, z))
        assert np.linalg.eigvalsh(rho).min() >= -1e-12  # still a state
        with pytest.raises(NumericError, match="not Bell-diagonal"):
            orc.bell_coefficients(rho)


# Dense reference circuits: both circuits spelled out gate by gate with the
# kron-built primitives above, in the literal gate order (four one-qubit
# rotations, the correction on the full register before the trace).  The
# oracle rotates each pair before the product and traces out the middle node
# before the correction; both are exact, so the two must agree.

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
        want = bell_diagonal(dense_connect(orc.bell_diagonal_to_dm(pair_1),
                                           orc.bell_diagonal_to_dm(pair_2), noise))
        assert np.abs(np.array(got.coeffs) - want).max() <= 1e-13

    @pytest.mark.parametrize("protocol", ["bennett", "deutsch"])
    @given(first=bell_weights, second=bell_weights, noise=noises)
    @example(first=SKEWED, second=SKEWED[::-1], noise=PERFECT)
    @example(first=SKEWED, second=SKEWED[::-1], noise=NoiseParams(1.0, 0.8, 0.5))
    def test_purify(self, protocol, first, second, noise):
        kept, sacrificed = BellDiagonalState(tuple(first)), BellDiagonalState(tuple(second))
        p_succ, out = orc.oracle_purify(kept, sacrificed, noise, protocol)
        want_p, want = dense_purify(orc.bell_diagonal_to_dm(kept),
                                    orc.bell_diagonal_to_dm(sacrificed), noise, protocol)
        assert abs(p_succ - want_p) <= 1e-13
        assert np.abs(np.array(out.coeffs) - bell_diagonal(want)).max() <= 1e-13


class TestCachedPlans:
    def test_a_cached_plan_keeps_every_check(self):
        rho = random_density_matrix(np.random.default_rng(12), 3)
        # cache a valid plan and readout masks on this register first
        orc.apply_noisy_gate(rho, orc.CNOT, (0, 2), 0.9)
        orc.partial_trace(rho, (0, 2))
        orc.noisy_measure(rho, 2, 0.9)
        calls = {
            "gate": lambda targets: orc.apply_noisy_gate(rho, orc.CNOT, targets, 0.9),
            "trace": lambda targets: orc.partial_trace(rho, targets),
        }
        for call in calls.values():
            with pytest.raises(ValidationError, match="duplicate target qubits"):
                call((2, 2))
            with pytest.raises(ValidationError, match="qubit index 3 out of range for 3 qubits"):
                call((0, 3))
        with pytest.raises(ValidationError, match="qubit index 3 out of range for 3 qubits"):
            orc.noisy_measure(rho, 3, 0.9)
        with pytest.raises(ValidationError, match="qubit index -1 out of range"):
            orc.noisy_measure(rho, -1, 0.9)
        with pytest.raises(ValidationError, match="does not act on 2 qubits"):
            orc.apply_noisy_gate(rho, orc.X, (0, 2), 0.9)
        with pytest.raises(ValidationError, match="does not act on 1 qubits"):
            orc.apply_noisy_gate(rho, orc.CNOT, (2,), 0.9)

    def test_caches_are_bounded(self):
        assert orc._plan.cache_info().maxsize is not None
        assert orc._readout_masks.cache_info().maxsize is not None
