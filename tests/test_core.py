import numpy as np
import pytest

from dwtransfer.core import (
    DimensionMismatch,
    Operator,
    PauliSum,
    PropagatorConfig,
    StateVector,
    evolve,
    fidelity,
    realize,
    sigma_z_expectation,
)
from dwtransfer.hamiltonians import (
    ChainSpec,
    RegisterLayout,
    heisenberg_xy,
    multiqubit_reset_hamiltonian,
    transport_hamiltonian,
)

EXACT = PropagatorConfig(method="exact-eigendecomposition")
KRYLOV = PropagatorConfig(method="krylov")


def random_hermitian_operator(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Operator((a + a.conj().T) / 2)


def random_state(rng, n_spins):
    amp = rng.normal(size=2**n_spins) + 1j * rng.normal(size=2**n_spins)
    return StateVector(n_spins, amp / np.linalg.norm(amp))


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(1, np.array([1.0, 1.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            StateVector(2, np.array([1.0, 0.0]))

    def test_from_bits_ordering(self):
        # spin 1 is the most significant bit
        psi = StateVector.from_bits([1, 0, 0])
        assert psi.amplitudes[0b100] == 1.0

    def test_amplitudes_immutable(self):
        psi = StateVector.from_bits([0, 1])
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 1.0


class TestPauliSum:
    def test_site_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            PauliSum(2, ((1.0, {3: "Z"}),))

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown Pauli"):
            PauliSum(1, ((1.0, {1: "Q"}),))

    def test_complex_coefficient_rejected(self):
        with pytest.raises(ValueError, match="real"):
            PauliSum(1, ((1.0 + 0.5j, {1: "Z"}),))


class TestRealize:
    def test_single_z(self):
        op = realize(PauliSum(1, ((1.0, {1: "Z"}),)))
        assert np.allclose(op.matrix.toarray(), np.diag([1.0, -1.0]))

    def test_empty_terms(self):
        op = realize(PauliSum(2, ()))
        assert op.matrix.nnz == 0
        assert op.dimension == 4

    def test_zz_diagonal(self):
        op = realize(PauliSum(2, ((1.0, {1: "Z", 2: "Z"}),)))
        assert np.allclose(op.matrix.toarray(), np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_rejects_non_hermitian_matrix(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Operator(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestEvolve:
    def test_zero_time_identity(self):
        psi = StateVector.from_bits([1, 0])
        h = realize(PauliSum(2, ((1.0, {1: "X"}),)))
        out = evolve(psi, h, 0.0, KRYLOV)
        assert np.array_equal(out.amplitudes, psi.amplitudes)

    def test_pi_half_x_rotation(self):
        # exp(-i sigma_x pi/2) = -i sigma_x
        psi = StateVector.from_bits([0])
        h = realize(PauliSum(1, ((np.pi / 2, {1: "X"}),)))
        out = evolve(psi, h, 1.0, EXACT)
        assert abs(out.amplitudes[1] - (-1j)) < 1e-12
        assert fidelity(out, StateVector.from_bits([1])) == pytest.approx(1.0)

    def test_perfect_transfer_n5(self):
        h = realize(heisenberg_xy(5, 1.0))
        src = StateVector.from_bits([1, 0, 0, 0, 0])
        tgt = StateVector.from_bits([0, 0, 0, 0, 1])
        out = evolve(src, h, np.pi, EXACT)
        assert fidelity(out, tgt) == pytest.approx(1.0, abs=1e-8)

    def test_dimension_mismatch(self):
        psi = StateVector.from_bits([0])
        h = realize(PauliSum(2, ((1.0, {1: "Z"}),)))
        with pytest.raises(DimensionMismatch):
            evolve(psi, h, 1.0, KRYLOV)

    def test_negative_time_rejected(self):
        psi = StateVector.from_bits([0])
        h = realize(PauliSum(1, ((1.0, {1: "Z"}),)))
        with pytest.raises(ValueError):
            evolve(psi, h, -1.0, KRYLOV)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unitarity_random(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            h = random_hermitian_operator(rng, 2**n)
            psi = random_state(rng, n)
            t = float(rng.uniform(0.0, 10.0))
            out = evolve(psi, h, t, KRYLOV)
            assert out.norm_defect() < 1e-10

    @pytest.mark.parametrize("seed", [3, 4])
    def test_krylov_matches_exact(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            n = int(rng.integers(2, 11))
            h = random_hermitian_operator(rng, 2**n)
            psi = random_state(rng, n)
            t = float(rng.uniform(0.0, 5.0))
            a = evolve(psi, h, t, EXACT)
            b = evolve(psi, h, t, KRYLOV)
            assert np.linalg.norm(a.amplitudes - b.amplitudes) < 1e-8

    @pytest.mark.parametrize("steps", [200, 1])
    @pytest.mark.parametrize("builder", [transport_hamiltonian,
                                         multiqubit_reset_hamiltonian])
    @pytest.mark.parametrize("layout", [(1, 3, 1), (2, 3, 2), (3, 3, 3)])
    def test_fast_matches_exact_on_protocol_hamiltonians(
        self, layout, builder, steps
    ):
        # one trace sample (tau/200) and one whole stage at J/lambda = 22
        spec = ChainSpec(sum(layout), 22.0, 1.0, RegisterLayout(*layout))
        h = realize(builder(spec))
        psi = random_state(np.random.default_rng(spec.n_spins), spec.n_spins)
        t = spec.tau / steps
        a = evolve(psi, h, t, EXACT)
        b = evolve(psi, h, t, KRYLOV)
        assert np.linalg.norm(a.amplitudes - b.amplitudes) < 1e-8

    def test_composition(self):
        rng = np.random.default_rng(7)
        h = random_hermitian_operator(rng, 2**4)
        psi = random_state(rng, 4)
        once = evolve(psi, h, 2.7, KRYLOV)
        split = evolve(evolve(psi, h, 1.2, KRYLOV), h, 1.5, KRYLOV)
        assert np.linalg.norm(once.amplitudes - split.amplitudes) < 1e-8


class TestPropagatorConfig:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            PropagatorConfig(method="magic")

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            PropagatorConfig(tolerance=0.0)


class TestFidelity:
    def test_self_fidelity(self):
        psi = StateVector.from_bits([1, 0])
        assert fidelity(psi, psi) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert fidelity(
            StateVector.from_bits([0]), StateVector.from_bits([1])
        ) == pytest.approx(0.0)

    def test_half_overlap(self):
        plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2))
        assert fidelity(StateVector.from_bits([0]), plus) == pytest.approx(0.5)

    def test_global_phase_insensitive(self):
        psi = StateVector.from_bits([1])
        rotated = StateVector(1, 1j * psi.amplitudes)
        assert fidelity(psi, rotated) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fidelity(StateVector.from_bits([0]), StateVector.from_bits([0, 0]))


class TestSigmaZ:
    def test_flipped_first_site(self):
        psi = StateVector.from_bits([1, 0, 0])
        assert sigma_z_expectation(psi, 1) == pytest.approx(-1.0)

    def test_down_site(self):
        psi = StateVector.from_bits([1, 0, 0])
        assert sigma_z_expectation(psi, 2) == pytest.approx(1.0)

    def test_equal_superposition(self):
        plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2))
        assert sigma_z_expectation(plus, 1) == pytest.approx(0.0)

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            sigma_z_expectation(StateVector.from_bits([0]), 2)
