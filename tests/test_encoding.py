import numpy as np
import pytest

from dwtransfer import protocol
from dwtransfer.core import basis_index
from dwtransfer.encoding import LogicalState, dw_encode_bits
from dwtransfer.protocol import Transfer
from references import (
    basis_state,
    count_domain_walls,
    dw_decode,
    dw_decode_bits,
    logical_basis,
)


def bits_of(idx, k):
    return [(idx >> (k - 1 - j)) & 1 for j in range(k)]


def encoded(logical):
    """Alice's register as the protocol encodes ``logical``: the
    amplitudes of its initial chain state, whose wire and Bob's register
    are all down."""
    k = logical.n_logical
    run = Transfer(2 * k, 1.0, 22.0, logical)
    psi0 = protocol._Amplitudes(run, protocol._build_branches(run)).start()
    register = psi0.reshape(2**k, -1)
    assert not register[:, 1:].any()
    return register[:, 0]


class TestEncodeBits:
    def test_one_excitation_pattern(self):
        # |00100> with an all-down wire: padded form reads 111000
        phys = dw_encode_bits([0, 0, 1, 0, 0])
        assert phys == (1, 1, 1, 0, 0)

    def test_two_excitation_pattern(self):
        # |00110> with an all-down wire: padded form reads 000100
        phys = dw_encode_bits([0, 0, 1, 1, 0])
        assert phys == (0, 0, 0, 1, 0)

    def test_parity_choice(self):
        # |10> with a down wire encodes as up-down, never down-up: the
        # second choice would put a spurious wall at the wire boundary
        assert dw_encode_bits([1, 0]) == (1, 0)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_bijective_roundtrip(self, k):
        seen = set()
        for idx in range(2**k):
            logical = bits_of(idx, k)
            phys = dw_encode_bits(logical)
            seen.add(phys)
            assert dw_decode_bits(phys, 0) == tuple(logical)
        assert len(seen) == 2**k

    @pytest.mark.parametrize("k", range(1, 11))
    def test_no_spurious_boundary_wall(self, k):
        # the chosen encoding carries a wall at the register/wire
        # boundary exactly when the last logical bit demands one
        for idx in range(2**k):
            logical = bits_of(idx, k)
            phys = dw_encode_bits(logical)
            assert phys[-1] == logical[-1]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dw_encode_bits([])


class TestEncodeState:
    """The protocol's initial state is the codec extended linearly over
    the payload."""

    def test_single_qubit_passthrough(self):
        # one logical qubit maps directly onto the first physical spin
        alpha, beta = 0.6, 0.8
        phys = encoded(LogicalState(1, np.array([beta, alpha])))
        assert phys[0] == pytest.approx(beta)
        assert phys[1] == pytest.approx(alpha)

    def test_all_zero_register(self):
        phys = encoded(logical_basis([0, 0]))
        assert phys[0] == pytest.approx(1.0)

    def test_bell_state(self):
        s = 1 / np.sqrt(2)
        phys = encoded(LogicalState(2, np.array([s, 0, 0, s])))
        i11 = basis_index(dw_encode_bits([1, 1]))
        assert phys[0] == pytest.approx(s)
        assert phys[i11] == pytest.approx(s)
        assert np.count_nonzero(phys) == 2

    def test_linearity(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=8) + 1j * rng.normal(size=8)
        b = rng.normal(size=8) + 1j * rng.normal(size=8)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        mix = (a + b) / np.linalg.norm(a + b)
        enc_mix = encoded(LogicalState(3, mix))
        enc_a = encoded(LogicalState(3, a))
        enc_b = encoded(LogicalState(3, b))
        expect = (enc_a + enc_b) / np.linalg.norm(enc_a + enc_b)
        assert np.allclose(enc_mix, expect)


class TestDecode:
    """The reference decode, and the protocol's encode against it."""

    def test_all_down(self):
        logical = dw_decode(basis_state([0, 0, 0]), 0)
        assert logical.amplitudes[0] == pytest.approx(1.0)

    def test_padded_pattern(self):
        # physical 11100 with reference 0 decodes to 00100
        logical = dw_decode(basis_state([1, 1, 1, 0, 0]), 0)
        assert abs(logical.amplitudes[0b00100]) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            amp = rng.normal(size=8) + 1j * rng.normal(size=8)
            amp /= np.linalg.norm(amp)
            logical = LogicalState(3, amp)
            back = dw_decode(encoded(logical), 0)
            overlap = abs(np.vdot(back.amplitudes, logical.amplitudes)) ** 2
            assert overlap == pytest.approx(1.0, abs=1e-12)


class TestCountDomainWalls:
    """The reference wall count of the Hamiltonian and leakage tests."""

    def test_all_down(self):
        assert count_domain_walls([0, 0, 0]) == 0

    def test_initial_protocol_state(self):
        assert count_domain_walls([1, 0, 0, 0], left=1) == 1

    def test_two_excitations(self):
        # padded 111011: walls at the 1-0 and 0-1 interfaces only
        assert count_domain_walls([1, 1, 0, 1], left=1, right=1) == 2


class TestPhaseLedger:
    """``ProtocolResult.phases``, the ``phases`` block of
    ``summary.json``: per stage of tau, the global phase J N tau and
    the sector phase -2 J tau per wall, keyed by ``str(M)``."""

    @staticmethod
    def transfer(N=5, J=22.0, lam=1.0):
        one = LogicalState(1, np.array([0.0, 1.0], dtype=complex))
        return protocol.run_multi_qubit_transfer(
            Transfer(N, lam, J, one, n_time_samples=4))

    @staticmethod
    def baseline(N=5, lam=1.0):
        one = LogicalState(1, np.array([0.0, 1.0], dtype=complex))
        return protocol.run_heisenberg_baseline(
            protocol.Baseline(N, lam, one, n_time_samples=4))

    def test_single_stage_relative(self):
        # the baseline is one stage at J = 0: every sector phase is 0
        phases = self.baseline(N=6, lam=0.7).phases
        rel = phases["relative_phase_per_M"]
        assert list(rel) == [str(m) for m in range(7)]
        assert all(v == 0.0 for v in rel.values())

    def test_two_stage_relative(self):
        res = self.transfer(N=5, J=22.0, lam=0.7)
        rel = res.phases["relative_phase_per_M"]
        assert list(rel) == [str(m) for m in range(6)]
        for m in range(6):
            assert rel[str(m)] == pytest.approx(-4 * 22.0 * res.tau * m)

    def test_global_phase(self):
        res = self.transfer(N=7, J=-9.0, lam=1.1)
        assert res.tau == pytest.approx(np.pi / 1.1)
        assert res.phases["global_phase"] == pytest.approx(
            2 * -9.0 * 7 * res.tau)

    def test_zero_coupling(self):
        phases = self.baseline().phases
        assert set(phases) == {"global_phase", "relative_phase_per_M"}
        assert phases["global_phase"] == 0.0
