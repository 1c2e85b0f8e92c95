import numpy as np
import pytest

from dwtransfer.core import StateVector
from dwtransfer.encoding import (
    BoundaryContext,
    LogicalState,
    count_domain_walls,
    dw_decode,
    dw_decode_bits,
    dw_encode_bits,
    dw_encode_state,
    phase_ledger,
)

ALL_DOWN = BoundaryContext(left_value=0, right_context=0)


def bits_of(idx, k):
    return [(idx >> (k - 1 - j)) & 1 for j in range(k)]


class TestEncodeBits:
    def test_one_excitation_pattern(self):
        # |00100> with an all-down wire: padded form reads 111000
        phys = dw_encode_bits([0, 0, 1, 0, 0], ALL_DOWN)
        assert phys == (1, 1, 1, 0, 0)

    def test_two_excitation_pattern(self):
        # |00110> with wire spin up: padded form reads 111011
        ctx = BoundaryContext(left_value=0, right_context=1)
        phys = dw_encode_bits([0, 0, 1, 1, 0], ctx)
        assert phys == (1, 1, 1, 0, 1)

    def test_parity_choice(self):
        # |10> with a down wire encodes as up-down, never down-up: the
        # second choice would put a spurious wall at the wire boundary
        assert dw_encode_bits([1, 0], ALL_DOWN) == (1, 0)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_bijective_roundtrip(self, k):
        seen = set()
        for idx in range(2**k):
            logical = bits_of(idx, k)
            phys = dw_encode_bits(logical, ALL_DOWN)
            seen.add(phys)
            assert dw_decode_bits(phys, 0) == tuple(logical)
        assert len(seen) == 2**k

    @pytest.mark.parametrize("k", range(1, 11))
    @pytest.mark.parametrize("right", [0, 1])
    def test_no_spurious_boundary_wall(self, k, right):
        # the chosen encoding carries a wall at the register/wire
        # boundary exactly when the last logical bit demands one
        ctx = BoundaryContext(left_value=0, right_context=right)
        for idx in range(2**k):
            logical = bits_of(idx, k)
            phys = dw_encode_bits(logical, ctx)
            assert (phys[-1] ^ right) == logical[-1]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dw_encode_bits([], ALL_DOWN)


class TestEncodeState:
    def test_single_qubit_passthrough(self):
        # one logical qubit maps directly onto the first physical spin
        alpha, beta = 0.6, 0.8
        logical = LogicalState(1, np.array([beta, alpha]))
        phys = dw_encode_state(logical, ALL_DOWN)
        assert phys.amplitudes[0] == pytest.approx(beta)
        assert phys.amplitudes[1] == pytest.approx(alpha)

    def test_all_zero_register(self):
        logical = LogicalState.from_bits([0, 0])
        phys = dw_encode_state(logical, ALL_DOWN)
        assert phys.amplitudes[0] == pytest.approx(1.0)

    def test_bell_state(self):
        s = 1 / np.sqrt(2)
        bell = LogicalState(2, np.array([s, 0, 0, s]))
        phys = dw_encode_state(bell, ALL_DOWN)
        i00 = 0
        i11 = (dw_encode_bits([1, 1], ALL_DOWN)[0] << 1) | dw_encode_bits(
            [1, 1], ALL_DOWN
        )[1]
        assert phys.amplitudes[i00] == pytest.approx(s)
        assert phys.amplitudes[i11] == pytest.approx(s)
        assert np.count_nonzero(phys.amplitudes) == 2

    def test_linearity(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=8) + 1j * rng.normal(size=8)
        b = rng.normal(size=8) + 1j * rng.normal(size=8)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        mix = (a + b) / np.linalg.norm(a + b)
        enc_mix = dw_encode_state(LogicalState(3, mix), ALL_DOWN)
        enc_a = dw_encode_state(LogicalState(3, a), ALL_DOWN).amplitudes
        enc_b = dw_encode_state(LogicalState(3, b), ALL_DOWN).amplitudes
        expect = (enc_a + enc_b) / np.linalg.norm(enc_a + enc_b)
        assert np.allclose(enc_mix.amplitudes, expect)


class TestDecode:
    def test_all_down(self):
        phys = StateVector.from_bits([0, 0, 0])
        logical = dw_decode(phys, 0)
        assert logical.amplitudes[0] == pytest.approx(1.0)

    def test_padded_pattern(self):
        # physical 11100 with reference 0 decodes to 00100
        phys = StateVector.from_bits([1, 1, 1, 0, 0])
        logical = dw_decode(phys, 0)
        assert abs(logical.amplitudes[0b00100]) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            amp = rng.normal(size=8) + 1j * rng.normal(size=8)
            amp /= np.linalg.norm(amp)
            logical = LogicalState(3, amp)
            back = dw_decode(dw_encode_state(logical, ALL_DOWN), 0)
            overlap = abs(np.vdot(back.amplitudes, logical.amplitudes)) ** 2
            assert overlap == pytest.approx(1.0, abs=1e-12)


class TestCountDomainWalls:
    def test_all_down(self):
        assert count_domain_walls([0, 0, 0], ALL_DOWN) == 0

    def test_initial_protocol_state(self):
        ctx = BoundaryContext(left_value=1, right_context=0)
        assert count_domain_walls([1, 0, 0, 0], ctx) == 1

    def test_two_excitations(self):
        # padded 111011 read with down boundaries on each side of the
        # explicit pattern: walls at the 0-1 interfaces only
        ctx = BoundaryContext(left_value=1, right_context=1)
        assert count_domain_walls([1, 1, 0, 1], ctx) == 2


class TestPhaseLedger:
    def test_single_stage_relative(self):
        led = phase_ledger(5, 2.0, 0.7, stages=1)
        rel = led.relative_phase_per_M
        assert rel[1] - rel[0] == pytest.approx(-2 * 2.0 * 0.7)

    def test_two_stage_relative(self):
        led = phase_ledger(5, 2.0, 0.7, stages=2)
        assert led.relative_phase_per_M[1] == pytest.approx(-4 * 2.0 * 0.7)

    def test_global_phase(self):
        led = phase_ledger(13, 0.5, 3.0, stages=2)
        assert led.global_phase == pytest.approx(2 * 0.5 * 13 * 3.0)

    def test_zero_coupling(self):
        led = phase_ledger(4, 0.0, 1.0, stages=2)
        assert led.global_phase == 0.0
        assert all(v == 0.0 for v in led.relative_phase_per_M.values())

    def test_invalid_stage_count(self):
        with pytest.raises(ValueError):
            phase_ledger(4, 1.0, 1.0, stages=3)
