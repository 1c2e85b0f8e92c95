"""Independent references the tests compare the package against.

Each computes, bit by bit or as a plain overlap, a quantity the package
computes another way or not at all: a basis state's amplitudes, of a
chain or of a logical payload, the squared overlap of two states, one
spin's ``<sigma_z>``, the wall count of a spin pattern, the
domain-wall decode, and the wall-conserving part of a Majorana form.
"""

import numpy as np

from dwtransfer.core import DimensionMismatch, basis_index, index_bits
from dwtransfer.encoding import LogicalState


def basis_state(bits) -> np.ndarray:
    """The amplitudes of a computational basis state, spin 1 first."""
    bits = list(bits)
    amp = np.zeros(2 ** len(bits), dtype=complex)
    amp[basis_index(bits)] = 1.0
    return amp


def logical_basis(bits) -> LogicalState:
    """The logical payload of one bitstring, bit 1 first."""
    bits = list(bits)
    return LogicalState(len(bits), basis_state(bits))


def fidelity(a, b) -> float:
    """Squared overlap ``|<a|b>|^2``; insensitive to global phases."""
    if np.shape(a) != np.shape(b):
        raise DimensionMismatch(
            f"states have shapes {np.shape(a)} and {np.shape(b)}")
    return float(abs(np.vdot(a, b)) ** 2)


def sigma_z(amp, site: int) -> float:
    """``<sigma_z>`` of one spin of the amplitudes ``amp`` of a chain;
    +1 for basis bit 0, -1 for bit 1."""
    n = np.size(amp).bit_length() - 1
    if not 1 <= site <= n:
        raise ValueError(f"site {site} out of range for {n} spins")
    bits = (np.arange(2**n) >> (n - site)) & 1
    return float(np.sum((1.0 - 2.0 * bits) * np.abs(amp) ** 2))


def count_domain_walls(bits, left: int = 0, right: int = 0) -> int:
    """Number of unequal adjacent pairs in [left] + bits + [right]."""
    padded = [left, *[b & 1 for b in bits], right]
    return sum(a != b for a, b in zip(padded, padded[1:]))


def dw_decode_bits(physical, reference: int) -> tuple:
    """Interface readout: logical bit j = physical j XOR its right
    neighbour, the last one against the wire spin ``reference``."""
    physical = [b & 1 for b in physical]
    out = []
    for j in range(len(physical)):
        right = physical[j + 1] if j + 1 < len(physical) else reference & 1
        out.append(physical[j] ^ right)
    return tuple(out)


def dw_decode(physical, reference: int) -> LogicalState:
    """The logical state whose codec patterns hold the amplitudes
    ``physical`` of a register, read against the wire spin
    ``reference``."""
    k = np.size(physical).bit_length() - 1
    amp = np.zeros(2**k, dtype=complex)
    for pidx in range(2**k):
        logical = dw_decode_bits(index_bits(pidx, k), reference)
        amp[basis_index(logical)] = physical[pidx]
    return LogicalState(k, amp)


def wall_conserving_majorana(a) -> np.ndarray:
    """The wall-conserving part ``(A + W A W^T) / 2`` of the Majorana
    form ``A`` of a stage, W the rotation by pi/2 in each interface's
    pair ``(gamma_2q, gamma_2q+1)``: it keeps the hops and the wall
    energies of A and averages out its pair creation and
    annihilation."""
    w = np.kron(np.eye(a.shape[0] // 2), [[0.0, -1.0], [1.0, 0.0]])
    return (a + w @ a @ w.T) / 2
