"""Domain-wall codec, wall counting, and phase bookkeeping.

A logical bitstring of length k is stored in the k interfaces to the
right of each register spin: logical bit j is the XOR of physical spins
j and j+1, with the spin to the right of the register (the first wire
spin, or a recorded reference bit after the wire is detached) closing
the chain.  Of the two Z2-equivalent physical patterns the codec always
picks the one that places no spurious wall at the register/wire
boundary, which is the unique pattern consistent with an all-down wire.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import StateVector, basis_index, index_bits


@dataclass(frozen=True)
class LogicalState:
    """Normalized state of ``n_logical`` abstract qubits."""

    n_logical: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_logical < 1:
            raise ValueError(f"n_logical must be >= 1, got {self.n_logical}")
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (2**self.n_logical,):
            raise ValueError(
                f"expected {2**self.n_logical} amplitudes, got {amp.shape}"
            )
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"state not normalized: |psi| = {norm}")
        amp = amp / norm
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def from_bits(cls, bits) -> "LogicalState":
        bits = list(bits)
        amp = np.zeros(2 ** len(bits), dtype=complex)
        amp[basis_index(bits)] = 1.0
        return cls(len(bits), amp)


@dataclass(frozen=True)
class BoundaryContext:
    """States of the spins flanking a register.

    ``left_value`` is the fixed spin (or virtual spin) left of the
    register and only enters wall counting; ``right_context`` is the
    wire spin adjacent to the register on the right and anchors the
    codec (all-down wire gives ``right_context = 0``).
    """

    left_value: int = 0
    right_context: int = 0

    def __post_init__(self):
        if self.left_value not in (0, 1) or self.right_context not in (0, 1):
            raise ValueError("boundary values must be bits")


def dw_encode_bits(logical, ctx: BoundaryContext) -> tuple:
    """Physical register pattern whose interfaces spell out `logical`.

    Built right to left: the last register spin differs from the wire
    context exactly when the last logical bit is 1, and each earlier
    spin differs from its right neighbour exactly when its logical bit
    is 1.  This is the unique assignment with no spurious wall at the
    register/wire boundary.
    """
    logical = [b & 1 for b in logical]
    if not logical:
        raise ValueError("logical bitstring must be non-empty")
    phys = [0] * len(logical)
    carry = ctx.right_context
    for j in range(len(logical) - 1, -1, -1):
        carry ^= logical[j]
        phys[j] = carry
    return tuple(phys)


def dw_decode_bits(physical, reference: int) -> tuple:
    """Interface readout: logical bit j = physical j XOR its right neighbour."""
    physical = [b & 1 for b in physical]
    out = []
    for j in range(len(physical)):
        right = physical[j + 1] if j + 1 < len(physical) else reference & 1
        out.append(physical[j] ^ right)
    return tuple(out)


def dw_encode_state(logical: LogicalState, ctx: BoundaryContext) -> StateVector:
    """Linear extension of the codec over a logical superposition."""
    k = logical.n_logical
    amp = np.zeros(2**k, dtype=complex)
    for idx in range(2**k):
        phys = dw_encode_bits(index_bits(idx, k), ctx)
        amp[basis_index(phys)] = logical.amplitudes[idx]
    return StateVector(k, amp)


def dw_decode(physical: StateVector, reference: int) -> LogicalState:
    """Inverse of :func:`dw_encode_state`.

    ``reference`` is the recorded state of the disabled boundary spin
    adjacent to the register, which fixes the last logical bit.
    """
    k = physical.n_spins
    amp = np.zeros(2**k, dtype=complex)
    for pidx in range(2**k):
        logical = dw_decode_bits(index_bits(pidx, k), reference)
        amp[basis_index(logical)] = physical.amplitudes[pidx]
    return LogicalState(k, amp)


def count_domain_walls(bits, ctx: BoundaryContext) -> int:
    """Number of unequal adjacent pairs in [left] + bits + [right]."""
    padded = [ctx.left_value, *[b & 1 for b in bits], ctx.right_context]
    return sum(a != b for a, b in zip(padded, padded[1:]))


@dataclass(frozen=True)
class PhaseLedger:
    """Deterministic phases accumulated by the protocol stages."""

    global_phase: float
    relative_phase_per_M: dict


def phase_ledger(N: int, J: float, tau: float, stages: int) -> PhaseLedger:
    """Global phase J*N*tau per stage and sector phases -2*J*tau*M per stage.

    The M-wall sector sits at diagonal energy J(N - 2M), so after
    ``stages`` stages of duration tau the branch picks up
    exp(-i J (N - 2M) tau) per stage; relative to the zero-wall branch
    that is a phase of -2 * stages * J * tau per wall.
    """
    if stages not in (1, 2):
        raise ValueError(f"stages must be 1 or 2, got {stages}")
    rel = {M: -2.0 * stages * J * tau * M for M in range(N + 1)}
    return PhaseLedger(stages * J * N * tau, rel)
