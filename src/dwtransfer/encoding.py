"""The logical payload and its domain-wall codec.

A logical bitstring of length k is stored in the k interfaces to the
right of each register spin: logical bit j is the XOR of physical spins
j and j+1, with the first wire spin, down, closing the chain.  Of the
two Z2-equivalent physical patterns the codec always picks the one that
places no spurious wall at the register/wire boundary, which is the
unique pattern consistent with an all-down wire.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def dw_encode_bits(logical) -> tuple:
    """Physical register pattern whose interfaces spell out `logical`
    next to an all-down wire.

    Built right to left: the last register spin is up exactly when the
    last logical bit is 1, and each earlier spin differs from its right
    neighbour exactly when its logical bit is 1.  This is the unique
    assignment with no spurious wall at the register/wire boundary.
    """
    logical = [b & 1 for b in logical]
    if not logical:
        raise ValueError("logical bitstring must be non-empty")
    phys = [0] * len(logical)
    carry = 0
    for j in range(len(logical) - 1, -1, -1):
        carry ^= logical[j]
        phys[j] = carry
    return tuple(phys)
