"""Hamiltonian builders for the transfer protocols.

All builders return :class:`~dwtransfer.core.PauliSum` objects; call
:func:`~dwtransfer.core.realize` to obtain the sparse matrix.  Couplings
``J`` and ``lam`` are angular frequencies (hbar = 1); only the ratio
``J/lam`` and the product ``lam * t`` affect the physics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import PauliSum

RATIO_WARN_THRESHOLD = 8.0


def coupling_profile(N: int, lam: float) -> np.ndarray:
    """Bond strengths t_n = (lam/2) sqrt(n(N-n)), n = 1..N-1, that give
    perfect mirror transfer on an N-site chain, as a read-only array.

    Symmetry t_n = t_{N-n} is bit-exact because both evaluate
    sqrt of the same integer product n(N-n).
    """
    if N < 2:
        raise ValueError(f"chain length must be >= 2, got {N}")
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    t = np.array(
        [0.5 * lam * math.sqrt(n * (N - n)) for n in range(1, N)]
    )
    t.flags.writeable = False
    return t


@dataclass(frozen=True)
class ChainSpec:
    """Physical parameters of one protocol instance."""

    n_spins: int
    j_coupling: float
    lam: float

    def __post_init__(self):
        if self.n_spins < 2:
            raise ValueError(f"n_spins must be >= 2, got {self.n_spins}")
        if self.lam <= 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if abs(self.j_coupling) < RATIO_WARN_THRESHOLD * self.lam:
            warnings.warn(
                f"|J|/lam = {abs(self.j_coupling) / self.lam:.2f} < "
                f"{RATIO_WARN_THRESHOLD:g}: the quadratic error law breaks "
                "down and transfer fidelity degrades",
                stacklevel=2,
            )

    @property
    def tau(self) -> float:
        """Mirror time pi/lam for the engineered profile."""
        return math.pi / self.lam


def heisenberg_xy(N: int, lam: float) -> PauliSum:
    """XY chain H = sum_n (t_n/2)(X_n X_{n+1} + Y_n Y_{n+1}).

    Conserves the total excitation number; the single-excitation block
    equals lam * S_x of a spin-(N-1)/2 particle, which produces perfect
    end-to-end transfer at tau = pi/lam with the end-to-end amplitude
    [-i sin(lam t / 2)]^(N-1).  The sign makes the single-particle
    hopping positive, matching the closed form and the transverse-field
    (wall-hopping) convention of the Ising builders.
    """
    t = coupling_profile(N, lam)
    terms = []
    for n in range(1, N):
        half = 0.5 * t[n - 1]
        terms.append((half, {n: "X", n + 1: "X"}))
        terms.append((half, {n: "Y", n + 1: "Y"}))
    return PauliSum(N, tuple(terms))


def transfer_amplitude_closed_form(N: int, lam: float, t: float) -> complex:
    """End-to-end amplitude [-i sin(lam t / 2)]^(N-1) of the XY chain."""
    if N < 2:
        raise ValueError(f"chain length must be >= 2, got {N}")
    return (-1j * math.sin(0.5 * lam * t)) ** (N - 1)


def _zz_terms(N: int, J: float):
    return [(J, {n: "Z", n + 1: "Z"}) for n in range(1, N)]


def ising_dw(spec: ChainSpec) -> PauliSum:
    """Transverse-field Ising Hamiltonian with both virtual boundary spins.

    H = sum_{n=1}^{N} t_n X_n - J Z_1 + J Z_N + J sum ZZ.  The boundary
    fields pin a virtual up spin on the left and a virtual down spin on
    the right; the last field term carries t_N = 0, the profile formula
    at n = N, and is kept for literal completeness.
    """
    N, J = spec.n_spins, spec.j_coupling
    t = (*coupling_profile(N, spec.lam), 0.0)
    terms = [(float(t_n), {n: "X"}) for n, t_n in enumerate(t, start=1)]
    terms.append((-J, {1: "Z"}))
    terms.append((J, {N: "Z"}))
    terms.extend(_zz_terms(N, J))
    return PauliSum(N, tuple(terms))


def transport_hamiltonian(spec: ChainSpec) -> PauliSum:
    """Stage-1 Hamiltonian: fields on spins 2..N, virtual down spin on the right.

    H = sum_{n=2}^{N} t_{n-1} X_n + J Z_N + J sum ZZ.  Spin 1 carries no
    transverse term, so its polarization is conserved; the domain wall it
    seeds travels to the far end over tau.
    """
    N, J = spec.n_spins, spec.j_coupling
    t = coupling_profile(N, spec.lam)
    terms = [(t[n - 2], {n: "X"}) for n in range(2, N + 1)]
    terms.append((J, {N: "Z"}))
    terms.extend(_zz_terms(N, J))
    return PauliSum(N, tuple(terms))


def reset_hamiltonian(spec: ChainSpec) -> PauliSum:
    """Stage-2 Hamiltonian: fields on spins 1..N-1, virtual down spin on the left.

    H = sum_{n=1}^{N-1} t_n X_n + J Z_1 + J sum ZZ.  Spin N carries no
    transverse term so the delivered payload is untouched while the wire
    walls run back out through the left boundary.  The +J Z_1 sign pins
    the left virtual neighbour down, mirroring the +J Z_N term of the
    transport stage; it is the unique sign for which the reset stage is
    the spatial reflection of the transport stage.  It is
    :func:`multiqubit_reset_hamiltonian` with single-spin registers.
    """
    return multiqubit_reset_hamiltonian(spec, 1)


def multiqubit_reset_hamiltonian(spec: ChainSpec, k: int) -> PauliSum:
    """Stage-2 Hamiltonian for registers of ``k`` spins at both ends.

    Transverse fields act only on the first N - k sites (Alice's
    register and the wire) with a profile recomputed over the effective
    length N - k + 1 so the active section is mirror-symmetric; Bob's
    register, the last k spins, is field-free.  Same +J Z_1 boundary
    convention as :func:`reset_hamiltonian`, which is this Hamiltonian
    with k = 1.
    """
    N, J = spec.n_spins, spec.j_coupling
    if not 1 <= k <= N // 2:
        raise ValueError(
            f"registers of {k} spins at both ends need 1 <= k <= N/2, "
            f"the chain has N = {N} spins"
        )
    active = N - k
    t = coupling_profile(active + 1, spec.lam)
    terms = [(t[n - 1], {n: "X"}) for n in range(1, active + 1)]
    terms.append((J, {1: "Z"}))
    terms.extend(_zz_terms(N, J))
    return PauliSum(N, tuple(terms))


def energy_offset(N: int, M: int, J: float) -> float:
    """Diagonal energy J(N - 2M) of the M-domain-wall sector."""
    if not 0 <= M <= N:
        raise ValueError(f"wall count {M} out of range for N={N}")
    return J * (N - 2 * M)
