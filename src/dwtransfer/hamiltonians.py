"""Hamiltonian builders for the transfer protocols.

All builders return :class:`~dwtransfer.core.PauliSum` objects; call
:func:`~dwtransfer.core.realize` to obtain the operator, held as small
dense factors across the middle of the chain (the components the dense
path diagonalizes as dense arrays), or with ``majorana=True`` its form
on the wall Majoranas.  The XY baseline runs on free fermions as the
domain-wall approximation (``wall_conserving``) of the reset stage of
one-spin registers at J = 0: its hopping has ``heisenberg_xy``'s
profile and sign.
Couplings ``J`` and ``lam`` are angular frequencies (hbar = 1); only
the ratio ``J/lam`` and the product ``lam * t`` affect the physics.
"""

from __future__ import annotations

import math

import numpy as np

from .core import PauliSum


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


def transport_hamiltonian(N: int, J: float, lam: float) -> PauliSum:
    """Stage-1 Hamiltonian: fields on spins 2..N, virtual down spin on the right.

    H = sum_{n=2}^{N} t_{n-1} X_n + J Z_N + J sum ZZ.  Spin 1 carries no
    transverse term, so its polarization is conserved; the domain wall it
    seeds travels to the far end over tau.  It is the reset stage of
    one-spin registers reversed end to end (``PauliSum.reversed``), term
    for term: the mirror-symmetric profile, t_{n-1} = t_{N+1-n}, makes
    every coefficient the same bit for bit.
    """
    return multiqubit_reset_hamiltonian(N, J, lam, 1).reversed()


def multiqubit_reset_hamiltonian(N: int, J: float, lam: float,
                                 k: int) -> PauliSum:
    """Stage-2 Hamiltonian for registers of ``k`` spins at both ends.

    H = sum_{n=1}^{N-k} t'_n X_n + J Z_1 + J sum ZZ.  Transverse fields
    act only on the first N - k sites (Alice's register and the wire)
    with a profile t' recomputed over the effective length N - k + 1 so
    the active section is mirror-symmetric; Bob's register, the last k
    spins, is field-free, so the delivered payload is untouched while
    the wire walls run back out through the left boundary.  The +J Z_1
    sign pins the left virtual neighbour down, mirroring the +J Z_N
    term of the transport stage, which is this stage with k = 1
    reversed end to end.
    """
    if not 1 <= k <= N // 2:
        raise ValueError(
            f"registers of {k} spins at both ends need 1 <= k <= N/2, "
            f"the chain has N = {N} spins"
        )
    active = N - k
    t = coupling_profile(active + 1, lam)
    terms = [(t[n - 1], {n: "X"}) for n in range(1, active + 1)]
    terms.append((J, {1: "Z"}))
    terms.extend((J, {n: "Z", n + 1: "Z"}) for n in range(1, N))
    return PauliSum(N, tuple(terms))


def wall_conserving(p: PauliSum) -> PauliSum:
    """The domain-wall approximation of a stage: each ``X_n`` as
    ``X_n (1 - Z_n-1 Z_n+1) / 2``, which moves a wall but makes no pair,
    a spin beyond either end read as down (+1), as the boundary terms
    pin it.  Diagonal terms are kept; any other raises ``ValueError``."""
    n, terms = p.n_spins, []
    for coeff, factors in p.terms:
        if set(factors.values()) <= {"Z"}:
            terms.append((coeff, factors))
        elif list(factors.values()) == ["X"]:
            (site,) = factors
            hop = {s: "Z" for s in (site - 1, site + 1) if 1 <= s <= n}
            terms += [(coeff / 2, factors), (-coeff / 2, {**hop, site: "X"})]
        else:
            raise ValueError(f"term {coeff:g} * {factors} is not Ising")
    return PauliSum(n, tuple(terms))


def energy_offset(N: int, M: int, J: float) -> float:
    """Diagonal energy J(N - 2M) of the M-domain-wall sector."""
    if not 0 <= M <= N:
        raise ValueError(f"wall count {M} out of range for N={N}")
    return J * (N - 2 * M)
