"""Spin-chain state vectors, Pauli-sum operators, and unitary propagators.

Conventions used throughout the package:

* spin 1 (the left end of the chain) is the most significant bit of the
  computational basis index,
* bit value 1 corresponds to the spin state ``|1>`` (up),
* ``sigma_z |0> = +|0>``, so a spin in ``|1>`` has ``<sigma_z> = -1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12

_PAULI = {
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


class DimensionMismatch(ValueError):
    """Operands act on Hilbert spaces of different dimension."""


class KrylovBreakdown(RuntimeError):
    """A propagated state drifted in norm beyond the requested tolerance."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (residual estimate {residual:.3e})")
        self.residual = residual


def bit_at(index: int, site: int, n_spins: int) -> int:
    """Bit of `site` (1-based, spin 1 = MSB) in a basis index."""
    return (index >> (n_spins - site)) & 1


def basis_index(bits) -> int:
    """Basis index of a classical spin configuration (spin 1 first)."""
    idx = 0
    for b in bits:
        idx = (idx << 1) | (b & 1)
    return idx


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of an ``n_spins`` chain.

    The amplitude array is copied on construction and frozen; instances are
    safe to share between workers.
    """

    n_spins: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_spins < 1:
            raise ValueError(f"n_spins must be >= 1, got {self.n_spins}")
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (2**self.n_spins,):
            raise DimensionMismatch(
                f"expected {2**self.n_spins} amplitudes, got {amp.shape}"
            )
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"state not normalized: |psi| = {norm}")
        amp = amp / norm  # remove residual float drift
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return 2**self.n_spins

    @classmethod
    def from_bits(cls, bits) -> "StateVector":
        """Computational basis state from a spin configuration."""
        bits = list(bits)
        amp = np.zeros(2 ** len(bits), dtype=complex)
        amp[basis_index(bits)] = 1.0
        return cls(len(bits), amp)

    @classmethod
    def basis(cls, n_spins: int, index: int) -> "StateVector":
        amp = np.zeros(2**n_spins, dtype=complex)
        amp[index] = 1.0
        return cls(n_spins, amp)

    def norm_defect(self) -> float:
        return abs(np.linalg.norm(self.amplitudes) - 1.0)


@dataclass(frozen=True)
class PauliSum:
    """Real-weighted sum of Pauli strings on an ``n_spins`` chain.

    ``terms`` is a sequence of ``(coefficient, factors)`` pairs where
    ``factors`` maps 1-based site indices to one of ``"X"``, ``"Y"``,
    ``"Z"``.  Real coefficients keep the realized matrix Hermitian by
    construction.
    """

    n_spins: int
    terms: tuple

    def __post_init__(self):
        checked = []
        for coeff, factors in self.terms:
            if np.iscomplexobj(coeff) and abs(np.imag(coeff)) > 0:
                raise ValueError(f"coefficient must be real, got {coeff}")
            for site, label in factors.items():
                if not 1 <= site <= self.n_spins:
                    raise ValueError(
                        f"site {site} out of range for {self.n_spins} spins"
                    )
                if label not in _PAULI:
                    raise ValueError(f"unknown Pauli label {label!r}")
            checked.append((float(np.real(coeff)), dict(factors)))
        object.__setattr__(self, "terms", tuple(checked))


@dataclass
class Operator:
    """Sparse Hermitian matrix realization of a Pauli sum."""

    matrix: sp.csr_matrix
    _eig: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        m = sp.csr_matrix(self.matrix, dtype=complex)
        defect = abs(m - m.getH())
        if defect.nnz and defect.max() > HERMITICITY_TOL:
            raise ValueError(
                f"matrix is not Hermitian (defect {defect.max():.3e})"
            )
        self.matrix = m

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def eigensystem(self):
        """Dense eigendecomposition, computed once and cached."""
        if self._eig is None:
            w, v = np.linalg.eigh(self.matrix.toarray())
            self._eig = (w, v)
        return self._eig


@dataclass(frozen=True)
class PropagatorConfig:
    """How ``evolve`` approximates ``exp(-i H t)``.

    ``exact-eigendecomposition`` is the dense reference path; ``krylov``
    is the sparse fast path and must agree with it to ``tolerance``.
    The sparse path is the truncated-Taylor action of the exponential
    (Al-Mohy & Higham 2011, ``scipy.sparse.linalg.expm_multiply``);
    ``"krylov"`` is kept as its name so that existing manifests run.
    """

    method: str = "krylov"
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.method not in ("exact-eigendecomposition", "krylov"):
            raise ValueError(f"unknown propagator method {self.method!r}")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


def realize(p: PauliSum) -> Operator:
    """Realize a Pauli sum as a sparse Hermitian matrix.

    The result is ``sum_k c_k (kron of single-site Paulis)`` with identity
    on every site not named by the term.
    """
    dim = 2**p.n_spins
    acc = sp.csr_matrix((dim, dim), dtype=complex)
    ident = sp.identity(2, dtype=complex, format="csr")
    for coeff, factors in p.terms:
        term = sp.identity(1, dtype=complex, format="csr")
        for site in range(1, p.n_spins + 1):
            label = factors.get(site)
            local = sp.csr_matrix(_PAULI[label]) if label else ident
            term = sp.kron(term, local, format="csr")
        acc = acc + coeff * term
    acc.eliminate_zeros()
    return Operator(acc)


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap ``|<a|b>|^2``; insensitive to global phases."""
    if a.n_spins != b.n_spins:
        raise DimensionMismatch(
            f"states have {a.n_spins} and {b.n_spins} spins"
        )
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def sigma_z_expectation(state: StateVector, site: int) -> float:
    """``<sigma_z>`` of one spin; +1 for basis bit 0, -1 for bit 1."""
    n = state.n_spins
    if not 1 <= site <= n:
        raise ValueError(f"site {site} out of range for {n} spins")
    bits = (np.arange(state.dim) >> (n - site)) & 1
    z = 1.0 - 2.0 * bits
    return float(np.real(np.sum(z * np.abs(state.amplitudes) ** 2)))


def evolve(
    state: StateVector,
    h: Operator,
    t: float,
    cfg: PropagatorConfig = PropagatorConfig(),
) -> StateVector:
    """Apply ``exp(-i H t)`` to a state.

    The returned state is renormalized; the norm drift before
    renormalization must stay within ``cfg.tolerance``.
    """
    if h.dimension != state.dim:
        raise DimensionMismatch(
            f"operator dimension {h.dimension} != state dimension {state.dim}"
        )
    if t < 0:
        raise ValueError("evolution time must be non-negative")
    if t == 0:
        return state
    if cfg.method == "exact-eigendecomposition":
        out = _evolve_exact(state.amplitudes, h, t)
    else:
        out = expm_multiply(-1j * t * h.matrix, state.amplitudes)
    drift = abs(np.linalg.norm(out) - 1.0)
    if drift > max(cfg.tolerance, 1e-9):
        raise KrylovBreakdown("propagated state lost normalization", drift)
    return StateVector(state.n_spins, out)


def _evolve_exact(amp: np.ndarray, h: Operator, t: float) -> np.ndarray:
    w, v = h.eigensystem()
    # v^H amp without materializing the conjugate transpose of v
    return v @ (np.exp(-1j * w * t) * np.conj(np.conj(amp) @ v))
