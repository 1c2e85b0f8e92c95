"""Spin-chain state vectors, Pauli-sum operators, and unitary propagators.

Conventions used throughout the package:

* spin 1 (the left end of the chain) is the most significant bit of the
  computational basis index,
* bit value 1 corresponds to the spin state ``|1>`` (up),
* ``sigma_z |0> = +|0>``, so a spin in ``|1>`` has ``<sigma_z> = -1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
ONE_NORM_STEP = 60.0  # below scipy's 63.36 switch to a randomized estimate

_PAULI_LABELS = ("X", "Y", "Z")


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
                if label not in _PAULI_LABELS:
                    raise ValueError(f"unknown Pauli label {label!r}")
            checked.append((float(np.real(coeff)), dict(factors)))
        object.__setattr__(self, "terms", tuple(checked))


@dataclass
class Operator:
    """Sparse Hermitian matrix realization of a Pauli sum."""

    matrix: sp.csr_matrix
    _eig: tuple = field(default=None, repr=False, compare=False)
    _block: tuple = field(default=None, repr=False, compare=False)
    _norm: float = field(default=None, repr=False, compare=False)

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

    def invariant_block(self, amp: np.ndarray):
        """Smallest index set that H maps into itself and that holds the
        nonzero entries of ``amp``, with H restricted to it.

        Returns ``(indices, block)``: the sorted basis indices and the
        block as an ``Operator``, or ``(None, self)`` when the set is the
        whole space.  The set is the support of ``amp`` grown along the
        nonzero pattern of H until it stops changing.  It is cached and
        recomputed only when the support of ``amp`` leaves it.  The cache
        never refers back to this operator, so dropping the operator
        frees its blocks without the cycle collector.
        """
        support = np.flatnonzero(amp)
        if self._block is None or not self._block[0][support].all():
            inside = np.zeros(self.dimension, dtype=bool)
            inside[support] = True
            frontier = support
            while frontier.size:
                fresh = np.zeros(self.dimension, dtype=bool)
                fresh[self.matrix[frontier].indices] = True
                fresh &= ~inside
                inside |= fresh
                frontier = np.flatnonzero(fresh)
            indices = np.flatnonzero(inside)
            if indices.size == self.dimension:
                self._block = (inside, None, None)
            else:
                # rows of the set hold columns of the set only; renumber
                # them by their rank in the set, which keeps them sorted
                rows = self.matrix[indices]
                rank = np.zeros(self.dimension, dtype=np.int64)
                rank[indices] = np.arange(indices.size)
                block = sp.csr_matrix(
                    (rows.data, rank[rows.indices], rows.indptr),
                    shape=(indices.size, indices.size),
                )
                self._block = (inside, indices, Operator(block))
        _, indices, block = self._block
        return (None, self) if indices is None else (indices, block)

    def _shifted_norm(self) -> float:
        """``||H - (tr H / d) 1||_1``, the norm ``expm_multiply`` bounds."""
        if self._norm is None:
            m = self.matrix
            diag = m.diagonal()
            shift = diag.sum() / self.dimension
            col = np.bincount(m.indices, weights=np.abs(m.data),
                              minlength=self.dimension)
            self._norm = float(np.max(col - abs(diag) + abs(diag - shift)))
        return self._norm


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
    """Realize a Pauli sum as a sparse Hermitian matrix."""
    # the Hermiticity check runs after the build's work arrays are freed
    return Operator(_pauli_csr(p))


def _pauli_csr(p: PauliSum) -> sp.csr_matrix:
    """Canonical CSR matrix of a Pauli sum, built from bit masks.

    A Pauli string sends basis index ``i`` to ``i ^ flip``, where
    ``flip`` holds the bits of its X and Y sites, with amplitude
    ``(-1)^popcount(i & zy)`` times ``1j`` per Y, where ``zy`` holds the
    bits of its Z and Y sites.  Terms are summed, in order, into one
    column array per distinct flip mask; the result is canonical CSR
    without stored zeros.
    """
    n, dim = p.n_spins, 2**p.n_spins
    idx = np.arange(dim)
    by_flip = {}  # flip mask -> values indexed by the column
    for coeff, factors in p.terms:
        flip = n_y = 0
        parity = np.zeros(dim, dtype=np.int64)
        for site, label in factors.items():
            shift = n - site
            if label != "Z":
                flip |= 1 << shift
            if label != "X":
                parity ^= idx >> shift & 1
            n_y += label == "Y"
        # float sign: 1 - 2 * parity never wraps around
        values = coeff * (1, 1j, -1, -1j)[n_y % 4] * (1.0 - 2.0 * parity)
        if flip in by_flip:
            by_flip[flip] += values
        else:
            by_flip[flip] = values.astype(complex)
    # one entry per row for each flip mask; sparse addition merges the
    # rows in column order and drops the entries that cancelled
    acc = sp.csr_matrix((dim, dim), dtype=complex)
    for flip, values in by_flip.items():
        acc = acc + sp.csr_matrix(
            (values[idx ^ flip], idx ^ flip, np.arange(dim + 1)),
            shape=(dim, dim),
        )
    return acc


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
    indices, block = h.invariant_block(state.amplitudes)
    amp = state.amplitudes if indices is None else state.amplitudes[indices]
    if cfg.method == "exact-eigendecomposition":
        out = _evolve_exact(amp, block, t)
    else:
        out = _evolve_sparse(amp, block, t)
    drift = abs(np.linalg.norm(out) - 1.0)
    if drift > max(cfg.tolerance, 1e-9):
        raise KrylovBreakdown("propagated state lost normalization", drift)
    if indices is not None:
        full = np.zeros(state.dim, dtype=complex)
        full[indices] = out
        out = full
    return StateVector(state.n_spins, out)


def _evolve_sparse(amp: np.ndarray, h: Operator, t: float) -> np.ndarray:
    # equal sub-steps keep ||dt (H - shift)||_1 at or below the bound under
    # which expm_multiply computes every norm exactly; above it scipy's
    # randomized onenormest would draw from the global np.random state
    steps = max(1, math.ceil(t * h._shifted_norm() / ONE_NORM_STEP))
    a = -1j * (t / steps) * h.matrix
    for _ in range(steps):
        amp = expm_multiply(a, amp)
    return amp


def _evolve_exact(amp: np.ndarray, h: Operator, t: float) -> np.ndarray:
    w, v = h.eigensystem()
    # v^H amp without materializing the conjugate transpose of v
    return v @ (np.exp(-1j * w * t) * np.conj(np.conj(amp) @ v))
