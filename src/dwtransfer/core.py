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

NORM_TOL = 1e-12
NORM_DRIFT_TOL = 1e-9  # largest norm drift of a propagated state
HERMITICITY_TOL = 1e-12
CHEBYSHEV_BATCH = 16  # Chebyshev vectors per output product; at least 3

_PAULI_LABELS = ("X", "Y", "Z")


class DimensionMismatch(ValueError):
    """Operands act on Hilbert spaces of different dimension."""


class KrylovBreakdown(RuntimeError):
    """A propagated state drifted in norm beyond ``NORM_DRIFT_TOL``."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (residual estimate {residual:.3e})")
        self.residual = residual


def basis_index(bits) -> int:
    """Basis index of a classical spin configuration (spin 1 first)."""
    idx = 0
    for b in bits:
        idx = (idx << 1) | (b & 1)
    return idx


def index_bits(index: int, k: int) -> list:
    """Spin configuration of ``k`` spins (spin 1 first) with the given
    basis index; the inverse of :func:`basis_index`."""
    return [(index >> (k - 1 - j)) & 1 for j in range(k)]


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
    _interval: tuple = field(default=None, repr=False, compare=False)
    _chebyshev: "ChebyshevForm" = field(default=None, repr=False,
                                        compare=False)

    def __post_init__(self):
        m = sp.csr_matrix(self.matrix, dtype=complex)
        defect = _hermiticity_defect(m)
        if defect > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
        self.matrix = m

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def eigensystem(self):
        """Dense eigendecomposition of each connected component of H.

        Returns one ``(indices, w, v)`` per component of the nonzero
        pattern, in order of its smallest index: the sorted basis
        indices, the eigenvalues, and the eigenvectors as columns.  A
        real H is diagonalized in real arithmetic, so ``v`` is real
        exactly when H is.  Computed once and cached.
        """
        if self._eig is None:
            real = not self.matrix.data.imag.any()
            parts = []
            for indices in _components(self.matrix):
                sub = _restrict(self.matrix, indices)
                w, v = np.linalg.eigh((sub.real if real else sub).toarray())
                parts.append((indices, w, v))
            self._eig = tuple(parts)
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
            inside = _closure(self.matrix, support)
            indices = np.flatnonzero(inside)
            if indices.size == self.dimension:
                self._block = (inside, None, None)
            else:
                block = Operator(_restrict(self.matrix, indices))
                self._block = (inside, indices, block)
        _, indices, block = self._block
        return (None, self) if indices is None else (indices, block)

    def spectral_interval(self) -> tuple:
        """``(lo, hi)`` holding every eigenvalue.  Cached.

        Gershgorin's discs give it: row ``i`` gives
        ``h_ii -+ sum_{j != i} |h_ij|``, and H is Hermitian, so the
        column sums of ``|H|`` are its row sums.  On a matrix with more
        than a quarter of its entries stored, where the discs can be far
        wider than the spectrum, the interval is narrowed to
        ``c -+ ||(H - c)^8||_F^(1/8)`` about their centre ``c`` when that
        is tighter: for Hermitian ``B``, ``rho(B)^8 = ||B^8||_2 <=
        ||B^8||_F``.  That bound is padded by 1e-12 relative.
        """
        if self._interval is None:
            m = self.matrix
            diag = m.diagonal().real
            radius = np.bincount(m.indices, weights=np.abs(m.data),
                                 minlength=self.dimension) - abs(diag)
            lo, hi = float(np.min(diag - radius)), float(np.max(diag + radius))
            c, a = (hi + lo) / 2, (hi - lo) / 2
            if a > 0 and m.nnz > self.dimension**2 / 4:
                # (H - c) / a has its spectrum in [-1, 1]: no overflow
                b = m.toarray()
                b[np.diag_indices_from(b)] -= c
                b /= a
                for _ in range(3):
                    b = b @ b
                r = a * float(np.linalg.norm(b)) ** 0.125
                r += 1e-12 * (r + abs(c))
                if r < a:
                    lo, hi = c - r, c + r
            self._interval = (lo, hi)
        return self._interval

    def chebyshev_form(self) -> "ChebyshevForm":
        """H rescaled onto [-1, 1] by :meth:`spectral_interval`, with
        the series coefficients of the last time grid.  Built once."""
        if self._chebyshev is None:
            lo, hi = self.spectral_interval()
            self._chebyshev = ChebyshevForm(self.matrix, (hi + lo) / 2,
                                            (hi - lo) / 2)
        return self._chebyshev


class ChebyshevForm:
    """``H = a Ht + c`` with ``Ht`` on [-1, 1], for the Chebyshev series.

    ``matrix`` is ``-2i Ht = -2i (H - c) / a``, the factor of the
    recurrence ``U_k = -2i Ht U_{k-1} + U_{k-2}`` for
    ``U_k = (-i)^k T_k(Ht)``, which folds the powers of ``-i`` of the
    series into the terms and leaves its coefficients real.  It shares
    the index arrays of H when H stores its whole diagonal or ``c`` is 0,
    so that the shift leaves the nonzero pattern as it is.  It refers to
    arrays only, never to the operator.  A zero-width interval (``a = 0``,
    H = c) gives a zero matrix: the series is then its first term alone.
    """

    def __init__(self, m: sp.csr_matrix, centre: float, half_width: float):
        self.centre, self.half_width = centre, half_width
        scale = -2j / half_width if half_width > 0 else 0.0
        rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
        on_diag = m.indices == rows
        if centre == 0.0 or (m.has_canonical_format
                             and np.count_nonzero(on_diag) == m.shape[0]):
            self.matrix = sp.csr_matrix(
                ((m.data - centre * on_diag) * scale, m.indices, m.indptr),
                shape=m.shape)
        else:
            self.matrix = sp.csr_matrix(
                (m - centre * sp.identity(m.shape[0], format="csr")) * scale)
        self._times = self._series = None

    def coefficients(self, times: np.ndarray) -> tuple:
        """``(coef, phase)`` of ``exp(-i H t_j) amp =
        phase[j] sum_k coef[j, k] U_k amp``, kept for the last grid of
        ``times``.

        ``coef`` is real and Fortran-ordered, so that every batch of
        columns is one contiguous block; ``phase`` is ``exp(-i c t_j)``.
        """
        if self._times is None or not np.array_equal(self._times, times):
            self._series = (
                np.asfortranarray(_jacobi_anger(self.half_width * times)),
                np.exp(-1j * self.centre * times))
            self._times = times.copy()
        return self._series


def _closure(m: sp.csr_matrix, seeds: np.ndarray) -> np.ndarray:
    """Mask of the smallest index set that holds ``seeds`` and that the
    nonzero pattern of ``m`` maps into itself."""
    inside = np.zeros(m.shape[0], dtype=bool)
    inside[seeds] = True
    frontier = seeds
    while frontier.size:
        fresh = np.zeros(m.shape[0], dtype=bool)
        fresh[m[frontier].indices] = True
        fresh &= ~inside
        inside |= fresh
        frontier = np.flatnonzero(fresh)
    return inside


def _components(m: sp.csr_matrix) -> list:
    """Sorted index arrays of the connected components of the nonzero
    pattern of a Hermitian ``m``, in order of their smallest index."""
    left = np.ones(m.shape[0], dtype=bool)
    parts = []
    while left.any():
        inside = _closure(m, np.flatnonzero(left)[:1])
        parts.append(np.flatnonzero(inside))
        left &= ~inside
    return parts


def _restrict(m: sp.csr_matrix, indices: np.ndarray) -> sp.csr_matrix:
    """``m`` restricted to a sorted index set that it maps into itself.

    The rows of the set hold columns of the set only; they are renumbered
    by their rank in the set, which keeps them sorted.
    """
    rows = m[indices]
    rank = np.zeros(m.shape[0], dtype=np.int64)
    rank[indices] = np.arange(indices.size)
    return sp.csr_matrix((rows.data, rank[rows.indices], rows.indptr),
                         shape=(indices.size, indices.size))


def _hermiticity_defect(m: sp.csr_matrix) -> float:
    """``max |m - m^H|`` over the entries, from one transposed copy.

    Canonical CSR (sorted columns, no duplicates) of a matrix with a
    symmetric pattern shares its pattern with its transpose, so the
    defect is a difference of the two value arrays; any other matrix
    falls back to the sparse difference.
    """
    t = m.T.tocsr()  # the transpose, in canonical CSR
    if (np.array_equal(t.indptr, m.indptr)
            and np.array_equal(t.indices, m.indices)):
        diff = np.conjugate(t.data, out=t.data)
        diff -= m.data
        return float(np.abs(diff).max(initial=0.0))
    return float(abs(m - t.conj()).max())


@dataclass(frozen=True)
class PropagatorConfig:
    """How ``evolve`` approximates ``exp(-i H t)``.

    ``exact-eigendecomposition`` is the dense reference path: H is
    diagonalized once on each connected component of its nonzero
    pattern, in real arithmetic when H is real, and only the components
    the state occupies are propagated.  ``krylov`` is the sparse fast
    path.  It is a Chebyshev expansion of the exponential on the
    spectral interval of H (Tal-Ezer & Kosloff 1984), truncated at
    round-off; ``"krylov"`` is kept as its name so that existing
    manifests run.
    """

    method: str = "krylov"

    def __post_init__(self):
        if self.method not in ("exact-eigendecomposition", "krylov"):
            raise ValueError(f"unknown propagator method {self.method!r}")


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
    t: float | np.ndarray,
    cfg: PropagatorConfig = PropagatorConfig(),
) -> StateVector | np.ndarray:
    """Apply ``exp(-i H t)`` to a state.

    ``t`` is one time, which returns one ``StateVector``, or a 1-D
    non-decreasing array of times, which returns a read-only
    ``(len(t), 2^N)`` array whose row ``j`` is the state at ``t[j]``,
    all from one call.  Every returned state is renormalized; its norm
    drift before renormalization must stay within ``NORM_DRIFT_TOL``.
    """
    if h.dimension != state.dim:
        raise DimensionMismatch(
            f"operator dimension {h.dimension} != state dimension {state.dim}"
        )
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"evolution times must be 1-D, got shape "
                         f"{times.shape}")
    grid = np.atleast_1d(times)
    bad = np.flatnonzero(~((grid >= 0.0) & (grid < np.inf)))
    if bad.size:
        raise ValueError(f"evolution time must be finite and non-negative, "
                         f"got {float(grid[bad[0]])!r}")
    back = np.flatnonzero(np.diff(grid) < 0.0)
    if back.size:
        i = back[0]
        raise ValueError(f"evolution times must be non-decreasing, got "
                         f"{float(grid[i + 1])!r} after {float(grid[i])!r}")
    if times.ndim == 0:
        if times == 0.0:
            return state
        return StateVector(state.n_spins, _propagate(state, h, grid, cfg)[0])
    return _propagate(state, h, grid, cfg)


def _propagate(state, h, times, cfg):
    """Read-only rows: the state at each of ``times``, propagated on its
    invariant block and renormalized there."""
    # zero times lead the grid and keep the state exactly
    zeros = int(np.count_nonzero(times == 0.0))
    if zeros == times.size:
        out = np.tile(state.amplitudes, (times.size, 1))
        out.flags.writeable = False
        return out
    indices, block = h.invariant_block(state.amplitudes)
    amp = state.amplitudes if indices is None else state.amplitudes[indices]
    if cfg.method == "exact-eigendecomposition":
        rows = _evolve_exact(amp, block, times[zeros:])
    else:
        rows = _evolve_chebyshev(amp, block, times[zeros:])
    norms = np.linalg.norm(rows, axis=1)
    drift = np.abs(norms - 1.0).max()
    if drift > NORM_DRIFT_TOL:
        raise KrylovBreakdown("propagated state lost normalization", drift)
    rows /= norms[:, None]
    if indices is None and not zeros:
        out = rows
    else:
        out = np.zeros((times.size, state.dim), dtype=complex)
        out[:zeros] = state.amplitudes
        if indices is None:
            out[zeros:] = rows
        else:
            out[zeros:, indices] = rows
    out.flags.writeable = False
    return out


def _evolve_chebyshev(amp: np.ndarray, h: Operator,
                      times: np.ndarray) -> np.ndarray:
    """Rows ``exp(-i H t_j) amp`` from one Chebyshev recurrence.

    With ``H = a Ht + c`` and ``Ht`` on [-1, 1] (``Operator.chebyshev_form``),
    ``exp(-i H t) = exp(-i c t) sum_k (2 - d_k0) J_k(a t) U_k`` with
    ``U_k = (-i)^k T_k(Ht)``.  Each term ``U_k amp`` costs one product
    with ``-2i Ht`` and one addition.  The terms are kept in a ring of
    ``CHEBYSHEV_BATCH`` rows, added into every output by one real
    product per batch on their interleaved real and imaginary parts.
    The phase ``exp(-i c t_j)`` is applied once per row at the end.
    """
    form = h.chebyshev_form()
    coef, phase = form.coefficients(times)
    n_terms = coef.shape[1]
    size = min(n_terms, CHEBYSHEV_BATCH)
    ring = np.empty((size, amp.size), dtype=complex)
    ring[0] = amp
    out = np.zeros((times.size, amp.size), dtype=complex)
    flat, ring_flat = out.view(float), ring.view(float)
    for k in range(n_terms):
        row = k % size
        if k == 1:  # U_1 = -i Ht U_0
            np.multiply(form.matrix @ amp, 0.5, out=ring[1])
        elif k:
            np.add(form.matrix @ ring[(k - 1) % size],
                   ring[(k - 2) % size], out=ring[row])
        if row == size - 1 or k == n_terms - 1:
            flat += coef[:, k - row:k + 1] @ ring_flat[:row + 1]
    out *= phase[:, None]
    return out


def _jacobi_anger(z: np.ndarray) -> np.ndarray:
    """``c[j, k] = (2 - d_k0) J_k(z_j)``, truncated at round-off.

    ``J_k(z)`` is the ``k``-th Fourier coefficient of
    ``exp(i z sin(theta))`` (Jacobi-Anger), taken with an FFT on ``m``
    points.  ``m`` doubles until the top quarter of the kept half lies
    below the round-off of the samples, ``eps (1 + max z)``, so aliasing
    stays below it too.
    """
    zmax = float(z.max())
    floor = np.finfo(float).eps * (1.0 + zmax)
    m = 64
    while m < 2 * zmax + 64:
        m *= 2
    while True:
        theta = np.arange(m) * (2 * np.pi / m)
        coef = np.fft.fft(np.exp(1j * np.multiply.outer(z, np.sin(theta))),
                          axis=1)[:, :m // 2].real / m
        size = np.abs(coef).max(axis=0)
        if size[3 * m // 8:].max() <= floor:
            break
        m *= 2
    kept = np.flatnonzero(size > floor)
    coef = coef[:, :kept[-1] + 1 if kept.size else 1]
    coef[:, 1:] *= 2
    return coef


def _evolve_exact(amp: np.ndarray, h: Operator,
                  times: np.ndarray) -> np.ndarray:
    """Rows ``exp(-i H t_j) amp`` from the eigensystem of each component
    of H; the components on which ``amp`` vanishes stay zero."""
    out = np.zeros((times.size, amp.size), dtype=complex)
    for indices, w, v in h.eigensystem():
        x = amp[indices]
        if not x.any():
            continue
        if np.iscomplexobj(v):
            # v^H x without materializing the conjugate transpose of v
            c = np.conj(np.conj(x) @ v)
            product = np.matmul
        else:
            c = _real_matmul(v.T, x[:, None])[:, 0]
            product = _real_matmul
        phased = np.exp(-1j * np.multiply.outer(w, times)) * c[:, None]
        out[:, indices] = product(v, phased).T
    return out


def _real_matmul(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``v @ x`` for a real ``v`` and a C-contiguous complex ``x``, as one
    real product on the interleaved real and imaginary parts of ``x``
    (``v @ x`` itself would copy ``v`` to complex)."""
    return (v @ x.view(float)).view(complex)
