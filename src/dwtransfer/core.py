"""Pauli-sum operators and unitary propagators of spin-chain states.

Conventions used throughout the package:

* spin 1 (the left end of the chain) is the most significant bit of the
  computational basis index,
* bit value 1 corresponds to the spin state ``|1>`` (up),
* ``sigma_z |0> = +|0>``, so a spin in ``|1>`` has ``<sigma_z> = -1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_DRIFT_TOL = 1e-9  # largest norm drift of a propagated state
HERMITICITY_TOL = 1e-12
CHEBYSHEV_BATCH = 16  # Chebyshev vectors per output product; at least 3
# largest asymmetry, relative to a component's largest entry, of a mirror
# that splits it (_Factors.mirror); the protocol stages measure either
# <= 1.5e-16 (a symmetry) or >= 0.31 (none)
MIRROR_TOL = 16 * np.finfo(float).eps

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


def reflect(x, bits):
    """``x`` with its bits at the positions ``bits`` read in reverse
    order, the bit at ``bits[j]`` moved to ``bits[-1 - j]``, and every
    other bit kept: over the positions of a chain's spins, the chain
    reversal as a map of basis indices, its own inverse."""
    bits = [int(b) for b in bits]
    mask = sum(1 << b for b in bits)
    out = x & ~mask
    for b, r in zip(bits, reversed(bits)):
        out |= (x >> b & 1) << r
    return out


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

    def reversed(self) -> "PauliSum":
        """The chain reversal: site n to N + 1 - n, term for term, each
        coefficient kept bit for bit.  Its own inverse."""
        end = self.n_spins + 1
        return PauliSum(self.n_spins, tuple(
            (c, {end - s: f for s, f in factors.items()})
            for c, factors in self.terms))


class Operator:
    """Hermitian matrix: a Pauli sum realized by :func:`realize`, or a
    matrix checked for Hermiticity, dense or with a ``toarray`` method
    (a sparse matrix), which is densified.

    H is held in one of two forms, which share a small interface
    (``product``, ``gershgorin``, ``neighbours``, ``block`` and
    ``entries``): ``_Dense``, a dense array, and ``_Factors``, a Pauli
    sum as small dense factors across the middle of the chain.  The
    eigensystems of the components a state occupies, the spectral
    interval and the Chebyshev series of the last time grid are computed
    from that interface and cached.
    """

    def __init__(self, matrix):
        if isinstance(matrix, (_Dense, _Factors)):
            self._h = matrix
        else:
            a = np.asarray(matrix.toarray() if hasattr(matrix, "toarray")
                           else matrix)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ValueError(f"matrix must be square, got shape "
                                 f"{a.shape}")
            defect = float(np.abs(a - a.conj().T).max(initial=0.0))
            if defect > HERMITICITY_TOL:
                raise ValueError(
                    f"matrix is not Hermitian (defect {defect:.3e})")
            self._h = _Dense(a)
        self._eig = self._components = self._interval = None
        self._series = self._csr = None

    @property
    def dimension(self) -> int:
        return self._h.dimension

    @property
    def matrix(self):
        """H as a canonical complex ``csr_matrix``, built on first access
        and cached.  Nothing in this package reads it, so only a caller
        that does loads the sparse module."""
        if self._csr is None:
            import scipy.sparse as sp

            rows, cols, values = self._h.entries()
            self._csr = sp.csr_matrix(
                (values.astype(complex), (rows, cols)),
                shape=(self.dimension, self.dimension))
        return self._csr

    def eigensystem(self):
        """``(w, v)``, the dense eigendecomposition of H: its eigenvalues
        and its eigenvectors as columns.  A real H is diagonalized in
        real arithmetic, so ``v`` is real exactly when H is.  Computed
        once and cached."""
        if self._eig is None:
            h = self._h
            self._eig = np.linalg.eigh(
                h.a if isinstance(h, _Dense)
                else h.block(np.arange(self.dimension)))
        return self._eig

    def components(self, amp: np.ndarray) -> list:
        """``(indices, parts)`` of each connected component of the nonzero
        pattern of H that holds a nonzero entry of ``amp``: its sorted
        basis indices and the eigensystem of H on it, as parts that
        together span the component.

        A part is ``(label, weight, w, v)``: component state ``i`` is
        ``weight[i]`` times the part's basis state ``label[i]``, and
        ``(w, v)`` is the eigensystem of H on that basis (``eigensystem``).
        A component is grown by ``_closure`` from an entry of the support
        that no component found so far holds, and is diagonalized once.
        Where a spin mirror of a Pauli sum commutes with H on it
        (``_Factors.mirror``), that is two real parts of about half the
        size, its even and its odd states (``_mirror_eigensystem``).
        Otherwise it is one part, ``label`` the identity and ``weight``
        1, from one ``eigh`` of a dense copy that is dropped once
        ``eigh`` has run; a component that is the whole space takes
        this operator's own ``eigensystem``.  Each basis index keeps the
        label of its component.  The cache holds those labels and the
        parts, never this operator, so dropping the operator frees them
        without the cycle collector.
        """
        if self._components is None:
            self._components = (np.full(self.dimension, -1), [])
        label, systems = self._components
        support = np.flatnonzero(amp)
        while True:
            fresh = support[label[support] < 0]
            if not fresh.size:
                break
            indices = np.flatnonzero(_closure(self._h, fresh[:1]))
            label[indices] = len(systems)
            pairs = (self._h.mirror(indices)
                     if isinstance(self._h, _Factors) else None)
            if pairs is not None:
                parts = _mirror_eigensystem(self._h, indices, pairs)
            else:
                parts = ((np.arange(indices.size), np.ones(indices.size),
                          *(self if indices.size == self.dimension
                            else Operator(_Dense(self._h.block(indices)))
                            ).eigensystem()),)
            systems.append((indices, parts))
        # marked, not np.unique'd: np.unique imports numpy.ma
        touched = np.zeros(len(systems), dtype=bool)
        touched[label[support]] = True
        return [systems[k] for k in np.flatnonzero(touched)]

    def spectral_interval(self) -> tuple:
        """``(lo, hi)`` holding every eigenvalue.  Cached.

        Gershgorin's discs give it: row ``i`` gives
        ``h_ii -+ sum_{j != i} |h_ij|``.  On a matrix with more than a
        quarter of its entries nonzero, where the discs can be far wider
        than the spectrum, the interval is narrowed to
        ``c -+ ||(H - c)^8||_F^(1/8)`` about their centre ``c`` when that
        is tighter: for Hermitian ``B``, ``rho(B)^8 = ||B^8||_2 <=
        ||B^8||_F``.  That bound is padded by 1e-12 relative.
        """
        if self._interval is None:
            diag, radius, count = self._h.gershgorin()
            lo, hi = float(np.min(diag - radius)), float(np.max(diag + radius))
            c, a = (hi + lo) / 2, (hi - lo) / 2
            if a > 0 and count.sum() > self.dimension**2 / 4:
                # (H - c) / a has its spectrum in [-1, 1]: no overflow
                b = self._h.block(np.arange(self.dimension))
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

    def series(self, times: np.ndarray) -> tuple:
        """``(coef, phase, c, 2/a)`` of the Chebyshev series
        (``_evolve_chebyshev``) on the grid ``times``, ``c -+ a`` the ends
        of the spectral interval (2/a is 0 if a = 0), kept for the last
        grid: ``coef`` real and Fortran-ordered, so that every batch of
        columns is one contiguous block, and ``phase`` ``exp(-i c t_j)``."""
        if not (self._series and np.array_equal(self._series[0], times)):
            lo, hi = self.spectral_interval()
            centre, half_width = (hi + lo) / 2, (hi - lo) / 2
            coef = np.asfortranarray(_jacobi_anger(half_width * times))
            scale = 2.0 / half_width if half_width > 0 else 0.0
            self._series = (times.copy(), coef, np.exp(-1j * centre * times),
                            centre, scale)
        return self._series[1:]


class _Dense:
    """A dense Hermitian matrix, stored real when its entries are."""

    def __init__(self, a: np.ndarray):
        a = _real_if_exact(a)
        self.a = np.ascontiguousarray(
            a, dtype=complex if np.iscomplexobj(a) else float)
        self.dimension = self.a.shape[0]
        self.shape = (self.dimension, 1)

    def product(self, p: np.ndarray, shift: float = 0.0) -> np.ndarray:
        """``(H - shift) x`` for ``x`` in planar layout (``_planar``)."""
        x = p.reshape(2, -1)
        if np.iscomplexobj(self.a):
            z = self.a @ (x[0] + 1j * x[1])
            y = np.stack((z.real, z.imag))
        else:
            y = x @ self.a.T  # a @ x_re and a @ x_im as rows
        if shift:
            y -= shift * x
        return y.reshape(p.shape)

    def gershgorin(self) -> tuple:
        """``(diagonal, radius, nonzeros)`` of every row."""
        diag = self.a.diagonal().real
        return (diag, np.abs(self.a).sum(axis=1) - np.abs(diag),
                np.count_nonzero(self.a, axis=1))

    def neighbours(self, rows: np.ndarray) -> np.ndarray:
        """Columns of the nonzero entries of ``rows``."""
        return np.nonzero(self.a[rows])[1]

    def block(self, indices: np.ndarray) -> np.ndarray:
        """A fresh dense copy of H on a sorted index set."""
        return self.a[np.ix_(indices, indices)]

    def entries(self) -> tuple:
        """``(rows, columns, values)`` of the nonzero entries."""
        rows, cols = np.nonzero(self.a)
        return rows, cols, self.a[rows, cols]


class _Factors:
    """A Pauli sum on N spins as small dense factors across the middle.

    The basis index is ``i = l 2^R + r``, with ``l`` on the first ``L =
    N // 2`` spins and ``r`` on the other ``R``, so a vector is the
    ``2^L x 2^R`` matrix ``X`` and
    ``H X = D o X + B X + X C^T + sum_s B_s X C_s^T``.  ``D`` sums the
    strings of Z factors only, ``B`` (``2^L x 2^L``) the other strings
    that act on the first ``L`` spins only, ``C`` (``2^R x 2^R``) those
    that act on the last ``R`` only, and each string that acts on both
    halves is one ``B_s (x) C_s``.  A vector comes in planar layout
    (``_planar``), so that real factors apply to its real and imaginary
    parts at once: ``B`` on both ``X`` planes, ``C`` on the
    ``2^(L+1) x 2^R`` stack of them.

    The nonzero pattern comes from ``weights``: for each flip mask ``f``
    in ``flips`` (the bits of the X and Y sites of a string), the terms
    with that mask summed into ``H[j ^ f, j] = weights[k, j]``, so that
    the XX and YY terms of a hop cancel where they do in H.
    """

    def __init__(self, p: PauliSum):
        n = p.n_spins
        cut = n // 2
        self.dimension = 2**n
        self.shape = (2**cut, 2**(n - cut))
        diag = np.zeros(self.dimension)
        by_flip = {}
        left, right = np.zeros((self.shape[0],) * 2), np.zeros(
            (self.shape[1],) * 2)
        self.straddle = []
        for coeff, factors in p.terms:
            flip, values = _pauli_string(n, factors)
            if not flip:  # Z factors only: real
                diag += coeff * values
                continue
            by_flip[flip] = by_flip.get(flip, 0.0) + coeff * values
            on_left = {s: f for s, f in factors.items() if s <= cut}
            on_right = {s - cut: f for s, f in factors.items() if s > cut}
            if not on_right:
                left = left + coeff * _string_matrix(cut, on_left)
            elif not on_left:
                right = right + coeff * _string_matrix(n - cut, on_right)
            else:
                self.straddle.append(
                    (_real_if_exact(coeff * _string_matrix(cut, on_left)),
                     _real_if_exact(_string_matrix(n - cut, on_right))))
        self.diag = diag.reshape(self.shape)
        self.left = _real_if_exact(left) if left.any() else None
        self.right = _real_if_exact(right) if right.any() else None
        self.real = not any(np.iscomplexobj(m) for m in (
            self.left, self.right, *(m for s in self.straddle for m in s)))
        self.flips = np.array(sorted(by_flip), dtype=np.int64)
        self.weights = _real_if_exact(np.array(
            [by_flip[f] for f in self.flips]).reshape(
                self.flips.size, self.dimension))

    def product(self, p: np.ndarray, shift: float = 0.0) -> np.ndarray:
        if not self.real:  # a Y factor: the same in complex arithmetic
            x = p[0] + 1j * p[1]
            y = (self.diag - shift) * x
            if self.left is not None:
                y += self.left @ x
            if self.right is not None:
                y += x @ self.right.T
            for b, c in self.straddle:
                y += b @ x @ c.T
            return np.stack((y.real, y.imag))
        stacked = (2 * self.shape[0], self.shape[1])
        y = (self.diag - shift) * p
        if self.left is not None:
            y += np.matmul(self.left, p)
        if self.right is not None:
            y += (p.reshape(stacked) @ self.right.T).reshape(p.shape)
        for b, c in self.straddle:
            y += (np.matmul(b, p).reshape(stacked) @ c.T).reshape(p.shape)
        return y

    def gershgorin(self) -> tuple:
        diag = self.diag.reshape(-1)
        return (diag, np.abs(self.weights).sum(axis=0),
                (diag != 0) + np.count_nonzero(self.weights, axis=0))

    def neighbours(self, rows: np.ndarray) -> np.ndarray:
        return (rows ^ self.flips[:, None])[self.weights[:, rows] != 0]

    def block(self, indices: np.ndarray) -> np.ndarray:
        """H on a sorted index set that it maps into itself."""
        d = indices.size
        sub = np.zeros((d, d), dtype=self.weights.dtype)
        rows, cols, values = self.local_entries(indices)
        sub[rows, cols] = values
        return sub

    def local_entries(self, indices: np.ndarray) -> tuple:
        """``(rows, columns, values)`` of H on a sorted index set that it
        maps into itself, as positions in ``indices``: the whole
        diagonal, then the nonzero entries off it."""
        d = indices.size
        w = self.weights[:, indices]
        nz = w != 0
        rows = np.searchsorted(indices, (indices ^ self.flips[:, None])[nz])
        diagonal = np.arange(d)
        return (np.concatenate((diagonal, rows)),
                np.concatenate((diagonal, np.nonzero(nz)[1])),
                np.concatenate((self.diag.reshape(-1)[indices], w[nz])))

    def mirror(self, indices: np.ndarray):
        """Position in ``indices`` of the image of each of its entries
        under a spin mirror that commutes with H on them, or None.

        ``active``, the spins some term flips, are reflected (``R``,
        ``reflect``), and then all flipped as well when ``R`` alone
        fails: a stage that freezes spins at both ends of its active
        ones commutes with ``R`` when the two ends agree and with the
        flipped ``R`` when they differ.  A map is taken when it maps
        ``indices`` onto itself, keeps the diagonal, and maps each flip
        mask ``f`` to a flip mask ``R(f)`` with ``weights[R(f)]`` at each
        image the ``weights[f]`` at its source, all within
        ``MIRROR_TOL`` of the largest entry.  That is O(|flips| d) reads
        and no dense copy.  None for complex weights, and when every
        entry would be its own image (no odd states).
        """
        if np.iscomplexobj(self.weights) or not self.flips.size:
            return None
        active = int(np.bitwise_or.reduce(self.flips))
        bits = np.flatnonzero(active >> np.arange(active.bit_length()) & 1)
        image_flips = reflect(self.flips, bits)
        flip_rows = np.minimum(np.searchsorted(self.flips, image_flips),
                               self.flips.size - 1)
        if (self.flips[flip_rows] != image_flips).any():
            return None
        diag = self.diag.reshape(-1)[indices]
        w = self.weights[:, indices]
        tol = MIRROR_TOL * max(np.abs(diag).max(), np.abs(w).max())
        own, mirrored = np.arange(indices.size), reflect(indices, bits)
        for toggle in (0, active):
            image = mirrored ^ toggle
            pos = np.minimum(np.searchsorted(indices, image), own[-1])
            if ((indices[pos] == image).all() and (pos != own).any()
                    and np.abs(diag[pos] - diag).max() <= tol
                    and np.abs(w[flip_rows[:, None], pos] - w).max() <= tol):
                return pos
        return None

    def entries(self) -> tuple:
        idx = np.arange(self.dimension)
        rows = np.concatenate([idx, *(idx ^ f for f in self.flips)])
        cols = np.tile(idx, self.flips.size + 1)
        values = np.concatenate([self.diag.reshape(-1),
                                 self.weights.reshape(-1)])
        nz = values != 0
        return rows[nz], cols[nz], values[nz]


def _real_if_exact(a: np.ndarray) -> np.ndarray:
    """``a`` as a real array when its imaginary part is exactly 0."""
    if np.iscomplexobj(a) and not a.imag.any():
        return np.ascontiguousarray(a.real)
    return a


def _planar(amp: np.ndarray, shape: tuple) -> np.ndarray:
    """``amp`` in the planar layout of a form of ``shape = (m, n)``: the
    real ``(2, m, n)`` array of its real and its imaginary parts, each
    as an ``m x n`` matrix.  The factor form needs it because it acts
    from the right as well (``X C^T``), which would mix the interleaved
    real and imaginary parts of a complex array (``_real_matmul``)."""
    return np.stack((amp.real, amp.imag)).reshape((2,) + shape)


def _complex(p: np.ndarray) -> np.ndarray:
    """Complex vectors from a stack of planar layouts, ``(..., 2, m, n)``
    to ``(..., m n)``."""
    z = np.empty(p.shape[:-3] + (p.shape[-2] * p.shape[-1],), dtype=complex)
    z.real = p[..., 0, :, :].reshape(z.shape)
    z.imag = p[..., 1, :, :].reshape(z.shape)
    return z


def _closure(h, seeds: np.ndarray) -> np.ndarray:
    """Mask of the smallest index set that holds ``seeds`` and that the
    nonzero pattern of the form ``h`` maps into itself."""
    inside = np.zeros(h.dimension, dtype=bool)
    inside[seeds] = True
    frontier = seeds
    while frontier.size:
        fresh = np.zeros(h.dimension, dtype=bool)
        fresh[h.neighbours(frontier)] = True
        fresh &= ~inside
        inside |= fresh
        frontier = np.flatnonzero(fresh)
    return inside


def _mirror_eigensystem(h, indices: np.ndarray, pairs: np.ndarray) -> tuple:
    """The two parts (``Operator.components``) of the form ``h`` on
    ``indices``, its even and its odd states under the mirror
    ``i -> pairs[i]`` (``_Factors.mirror``), each from one ``eigh``.

    The even states are ``e_i`` for a fixed point and ``(e_i + e_g)/sqrt 2``
    for a pair ``i < g``, the odd ones ``(e_i - e_g)/sqrt 2``, each
    numbered in the order of ``i``; a fixed point has weight 0 in the
    odd part.  Each half is summed from the nonzero entries of H on
    ``indices`` by one ``bincount``, never gathered from a dense copy.
    """
    own = np.arange(indices.size)
    fixed, lead = pairs == own, own < pairs
    first = np.minimum(own, pairs)
    even = (np.cumsum(fixed | lead) - 1)[first]
    odd = (np.cumsum(lead) - 1)[first]
    odd[fixed] = 0  # a fixed point has no odd state: its weight is 0
    half = np.sqrt(0.5)
    rows, cols, values = h.local_entries(indices)
    parts = []
    for label, weight in (
            (even, np.where(fixed, 1.0, half)),
            (odd, np.where(fixed, 0.0, np.where(lead, half, -half)))):
        size = int(label.max()) + 1
        block = np.bincount(label[rows] * size + label[cols],
                            weight[rows] * weight[cols] * values,
                            minlength=size**2).reshape(size, size)
        parts.append((label, weight,
                      *Operator(_Dense(block)).eigensystem()))
        del block
    return tuple(parts)


@dataclass(frozen=True)
class PropagatorConfig:
    """How a run approximates ``exp(-i H t)``.

    ``exact-eigendecomposition`` is the dense reference path: H is
    diagonalized once on each connected component of its nonzero
    pattern that a state occupies, in real arithmetic when H is real,
    and only those components are propagated.  A component that a spin
    mirror maps onto itself, as every protocol stage's does, is
    diagonalized and propagated as its even and odd halves
    (``Operator.components``, ``_evolve_exact``), so no eigenvector
    matrix of the whole component is formed.  A k = 1 transfer's reset
    stage, transport reversed end to end, reuses transport's
    eigensystems (``protocol._Amplitudes.build``).  ``krylov``, the
    default, is the fast path.  On it the XY baseline, and a transfer
    whose payload is Gaussian on the wall fermions, run exactly on free
    fermions (``protocol.path_class``), their state the Majorana
    covariance, which ``evolve`` propagates exactly under a
    ``MajoranaOperator`` whatever the method;
    every other run, and every ``evolve`` call on an ``Operator``, takes
    a Chebyshev expansion of the exponential on the spectral interval of
    H (Tal-Ezer & Kosloff 1984), truncated at round-off, its coefficients
    kept by the operator for the last time grid (``Operator.series``).
    ``"krylov"`` is kept as its name so that existing manifests run.
    """

    method: str = "krylov"

    def __post_init__(self):
        if self.method not in ("exact-eigendecomposition", "krylov"):
            raise ValueError(f"unknown propagator method {self.method!r}")


def realize(p: PauliSum, majorana: bool = False):
    """Realize a Pauli sum as a Hermitian ``Operator`` on the 2^N spin
    states, held as dense factors across the middle of the chain
    (``_Factors``), or with ``majorana`` on the 2N + 2 wall Majoranas,
    a ``MajoranaOperator``."""
    if majorana:
        return MajoranaOperator(majorana_form(p))
    return Operator(_Factors(p))


def _pauli_string(n: int, factors: dict) -> tuple:
    """``(flip, values)`` of a Pauli string on ``n`` spins.

    It sends basis index ``j`` to ``j ^ flip``, where ``flip`` holds the
    bits of its X and Y sites, with amplitude ``values[j] =
    (-1)^popcount(j & zy)`` times ``1j`` per Y, where ``zy`` holds the
    bits of its Z and Y sites.  ``values`` is real unless the string
    has an odd number of Y factors.
    """
    idx = np.arange(2**n)
    flip = n_y = 0
    parity = np.zeros(2**n, dtype=np.int64)
    for site, label in factors.items():
        shift = n - site
        if label != "Z":
            flip |= 1 << shift
        if label != "X":
            parity ^= idx >> shift & 1
        n_y += label == "Y"
    # float sign: 1 - 2 * parity never wraps around
    return flip, (1, 1j, -1, -1j)[n_y % 4] * (1.0 - 2.0 * parity)


def _string_matrix(n: int, factors: dict) -> np.ndarray:
    """Dense ``2^n x 2^n`` matrix of a Pauli string on ``n`` spins."""
    flip, values = _pauli_string(n, factors)
    idx = np.arange(2**n)
    m = np.zeros((2**n, 2**n), dtype=values.dtype)
    m[idx ^ flip, idx] = values
    return m


def majorana_form(p: PauliSum) -> np.ndarray:
    """The real antisymmetric ``A`` of a Pauli sum on the 2N + 2 wall
    Majoranas, ``p = (i/4) sum_jk A_jk gamma_j gamma_k``, as a dense
    array.

    Interface q (q = 0..N, interface q between spin q and spin q + 1,
    with a down spin 0 and N + 1) carries ``gamma_2q`` and
    ``gamma_2q+1``; see :mod:`dwtransfer.fermions`.  Each term maps on
    its own: ``Z_n Z_n+1 = -i gamma_2n gamma_2n+1``, ``Z_1`` and ``Z_N``
    the same on interfaces 0 and N, ``X_n = -i gamma_2n-1 gamma_2n``,
    and the wall hop ``Z_n-1 X_n Z_n+1 = -i gamma_2n-2 gamma_2n+1`` of
    ``hamiltonians.wall_conserving``, a Z beyond either end dropped (the
    down spin there).  Any other term raises ``ValueError`` naming it.
    No 2^N object is formed.
    """
    n = p.n_spins
    a = np.zeros((2 * n + 2, 2 * n + 2))
    for coeff, factors in p.terms:
        sites = sorted(factors)
        labels = "".join(factors[s] for s in sites)
        if labels == "X":
            j, k = 2 * sites[0] - 1, 2 * sites[0]
        elif labels == "ZZ" and sites[1] == sites[0] + 1:
            j, k = 2 * sites[0], 2 * sites[0] + 1
        elif labels == "Z" and sites[0] in (1, n):
            j, k = (0, 1) if sites[0] == 1 else (2 * n, 2 * n + 1)
        elif (labels in ("ZXZ", "XZ", "ZX")
              and sites[-1] - sites[0] == len(sites) - 1
              and (labels[0] == "Z" or sites[0] == 1)
              and (labels[-1] == "Z" or sites[-1] == n)):
            j = 2 * sites[labels.index("X")] - 2
            k = j + 3
        else:
            raise ValueError(
                f"term {coeff:g} * {factors} is not quadratic in the wall "
                "Majoranas: only X_n, Z_n Z_n+1, Z_1, Z_N and wall hops are")
        # (i/4)(A_jk g_j g_k + A_kj g_k g_j) = (i/2) A_jk g_j g_k
        a[j, k] -= 2 * coeff
        a[k, j] += 2 * coeff
    return a


class MajoranaOperator:
    """A Pauli sum quadratic in the wall Majoranas, realized by
    ``realize(p, majorana=True)``: ``a`` is its ``majorana_form`` A,
    and ``q``, ``eps`` its normal modes, from one SVD.

    Every entry of A couples an even Majorana to an odd one, so in
    even/odd order ``A = [[0, B], [-B^T, 0]]`` with ``B = A[0::2,
    1::2]``; an even-even or odd-odd entry raises ``ValueError``.  With
    ``B = U diag(s) V^T``, column 2k of ``q`` is ``U[:, k]`` on the even
    Majoranas and column 2k + 1 is ``V[:, k]`` on the odd ones.  So the
    columns of ``q`` are orthonormal and real, and pair k spans a plane A
    maps into itself, on which A is ``eps_k [[0, 1], [-1, 0]]`` with
    ``eps_k = s_k``; values within round-off of 0 are exactly 0.  With
    ``eta = q^T gamma`` a traceless ``H`` propagates exactly as
    ``exp(-i H t) = prod_k (cos(eps_k t/2) + sin(eps_k t/2) eta_2k
    eta_2k+1)``, and ``evolve`` takes a Majorana covariance ``M`` to
    ``R(t) M R(t)^T`` with ``R(t) = exp(A t)``.
    """

    def __init__(self, a: np.ndarray):
        self.a = a = np.asarray(a, dtype=float)
        if a[0::2, 0::2].any() or a[1::2, 1::2].any():
            raise ValueError("the Majorana form couples two even or two odd "
                             "Majoranas")
        u, s, vt = np.linalg.svd(a[0::2, 1::2])
        self.q = np.zeros(a.shape)
        self.q[0::2, 0::2] = u
        self.q[1::2, 1::2] = vt.T
        s[s <= a.shape[0] * np.finfo(float).eps * s[0]] = 0.0
        self.eps = s
        self._csr = None

    @property
    def dimension(self) -> int:
        return self.a.shape[0]

    @property
    def matrix(self):
        """A as a canonical ``csr_matrix``, built on first access and
        cached; nothing in this package reads it."""
        if self._csr is None:
            import scipy.sparse as sp

            self._csr = sp.csr_matrix(self.a)
        return self._csr

    def covariances(self, m: np.ndarray, times: np.ndarray) -> np.ndarray:
        """``R(t) m R(t)^T`` at each of ``times``, shape ``(len(times),
        size, size)``, each from ``m`` itself."""
        mt = self.q.T @ m @ self.q
        angle = np.multiply.outer(times, self.eps)[:, None, :]
        c, s = np.cos(angle), np.sin(angle)
        even, odd = self.q[:, 0::2], self.q[:, 1::2]
        w = np.empty((times.size,) + m.shape)  # q times the rotations
        w[:, :, 0::2] = c * even - s * odd
        w[:, :, 1::2] = s * even + c * odd
        return w @ mt @ w.transpose(0, 2, 1)


def evolve(
    state: np.ndarray,
    h: Operator | MajoranaOperator,
    t: float | np.ndarray,
    cfg: PropagatorConfig = PropagatorConfig(),
) -> np.ndarray:
    """Apply ``exp(-i H t)`` to a state.

    Under an ``Operator`` the state is a vector of ``h.dimension``
    amplitudes of unit norm, propagated under ``h`` as given, on the
    whole space; the dense path diagonalizes only the components of H
    the state occupies (``Operator.components``).  ``t`` is one time,
    which returns one read-only vector, or a 1-D non-decreasing array
    of times, which returns a read-only ``(len(t), h.dimension)`` array
    whose row ``j`` is the state at ``t[j]``, all from one call.  Every
    returned state is renormalized; its norm drift before
    renormalization must stay within ``NORM_DRIFT_TOL``.

    Under a ``MajoranaOperator`` the state is the Majorana covariance of
    a Gaussian state (:mod:`dwtransfer.fermions`), propagated exactly
    whatever ``cfg``: one time returns one covariance, an array of times
    a ``(len(t), 2N + 2, 2N + 2)`` stack.
    """
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
    if isinstance(h, MajoranaOperator):
        if np.shape(state) != (h.dimension,) * 2:
            raise DimensionMismatch(
                f"operator dimension {h.dimension} != covariance shape "
                f"{np.shape(state)}")
        out = h.covariances(state, grid)
        return out[0] if times.ndim == 0 else out
    amp = np.asarray(state, dtype=complex)
    if amp.shape != (h.dimension,):
        raise DimensionMismatch(
            f"operator dimension {h.dimension} != state shape {amp.shape}")
    drift = abs(float(np.linalg.norm(amp)) - 1.0)
    if drift > NORM_DRIFT_TOL:
        raise ValueError(f"state not normalized: |psi| - 1 = {drift:.3e}")
    rows = _propagate(amp, h, grid, cfg)
    return rows if times.ndim else rows[0]


def _propagate(amp, h, times, cfg):
    """Read-only rows of ``h.dimension`` amplitudes: ``amp`` at each of
    ``times``, propagated under ``h`` itself and renormalized."""
    # zero times lead the grid and keep the state exactly
    zeros = int(np.count_nonzero(times == 0.0))
    if zeros == times.size:
        out = np.tile(amp, (times.size, 1))
        out.flags.writeable = False
        return out
    if cfg.method == "exact-eigendecomposition":
        rows = _evolve_exact(amp, h, times[zeros:])
    else:
        rows = _evolve_chebyshev(amp, h, times[zeros:])
    norms = np.linalg.norm(rows, axis=1)
    drift = np.abs(norms - 1.0).max()
    if drift > NORM_DRIFT_TOL:
        raise KrylovBreakdown("propagated state lost normalization", drift)
    rows /= norms[:, None]
    if zeros:
        rows = np.concatenate((np.tile(amp, (zeros, 1)), rows))
    rows.flags.writeable = False
    return rows


def _evolve_chebyshev(amp: np.ndarray, h: Operator,
                      times: np.ndarray) -> np.ndarray:
    """Rows ``exp(-i H t_j) amp`` from one Chebyshev recurrence.

    With ``H = a Ht + c``, ``c -+ a`` the ends of its spectral interval,
    ``exp(-i H t) = exp(-i c t) sum_k (2 - d_k0) J_k(a t) U_k`` with
    ``U_k = (-i)^k T_k(Ht)``; ``Operator.series`` gives the coefficients,
    the phases, c and 2/a.  Each term ``U_k amp = -2i Ht U_{k-1} amp +
    U_{k-2} amp`` costs one product with ``2 Ht``, H's own form shifted
    by c and scaled by 2/a (0 if a = 0), and one addition.
    The terms are kept in the planar layout of H's form (``_planar``),
    where a real H acts in real arithmetic and ``-i`` swaps the real and
    imaginary parts, in a ring of ``CHEBYSHEV_BATCH`` terms.  The powers
    of ``-i`` leave the series coefficients real, so each batch is added
    into every output by one real product.  The planar sums become
    complex rows once, at the end, and the phase ``exp(-i c t_j)`` is
    applied to each; the peak stays at two output blocks, the sums and
    the temporary of one batch product, or the sums and the rows.
    """
    coef, phase, centre, scale = h.series(times)
    n_terms = coef.shape[1]
    size = min(n_terms, CHEBYSHEV_BATCH)
    first = _planar(amp, h._h.shape)
    ring = np.empty((size,) + first.shape)
    ring[0] = first
    out = np.zeros((times.size,) + first.shape)
    flat, ring_flat = out.reshape(times.size, -1), ring.reshape(size, -1)
    for k in range(n_terms):
        row = k % size
        if k:
            y, u = h._h.product(ring[(k - 1) % size], centre), ring[row]
            y *= scale
            if k == 1:  # U_1 = -i Ht U_0
                np.multiply(y[1], 0.5, out=u[0])
                np.multiply(y[0], -0.5, out=u[1])
            else:  # -i (y_re + i y_im) = y_im - i y_re
                before = ring[(k - 2) % size]
                np.add(before[0], y[1], out=u[0])
                np.subtract(before[1], y[0], out=u[1])
        if row == size - 1 or k == n_terms - 1:
            flat += coef[:, k - row:k + 1] @ ring_flat[:row + 1]
    rows = _complex(out)
    rows *= phase[:, None]
    return rows


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
    """Rows ``exp(-i H t_j) amp`` from the parts of the eigensystem of
    each component of H that ``amp`` occupies (``Operator.components``);
    the other components stay zero.

    Each part takes the state onto its basis (``bincount`` of
    ``weight * x`` by ``label``), applies ``v diag(exp(-i w t_j)) v^H``
    there and adds the result back at ``label``, times ``weight``.  So a
    component split in two mirror halves costs two products of half its
    size each way, and no eigenvector matrix of the whole component is
    formed."""
    out = np.zeros((times.size, amp.size), dtype=complex)
    for indices, parts in h.components(amp):
        x, rows = amp[indices], None
        for label, weight, w, v in parts:
            xw = weight * x
            xh = np.empty(w.size, dtype=complex)
            xh.real = np.bincount(label, xw.real, w.size)
            xh.imag = np.bincount(label, xw.imag, w.size)
            if np.iscomplexobj(v):
                # v^H x without materializing the conjugate transpose of v
                c = np.conj(np.conj(xh) @ v)
                product = np.matmul
            else:
                c = _real_matmul(v.T, xh[:, None])[:, 0]
                product = _real_matmul
            phased = np.exp(-1j * np.multiply.outer(w, times)) * c[:, None]
            y = product(v, phased)[label]
            y *= weight[:, None]
            if rows is None:
                rows = y
            else:
                rows += y
        out[:, indices] = rows.T
    return out


def _real_matmul(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``v @ x`` for a real ``v`` and a C-contiguous complex ``x``, as one
    real product on the interleaved real and imaginary parts of ``x``
    (``v @ x`` itself would copy ``v`` to complex).

    The dense path keeps this layout rather than the planar one of the
    Chebyshev series (``_planar``): its vectors are complex arrays that
    it multiplies from the left only, which the interleaved view does in
    place, where a planar copy would cost one more pass each way."""
    return (v @ x.view(float)).view(complex)
