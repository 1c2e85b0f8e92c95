"""Free-fermion propagation of the Ising stages: a Majorana covariance of
size 2N + 2 in place of 2^N amplitudes.

Walls sit on the N + 1 interfaces q = 0..N: interface q lies between
spin q and spin q + 1, with a down spin 0 and a down spin N + 1 at the
ends.  Interface q is fermion mode q, occupied when it carries a wall,
with the Majoranas ``gamma_2q = c_q + c_q^+`` and ``gamma_2q+1 =
-i (c_q - c_q^+)`` in Jordan-Wigner order from q = 0; a Fock state
creates its walls in increasing order of q.  Then ``Z_q Z_q+1 =
-i gamma_2q gamma_2q+1`` and ``X_n = -i gamma_2n-1 gamma_2n``, which
moves walls with amplitude +1: a spin basis state is the Fock state of
its walls, sign included, and the 2^N spin states fill the even half of
the wall Fock space.  Both Ising stages are quadratic in the Majoranas
(``core.majorana_form``); ``core.realize(p, majorana=True)`` gives
their normal modes and ``core.evolve`` propagates a covariance.

A Gaussian state is carried by its covariance ``M_jk = (i/2)<[gamma_j,
gamma_k]>``: real, antisymmetric and, for a pure state, orthogonal.
Under ``H = (i/4) sum_jk A_jk gamma_j gamma_k`` it evolves as
``M(t) = R M R^T`` with ``R = exp(A t)``, and Wick's theorem reads
expectations from it: an ordered product of 2r distinct Majoranas has
``<gamma_S> = (-i)^r Pf(M_S)``.  The Fock basis of a few modes, used
for the payload and Bob's register, has mode 0 as its leading bit.

A spin's ``<Z_n>`` is the parity of the walls on one side of it, the
Pfaffian of a leading or a trailing block of M.  ``sigma_z`` reads all
of them from one unpivoted elimination of a stack of covariances, from
both chain ends, and redoes with pivoting each row whose elimination
grows past ``GROWTH_MAX``.
"""

from __future__ import annotations

import functools
from itertools import combinations

import numpy as np

from .core import basis_index, index_bits

GAUSSIAN_TOL = 1e-12  # largest ||M M^T - 1|| of a Gaussian pure state
BLOCK_BYTES = 2**18  # bytes of one stack of matrices worked on at once
# probability of an empty rest of the chain below which the full-chain
# fidelities, which it bounds, read 0
EMPTY_FLOOR = 1e-14
# largest growth max|u| max|b_0| of sigma_z's unpivoted elimination that
# a row may reach; past it the row is redone with pivoting.  Covariance
# entries are at most 1 and a step's update at most 2 GROWTH_MAX, so
# each step adds a rounding error of at most a few thousand eps
GROWTH_MAX = 1e3


def pfaffian(a: np.ndarray) -> np.ndarray:
    """Pfaffians of a stack of antisymmetric matrices, shape ``(..., n,
    n)``, real or complex.

    Pivoted Parlett-Reid elimination (Wimmer, ACM TOMS 38, 30 (2012)),
    vectorized over the stack: each step swaps the largest entry of the
    leading column into the pivot, multiplies the pivot into the
    Pfaffian and takes a rank-2 skew update of the trailing block, one
    outer product and its transpose.
    """
    a = np.array(a)  # the working copy
    n = a.shape[-1]
    lead = a.shape[:-2]
    if n % 2:
        return np.zeros(lead, dtype=a.dtype)
    a = a.reshape((-1, n, n))
    out = np.ones(a.shape[0], dtype=a.dtype)
    stack = np.arange(a.shape[0])
    for _ in range(n // 2):
        piv = 1 + np.argmax(np.abs(a[:, 1:, 0]), axis=1)
        for view in (a, a.transpose(0, 2, 1)):  # rows, then columns
            row = view[stack, piv]
            view[stack, piv] = view[:, 1]
            view[:, 1] = row
        out[piv != 1] *= -1
        pivot = a[:, 0, 1].copy()
        out *= pivot
        if n > 2:
            tau = np.zeros_like(a[:, 0, 2:])
            np.divide(a[:, 0, 2:], pivot[:, None], out=tau,
                      where=pivot[:, None] != 0)
            update = tau[:, :, None] * a[:, None, 2:, 1]
            a[:, 2:, 2:] += update
            a[:, 2:, 2:] -= update.transpose(0, 2, 1)
        a = a[:, 2:, 2:]
        n -= 2
    return out.reshape(lead)


def walls(bits) -> tuple:
    """Occupations of the interfaces 0..N of the spins ``bits`` (spin 1
    first), between the down spins 0 and N + 1."""
    s = (0, *bits, 0)
    return tuple(s[q] ^ s[q + 1] for q in range(len(s) - 1))


def fock_covariance(occupied) -> np.ndarray:
    """Covariance of the Fock state with the given occupations:
    ``M_2q,2q+1 = 2 n_q - 1``, so -1 on every empty mode."""
    n = np.asarray(occupied, dtype=float)
    m = np.zeros((2 * n.size, 2 * n.size))
    q = np.arange(n.size)
    m[2 * q, 2 * q + 1] = 2 * n - 1
    m[2 * q + 1, 2 * q] = 1 - 2 * n
    return m


@functools.lru_cache(maxsize=8)
def majoranas(n_modes: int) -> tuple:
    """The Majoranas of ``n_modes`` modes as dense matrices, mode 0 the
    leading factor: ``gamma_2q = Z..Z X 1..1`` and ``gamma_2q+1 = Z..Z Y
    1..1`` with q factors Z, the Jordan-Wigner string.  Built once per
    mode count, as read-only arrays."""
    z, x = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    y = np.array([[0.0, -1j], [1j, 0.0]])
    out = []
    for q in range(n_modes):
        for local in (x, y):
            op = np.ones((1, 1))
            for factor in [z] * q + [local] + [np.eye(2)] * (n_modes - 1 - q):
                op = np.kron(op, factor)
            op.flags.writeable = False
            out.append(op)
    return tuple(out)


def covariance(amp: np.ndarray) -> np.ndarray:
    """Covariance of a normalized Fock vector of a few modes."""
    n_modes = amp.size.bit_length() - 1
    g = np.array([gamma @ amp for gamma in majoranas(n_modes)])
    m = (1j * (g.conj() @ g.T)).real  # i <gamma_j gamma_k>
    np.fill_diagonal(m, 0.0)
    return m


def is_gaussian(m: np.ndarray) -> bool:
    """Whether the covariance ``m`` is that of a Gaussian pure state."""
    return bool(np.linalg.norm(m @ m.T - np.eye(m.shape[0]))
                <= GAUSSIAN_TOL)


def sigma_z(ms: np.ndarray) -> np.ndarray:
    """``<Z_n>``, n = 1..N, of each covariance of a stack ``(rows, 2N +
    2, 2N + 2)``; shape ``(N, rows)``.

    ``Z_n = w_0 ... w_n-1`` with ``w_q = -i gamma_2q gamma_2q+1``, and
    also ``w_n ... w_N``, as the wall number is even: ``(-1)^m Pf`` of
    the leading ``2m = 2n`` or the trailing ``2m = 2(N + 1 - n)``
    block.  Spins n <= (N + 1)/2 take the leading block, the others the
    trailing one, which is the leading block of the covariance with its
    Majorana pairs in reverse order, an even permutation.

    Both orders, cut to their leading ``2 head`` rows and columns, head
    = floor((N + 1)/2), go through one unpivoted Parlett-Reid
    elimination as one stack.  Step j takes the pivot ``M_2j,2j+1`` and
    the Schur complement of its 2 x 2 block, ``M' = M + u b_0^T - b_0
    u^T`` on the rows and columns after it, with ``b_0`` row 2j and
    ``u`` row 2j + 1 over the pivot; the leading Pfaffian of size 2(j +
    1) is the product of the pivots so far.  A row's growth is the
    largest ``max|u| max|b_0|`` over its steps in both orders.  A
    small pivot, where some ``<Z_m>`` is near 0, makes it large; a row
    whose growth exceeds ``GROWTH_MAX``, or is not finite, is redone by
    ``_sigma_z_pivoted``.
    """
    modes, rows = ms.shape[-1] // 2, ms.shape[0]
    head = modes // 2  # spins 1..head read the leading order
    tail = modes - 1 - head  # and spins N..head + 1 the reversed one
    back = (2 * np.arange(modes - 1, modes - 1 - head, -1)[:, None]
            + (0, 1)).ravel()
    a = np.concatenate([ms[:, :2 * head, :2 * head],
                        ms[:, back[:, None], back]])
    pivots = np.empty((2 * rows, head))
    growth = np.zeros(2 * rows)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(head - 1):
            pivots[:, j] = a[:, 0, 1]
            b0 = a[:, 0, 2:]
            u = a[:, 1, 2:] / a[:, 0, 1, None]
            step = np.abs(u).max(axis=1) * np.abs(b0).max(axis=1)
            # np.maximum keeps a NaN, which fails the bound below
            growth = np.maximum(growth, step)
            a = a[:, 2:, 2:]
            # an outer product and its transpose: a stacked matmul would
            # wake a second BLAS thread, which slows the rest of the run
            update = u[:, :, None] * b0[:, None, :]
            a += update
            a -= update.transpose(0, 2, 1)
        pivots[:, -1] = a[:, 0, 1]
        z = np.cumprod(-pivots, axis=1)  # (-1)^m Pf of the leading 2m
    out = np.empty((modes - 1, rows))
    out[:head] = z[:rows].T
    out[head:] = z[rows:, :tail].T[::-1]
    redo = ~(np.maximum(growth[:rows], growth[rows:]) <= GROWTH_MAX)
    if redo.any():
        out[:, redo] = _sigma_z_pivoted(ms[redo])
    return out


def _sigma_z_pivoted(ms: np.ndarray) -> np.ndarray:
    """``sigma_z`` from one pivoted ``pfaffian`` stack per block size:
    the leading and the trailing block of size 2m, for m = 1..(N +
    1)/2, each read as the smaller of the two for its spin."""
    modes, rows = ms.shape[-1] // 2, ms.shape[0]
    out = np.empty((modes - 1, rows))
    for m in range(1, modes // 2 + 1):
        sites = [m] if 2 * m == modes else [m, modes - m]
        blocks = [ms[:, :2 * m, :2 * m]]
        if len(sites) == 2:
            blocks.append(ms[:, 2 * (modes - m):, 2 * (modes - m):])
        pf = pfaffian(np.concatenate(blocks)).reshape(len(sites), rows)
        for n, values in zip(sites, pf):
            out[n - 1] = (-1) ** m * values
    return out


def rest_empty(ms: np.ndarray, n_rest: int):
    """``(p, kept, cond)`` for the modes ``0..n_rest-1`` of each
    covariance of a stack.

    ``p`` is the probability that those modes are empty, ``(-1)^n
    Pf((M_R + F_R) / 2)`` with ``M_R`` their block, ``F_R`` the vacuum
    and n their number (the minor expansion of the Pfaffian is Wick's
    theorem on the product of the projectors ``1 - n_q``).  As ``p >=
    0`` and ``det = Pf^2``, it is taken as ``sqrt(det((M_R + F_R) /
    2))``, one LU factorization per row.  That stays accurate near
    ``EMPTY_FLOOR``: a small ``p`` comes from a pair of eigenvalues
    ``+-i mu`` near 0, and the backward error of the LU, which need not
    be antisymmetric, moves each of the two by about eps on its own, so
    their product moves by about ``eps (mu + eps)`` and ``sqrt(det)``
    by about eps, as the Pfaffian does.  A determinant below 0 by
    round-off gives ``p = 0``.  For the rows ``kept``, where ``p``
    exceeds ``EMPTY_FLOOR``, ``cond`` is the covariance of the other
    modes given that, the Schur complement ``M_BB - M_BR (M_R +
    F_R)^-1 M_RB``.
    """
    r = 2 * n_rest
    x = ms[:, :r, :r] + fock_covariance((0,) * n_rest)
    p = np.sqrt(np.maximum(np.linalg.det(x / 2), 0.0))
    kept = p > EMPTY_FLOOR
    y = np.linalg.solve(x[kept], ms[kept, :r, r:])
    cond = ms[kept, r:, r:] - ms[kept, r:, :r] @ y
    return p, kept, cond


class Window:
    """Wick's theorem on Bob's register of k spins.

    Bob's spins N - k + 1..N, with spin N - k down, hold the interfaces
    N - k..N; their operators are the 4^k even monomials ``gamma_S`` of
    the 2k + 1 Majoranas ``gamma_2(N-k)+1..gamma_2N+1``.  So a target
    ``t`` on Bob's spins, indexed by their basis index, has
    ``<(|t><t|)> = sum_S Pf(M_S) <t|G_S|t>`` with ``G_S = i^r gamma_S /
    2^k`` on Bob's spins, ``|S| = 2r``: the monomials are orthogonal,
    with norm 2^k.
    """

    def __init__(self, k: int):
        gamma = majoranas(k + 1)[1:]
        fock = [basis_index(walls(index_bits(j, k))) for j in range(2**k)]
        self.subsets = [s for r in range(k + 1)
                        for s in combinations(range(2 * k + 1), 2 * r)]
        g = np.empty((len(self.subsets), 2**k, 2**k), dtype=complex)
        for i, s in enumerate(self.subsets):
            op = np.eye(2 ** (k + 1), dtype=complex)
            for j in s:
                op = op @ gamma[j]
            g[i] = 1j ** (len(s) // 2) * op[np.ix_(fock, fock)] / 2**k
        # <t|G_S|t> = Re sum_ij conj(t_i) t_j G_S,ij: one real product on
        # the real and imaginary parts of conj(t_i) t_j
        flat = g.reshape(len(self.subsets), -1)
        self.g = np.concatenate([flat.real, -flat.imag], axis=1).T

    def pfaffians(self, m: np.ndarray) -> np.ndarray:
        """``Pf(M_S)`` of every subset, shape ``(rows, subsets)``, from a
        stack of Bob-window covariances ``(rows, 2k + 1, 2k + 1)``, by
        expansion along the first row of each subset."""
        pf = {(): np.ones(m.shape[0])}
        for s in self.subsets[1:]:
            total = 0.0
            for i, j in enumerate(s[1:]):
                term = m[:, s[0], j] * pf[s[1:i + 1] + s[i + 2:]]
                total = total - term if i % 2 else total + term
            pf[s] = total
        return np.stack([pf[s] for s in self.subsets], axis=1)

    def overlaps(self, pf: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """``<t|rho|t>`` per row of ``pf``, for one target ``(2^k,)`` or
        one per row ``(rows, 2^k)``."""
        t = np.atleast_2d(targets)
        pairs = (t.conj()[:, :, None] * t[:, None, :]).reshape(
            len(t), t.shape[1] ** 2)
        quad = np.concatenate([pairs.real, pairs.imag], axis=1) @ self.g
        return (pf * quad).sum(axis=1)


def amplitudes(stages, tau: float, final, initial) -> np.ndarray:
    """``<f|U_last ... U_first|b>`` for the Fock states f of ``final``
    (rows) and b of ``initial`` (columns), given as occupations of all
    modes, each ``core.MajoranaOperator`` of ``stages`` run for ``tau``.

    Each ``U = prod_k (cos theta_k + sin theta_k eta_2k eta_2k+1)``,
    ``theta_k = eps_k tau / 2``.  Write ``|b> = sigma gamma_S |f>``, S
    the ordered modes where f and b differ, each ``gamma_2q`` with the
    sign of f's occupied modes before q.  Then ``<f|U ... gamma_S|f> =
    Pf(L K L + C)`` by Wick's theorem on ``|f>``: K holds the
    contractions ``<f|mu_a mu_b|f>`` (a < b) over the list ``[eta of
    the last stage, ..., eta of the first, gamma_S]``, L puts
    ``sin theta`` on the first Majorana of each pair and C ``cos
    theta`` on each pair's 2 x 2 block; expanding the Pfaffian picks
    either term of every factor.  Every S is padded to the widest by
    pairs ``gamma_0 gamma_0 = 1``, so the Pfaffians have one size; they
    are stacked, at most ``BLOCK_BYTES`` at a time.
    """
    size = stages[0].q.shape[0]
    cols, theta = [], []
    for modes in reversed(stages):
        live = np.flatnonzero(modes.eps)
        cols.append(modes.q.reshape(size, -1, 2)[:, live].reshape(size, -1))
        theta.append(modes.eps[live] * tau / 2)
    base, theta = np.hstack(cols), np.concatenate(theta)
    items = [(i, j, f, np.flatnonzero(np.array(f) != np.array(b)))
             for i, f in enumerate(final) for j, b in enumerate(initial)]
    width = max(flips.size for *_, flips in items)
    dim = base.shape[1] + width
    lam = np.ones(dim)
    lam[0:2 * theta.size:2] = np.sin(theta)
    c = np.zeros((dim, dim))
    c[np.arange(0, 2 * theta.size, 2),
      np.arange(1, 2 * theta.size, 2)] = np.cos(theta)
    c -= c.T
    eye = np.eye(size)
    out = np.zeros((len(final), len(initial)), dtype=complex)
    chunk = max(BLOCK_BYTES // (16 * dim * dim), 1)
    for start in range(0, len(items), chunk):
        batch = items[start:start + chunk]
        mats = np.empty((len(batch), dim, dim), dtype=complex)
        signs = np.empty(len(batch))
        for row, (_, _, f, flips) in enumerate(batch):
            occupied = np.cumsum((0,) + tuple(f))  # before each mode
            signs[row] = (-1.0) ** int(occupied[flips].sum())
            padded = np.zeros(width, dtype=np.int64)
            padded[:flips.size] = 2 * flips
            ops = np.hstack([base, eye[:, padded]])
            # <f|gamma_j gamma_k|f> = delta_jk - i M^f_jk
            k = np.triu(ops.T @ (eye - 1j * fock_covariance(f)) @ ops, 1)
            mats[row] = lam[:, None] * (k - k.T) * lam[None, :] + c
        for (i, j, *_), value in zip(batch, signs * pfaffian(mats)):
            out[i, j] = value
    return out
