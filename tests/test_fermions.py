"""The free-fermion path: the Majorana form of the Ising stages, the
Pfaffian, and whole transfers against the dense state-vector path."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from dwtransfer import fermions
from dwtransfer.cli import PHASE_RATIO_MAX, _check_footprint
from dwtransfer.core import (
    DimensionMismatch,
    MajoranaOperator,
    PropagatorConfig,
    basis_index,
    evolve,
    index_bits,
    majorana_form,
    realize,
)
from dwtransfer.encoding import LogicalState
from dwtransfer.hamiltonians import (
    heisenberg_xy,
    multiqubit_reset_hamiltonian,
    transport_hamiltonian,
)
from dwtransfer.protocol import (
    Transfer,
    free_fermion,
    run_multi_qubit_transfer,
)
from references import logical_basis
from sigma_z_rows import trace_covariances

EXACT = PropagatorConfig(method="exact-eigendecomposition")
S2 = 1 / math.sqrt(2)
S3 = 1 / math.sqrt(3)


def jordan_wigner(modes):
    """Reference Majoranas: ``c_q + c_q^+`` and ``-i (c_q - c_q^+)``, with
    ``c_q`` removing the wall of mode q (mode 0 the leading bit of the
    Fock index) with the sign of the occupied modes before it."""
    dim = 2**modes
    gamma = []
    for q in range(modes):
        bit = 1 << (modes - 1 - q)
        lower = np.zeros((dim, dim))
        for i in range(dim):
            if i & bit:
                lower[i ^ bit, i] = (-1) ** bin(i >> (modes - q)).count("1")
        gamma += [lower + lower.T, -1j * (lower - lower.T)]
    return gamma


def even_sector(a):
    """Reference: ``(i/4) sum A_jk gamma_j gamma_k`` on the Fock states
    of the walls of each spin basis state, in spin order."""
    modes = a.shape[0] // 2
    gamma = jordan_wigner(modes)
    h = sum(0.25j * a[j, k] * gamma[j] @ gamma[k]
            for j in range(2 * modes) for k in range(2 * modes) if a[j, k])
    fock = [basis_index(fermions.walls(index_bits(i, modes - 1)))
            for i in range(2 ** (modes - 1))]
    return h[np.ix_(fock, fock)]


class TestMajoranaForm:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_rebuilds_the_stages_on_the_even_sector(self, n):
        sums = [transport_hamiltonian(n, 22.0, 1.0)] + [
            multiqubit_reset_hamiltonian(n, 13.7, 0.6, k)
            for k in range(1, min(3, n // 2) + 1)]
        for p in sums:
            # relative to the largest entry, about J N: the reference
            # sums its terms in another order
            dense = realize(p).matrix.toarray()
            a = majorana_form(p)
            assert np.abs(even_sector(a) - dense).max() \
                <= 1e-14 * np.abs(dense).max()

    @pytest.mark.parametrize("modes", [1, 3, 5])
    def test_majorana_matrices(self, modes):
        for got, ref in zip(fermions.majoranas(modes),
                            jordan_wigner(modes), strict=True):
            assert np.array_equal(got, ref)

    def test_antisymmetric_and_real(self):
        a = majorana_form(transport_hamiltonian(6, 22.0, 1.0))
        assert a.shape == (14, 14) and a.dtype == float
        assert np.array_equal(a, -a.T)

    def test_raises_on_a_quartic_term(self):
        with pytest.raises(ValueError, match="not quadratic.*X"):
            majorana_form(heisenberg_xy(5, 1.0))


class TestMajoranaOperator:
    @pytest.mark.parametrize("p", [
        transport_hamiltonian(6, 22.0, 1.0),
        # Bob's spins without fields; both stages' A have a null space
        multiqubit_reset_hamiltonian(6, 22.0, 1.0, 2),
    ])
    def test_evolve_is_the_exponential_of_a(self, p):
        h = realize(p, majorana=True)
        a = majorana_form(p)
        assert np.array_equal(h.matrix.toarray(), a)
        m0 = fermions.fock_covariance((1, 0, 1, 0, 0, 0, 0))
        times = np.array([0.0, 0.3, 0.7])
        stack = evolve(m0, h, times)
        for t, m in zip(times, stack, strict=True):
            r = scipy.linalg.expm(a * t)
            assert np.abs(m - r @ m0 @ r.T).max() <= 1e-12
        assert np.abs(evolve(m0, h, 0.7) - stack[2]).max() <= 1e-14
        with pytest.raises(DimensionMismatch):
            evolve(np.eye(12), h, 0.1)

    @pytest.mark.parametrize("p", [
        transport_hamiltonian(9, 22.0, 1.0),
        multiqubit_reset_hamiltonian(9, 22.0, 1.0, 3),
    ])
    def test_normal_modes(self, p):
        # q is orthogonal and puts A in its canonical form: eps_k on
        # each pair's 2 x 2 block, nothing elsewhere
        h = realize(p, majorana=True)
        a = h.matrix.toarray()
        assert np.abs(h.q.T @ h.q - np.eye(20)).max() <= 1e-14
        canonical = np.zeros((20, 20))
        canonical[0::2, 1::2] = np.diag(h.eps)
        canonical -= canonical.T
        assert np.abs(h.q.T @ a @ h.q - canonical).max() <= 1e-12
        assert (h.eps >= 0).all()

    @pytest.mark.parametrize("j, k", [(0, 2), (1, 3)])
    def test_raises_on_an_even_even_or_odd_odd_entry(self, j, k):
        a = np.zeros((6, 6))
        a[j, k], a[k, j] = 1.0, -1.0
        with pytest.raises(ValueError, match="two even or two odd"):
            MajoranaOperator(a)


def pfaffian_by_cofactors(a):
    """Reference: expansion along the first row."""
    if a.shape[0] == 0:
        return 1.0
    return sum((-1) ** (j - 1) * a[0, j] * pfaffian_by_cofactors(
        np.delete(np.delete(a, [0, j], 0), [0, j], 1))
        for j in range(1, a.shape[0]))


class TestPfaffian:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_cofactor_expansion(self, n, dtype):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(6, n, n)).astype(dtype)
        if dtype is complex:
            a += 1j * rng.normal(size=(6, n, n))
        a -= a.transpose(0, 2, 1)
        got = fermions.pfaffian(a)
        for i in range(6):
            ref = pfaffian_by_cofactors(a[i])
            assert abs(got[i] - ref) <= 1e-13 * max(1.0, abs(ref))
        assert np.array_equal(fermions.pfaffian(a[:2]), got[:2])

    def test_zero_pivot_and_odd_size(self):
        # a zero leading column, and a matrix needing a pivot swap
        a = np.zeros((2, 4, 4))
        a[1, 0, 2], a[1, 1, 3] = 2.0, 3.0
        a[1] -= a[1].T
        assert np.array_equal(fermions.pfaffian(a), [0.0, -6.0])
        assert fermions.pfaffian(np.zeros((3, 3))) == 0.0


def payload(k, amplitudes):
    return LogicalState(k, np.asarray(amplitudes, dtype=complex))


def zero_pivot_covariance(n_spins, seed):
    """A pure-state covariance with ``M_01 = 0`` exactly, so <Z_1> = 0:
    a random rotation of the Majoranas after the first two, then
    ``gamma_1`` and ``gamma_2`` exchanged."""
    size = 2 * n_spins + 2
    a = np.random.default_rng(seed).normal(size=(size - 2, size - 2))
    r = np.eye(size)
    r[2:, 2:] = scipy.linalg.expm(a - a.T)
    r[[1, 2]] = r[[2, 1]]
    m = r @ fermions.fock_covariance((0, 1) * (n_spins // 2)
                                     + (0,) * (n_spins % 2 + 1)) @ r.T
    assert m[0, 1] == 0.0
    return m


def pivoted_rows(monkeypatch):
    """The number of rows of each call of the pivoted fallback."""
    seen = []
    pivoted = fermions._sigma_z_pivoted

    def recording(ms):
        seen.append(len(ms))
        return pivoted(ms)

    monkeypatch.setattr(fermions, "_sigma_z_pivoted", recording)
    return seen


BELL = payload(2, [S2, 0, 0, S2])


class TestSigmaZ:
    @pytest.mark.parametrize("state", [
        logical_basis([1]), payload(1, [S2, S2]), BELL],
        ids=["one", "alpha=beta", "bell"])
    @pytest.mark.parametrize("n_spins, n_samp", [(13, 200), (101, 2)])
    def test_matches_the_pivoted_path(self, state, n_spins, n_samp):
        # the pivoted path on float64 and on long double copies; the
        # growth bound keeps the elimination within 1e-12 of both
        ms = trace_covariances(n_spins, state, n_samp)
        got = fermions.sigma_z(ms)
        assert got.shape == (n_spins, 2 * n_samp + 1)
        for ref in (fermions._sigma_z_pivoted(ms),
                    fermions._sigma_z_pivoted(ms.astype(np.longdouble))):
            assert np.abs(got - ref).max() <= 1e-12

    @pytest.mark.parametrize("n_spins", [3, 8, 13])
    @pytest.mark.parametrize("pivot", [0.0, 1e-310])
    def test_zero_leading_pivot(self, n_spins, pivot, monkeypatch):
        # a zero pivot divides by zero, a subnormal one overflows
        seen = pivoted_rows(monkeypatch)
        m = zero_pivot_covariance(n_spins, n_spins)
        m[0, 1], m[1, 0] = pivot, -pivot
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fermions.sigma_z(m[None])
        assert seen == [1]
        assert np.isfinite(got).all() and got[0, 0] == -pivot
        assert np.array_equal(got, fermions._sigma_z_pivoted(m[None]))

    def test_mixed_stack_reads_each_row_as_alone(self, monkeypatch):
        ms = np.concatenate([trace_covariances(13, payload(1, [S2, S2]), 20),
                             zero_pivot_covariance(13, 1)[None]])
        seen = pivoted_rows(monkeypatch)
        got = fermions.sigma_z(ms)
        assert 0 < seen[0] < len(ms)  # good rows and redone rows
        for i in range(len(ms)):
            alone = fermions.sigma_z(ms[i:i + 1])
            assert np.array_equal(got[:, i:i + 1], alone)


class TestWindow:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_overlaps_match_the_dense_monomials(self, k):
        # the gather of each G_S's one entry per column against <t|G_S|t>
        # from G_S as a dense matrix; the tolerance was set from the
        # dtype before measuring
        window = fermions.Window(k)
        gamma = fermions.majoranas(k + 1)[1:]
        fock = [basis_index(fermions.walls(index_bits(j, k)))
                for j in range(2**k)]
        rng = np.random.default_rng(k)
        pf = rng.normal(size=(5, len(window.subsets)))
        t = rng.normal(size=(5, 2**k)) + 1j * rng.normal(size=(5, 2**k))
        want = np.zeros(5)
        for i, subset in enumerate(window.subsets):
            op = np.eye(2 ** (k + 1), dtype=complex)
            for j in subset:
                op = op @ gamma[j]
            g = 1j ** (len(subset) // 2) * op[np.ix_(fock, fock)] / 2**k
            want += pf[:, i] * np.einsum("ri,ij,rj->r", t.conj(), g, t).real
        tol = 1e-13 * np.abs(want).max()
        assert np.abs(window.overlaps(pf, t) - want).max() <= tol
        one = window.overlaps(pf, t[0])  # one target for every row
        assert np.abs(one - window.overlaps(pf, np.tile(t[0], (5, 1)))
                      ).max() <= tol


class TestPathChoice:
    @pytest.mark.parametrize("state", [
        payload(1, [0.6, 0.8j]),
        payload(2, [S2, 0, 0, S2]),
        payload(2, [0.5, 0.5, 0.5, -0.5]),
        payload(3, [0, S3, S3, 0, S3, 0, 0, 0]),
        payload(3, [0.5, 0, 0, 0.5, 0, 0.5, -0.5, 0]),
        logical_basis([1, 0, 1, 1]),
    ])
    def test_gaussian_payloads_run_on_free_fermions(self, state):
        assert free_fermion(Transfer(9, 1.0, 22.0, state))
        assert not free_fermion(Transfer(9, 1.0, 22.0, state,
                                         propagator=EXACT))

    def test_ghz_and_random_payloads_stay_on_the_state_vector(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        for state in (payload(3, [S2, 0, 0, 0, 0, 0, 0, S2]),
                      payload(3, amps / np.linalg.norm(amps)),
                      logical_basis([1, 0, 1, 1, 0])):
            assert not free_fermion(Transfer(10, 1.0, 22.0, state))


def assert_same_outputs(run, tol=1e-10):
    """Every output of ``run``, on free fermions, within ``tol`` of the
    same run on the dense state vector."""
    assert free_fermion(run)
    fast = run_multi_qubit_transfer(run)
    dense = run_multi_qubit_transfer(Transfer(
        run.n_spins, run.lam, run.j_coupling, run.state,
        run.apply_phase_correction, run.n_time_samples, EXACT))
    assert np.array_equal(fast.times, dense.times)
    for name in ("fidelity_corrected", "fidelity_uncorrected",
                 "sigma_z_trace"):
        assert np.abs(getattr(fast, name) - getattr(dense, name)).max() \
            <= tol, name
    for name in ("final_fidelity", "peak_fidelity", "peak_time"):
        assert abs(getattr(fast, name) - getattr(dense, name)) <= tol, \
            name
    # the decoded payload with its global phase
    assert np.abs(fast.final_logical.amplitudes
                  - dense.final_logical.amplitudes).max() <= tol


class TestAgainstTheStateVector:
    @pytest.mark.parametrize("k, n_spins, seed", [
        (1, 5, 0), (1, 8, 1), (1, 9, 2), (2, 5, 3), (2, 7, 4), (2, 9, 5),
    ])
    def test_random_payload(self, k, n_spins, seed):
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=2**k) + 1j * rng.normal(size=2**k)
        assert_same_outputs(Transfer(
            n_spins, 0.8, 0.8 * 13.7, payload(k, amps / np.linalg.norm(amps)),
            apply_phase_correction=bool(seed % 2), n_time_samples=30))

    @pytest.mark.parametrize("state", [
        payload(3, [0, S3, S3, 0, S3, 0, 0, 0]),
        payload(4, [0] * 4 + [0.6] + [0] * 3 + [0.8j] + [0] * 7),
    ])
    def test_wide_payload(self, state):
        assert_same_outputs(Transfer(2 * state.n_logical + 1, 1.0, 17.3,
                                     state, n_time_samples=20))

    @pytest.mark.parametrize("bits", [[0], [0, 0]])
    def test_vacuum_payload(self, bits):
        # no branch puts a wall on any interface: the payload's window
        # is the 0 x 0 covariance of no mode
        assert fermions.covariance(np.ones(1)).shape == (0, 0)
        assert_same_outputs(Transfer(5, 1.0, 22.0, logical_basis(bits),
                                     n_time_samples=20))

    def test_negative_coupling(self):
        # the error law depends on |J|/lam; the sign of J enters the
        # sector energies and the phase correction, on both paths alike
        bell = payload(2, [S2, 0, 0, S2])
        assert_same_outputs(Transfer(7, 1.0, -22.0, bell,
                                     n_time_samples=50))
        with pytest.warns(UserWarning, match="quadratic"):
            Transfer(7, 1.0, -5.0, bell)

    @pytest.mark.parametrize("n_spins", [5, 8])
    def test_at_the_phase_ratio_bound(self, n_spins):
        # the largest |J| N/lam the guard accepts keeps both paths within
        # the benchmark gate's 1e-8 (measured: 1.3e-9 at N = 9)
        run = Transfer(n_spins, 1.0, PHASE_RATIO_MAX / n_spins,
                       payload(1, [0.8, 0.6]), n_time_samples=40)
        _check_footprint(run)
        assert_same_outputs(run, tol=1e-8)

    def test_empty_start_of_the_rest(self):
        # |1> leaves the rest of the chain certainly occupied at t = 0,
        # where the full-chain traces read 0
        res = run_multi_qubit_transfer(Transfer(
            6, 1.0, 22.0, logical_basis([1]), n_time_samples=10))
        assert res.fidelity_corrected[0] == 0.0
        assert_same_outputs(Transfer(6, 1.0, 22.0, logical_basis(
            [1]), n_time_samples=10))
