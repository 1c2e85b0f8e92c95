import gc
import re
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components
from scipy.special import jv

from dwtransfer.core import (
    DimensionMismatch,
    Operator,
    PauliSum,
    PropagatorConfig,
    _complex,
    _evolve_exact,
    _jacobi_anger,
    _planar,
    basis_index,
    evolve,
    index_bits,
    realize,
    reflect,
)
from dwtransfer.hamiltonians import (
    heisenberg_xy,
    multiqubit_reset_hamiltonian,
    transport_hamiltonian,
)
from references import basis_state, fidelity, logical_basis, sigma_z

EXACT = PropagatorConfig(method="exact-eigendecomposition")
KRYLOV = PropagatorConfig(method="krylov")
METHODS = [EXACT, KRYLOV]
TAU = np.pi  # the mirror time at lam = 1

PAULI = {
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def kron_realize(p):
    """Reference realization: sum of Kronecker products, spin 1 leftmost."""
    dim = 2**p.n_spins
    acc = sp.csr_matrix((dim, dim), dtype=complex)
    for coeff, factors in p.terms:
        term = sp.identity(1, dtype=complex, format="csr")
        for site in range(1, p.n_spins + 1):
            local = PAULI.get(factors.get(site), np.eye(2, dtype=complex))
            term = sp.kron(term, sp.csr_matrix(local), format="csr")
        acc = acc + coeff * term
    acc.eliminate_zeros()
    return acc


def assert_parts_rebuild(block, parts):
    """The parts of a component's eigensystem (``Operator.components``)
    against ``block``, H on the component: each part's eigenpairs
    rebuild H on that part's basis (component state ``i`` is
    ``weight[i]`` times basis state ``label[i]``), with orthonormal
    eigenvectors, real exactly when H is, and the parts' bases together
    are orthonormal on the component and rebuild H there, to 1e-12."""
    size = block.shape[0]
    bases, rebuilt = [], np.zeros(block.shape, dtype=complex)
    for label, weight, w, v in parts:
        assert np.isrealobj(v) == np.isrealobj(block)
        basis = np.zeros((size, w.size))
        basis[np.arange(size), label] = weight
        assert np.abs((v * w) @ v.conj().T
                      - basis.T @ block @ basis).max() < 1e-12
        assert np.abs(v.conj().T @ v - np.eye(w.size)).max() < 1e-12
        bases.append(basis)
        rebuilt += basis @ (v * w) @ v.conj().T @ basis.T
    joint = np.hstack(bases)
    assert np.abs(joint.T @ joint - np.eye(size)).max() < 1e-12
    assert np.abs(rebuilt - block).max() < 1e-12


def random_pauli_sum(rng, n_spins, n_terms, labels="XYZ"):
    terms = []
    for _ in range(n_terms):
        sites = rng.choice(np.arange(1, n_spins + 1),
                           size=int(rng.integers(0, n_spins + 1)),
                           replace=False)
        factors = {int(s): str(rng.choice(list(labels))) for s in sites}
        terms.append((float(rng.normal()), factors))
    return PauliSum(n_spins, tuple(terms))


def columns(form, dim):
    """The matrix a Chebyshev form applies, column by column."""
    return np.array([_complex(form @ _planar(e, form.h.shape))
                     for e in np.eye(dim, dtype=complex)]).T


def random_hermitian_operator(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Operator((a + a.conj().T) / 2)


def protocol_operators(n_spins):
    """Transport and reset on registers 2+(n-4)+2, and the XY chain."""
    return {
        "transport": realize(transport_hamiltonian(n_spins, 22.0, 1.0)),
        "reset": realize(multiqubit_reset_hamiltonian(n_spins, 22.0, 1.0, 2)),
        "xy": realize(heisenberg_xy(n_spins, 1.0)),
    }


def random_state(rng, n_spins):
    amp = rng.normal(size=2**n_spins) + 1j * rng.normal(size=2**n_spins)
    return amp / np.linalg.norm(amp)


class TestStateVector:
    """A chain state is a plain vector of its 2^N amplitudes: ``evolve``
    checks its length and norm, and returns read-only states."""

    def test_rejects_unnormalized(self):
        h = realize(PauliSum(1, ((1.0, {1: "X"}),)))
        with pytest.raises(ValueError, match="not normalized"):
            evolve(np.array([1.0, 1.0]), h, 0.5)

    def test_rejects_wrong_length(self):
        h = realize(PauliSum(1, ((1.0, {1: "X"}),)))
        with pytest.raises(DimensionMismatch):
            evolve(np.array([1.0, 0.0, 0.0, 0.0]), h, 0.5)

    def test_from_bits_ordering(self):
        # spin 1 is the most significant bit
        assert basis_index([1, 0, 0]) == 0b100
        assert logical_basis([1, 0, 0]).amplitudes[0b100] == 1.0

    def test_amplitudes_immutable(self):
        h = realize(heisenberg_xy(2, 1.0))
        for t in (0.0, 0.7, [0.0, 0.7]):
            psi = evolve(basis_state([0, 1]), h, t)
            with pytest.raises(ValueError):
                psi[..., 0] = 1.0

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_index_bits_inverts_basis_index(self, k):
        for idx in range(2**k):
            bits = index_bits(idx, k)
            assert len(bits) == k and basis_index(bits) == idx
        # spin 1 is the most significant bit
        assert index_bits(0b100, 3) == [1, 0, 0]

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_bit_reversal_reads_from_the_other_end(self, n):
        # reflect over every position is the chain reversal
        rev = reflect(np.arange(2**n), range(n))
        for idx in range(2**n):
            assert rev[idx] == basis_index(index_bits(idx, n)[::-1])
        assert (rev[rev] == np.arange(2**n)).all()
        assert np.array_equal(rev, bit_reversal_reference(n))

    @pytest.mark.parametrize("n", [5, 8])
    def test_reflect_over_the_active_spins(self, n):
        # over the spins a protocol stage flips, reflect keeps every
        # other bit: the mirror of the dense path's split
        idx = np.arange(2**n)
        for stage in (transport_hamiltonian(n, 22.0, 1.0),
                      heisenberg_xy(n, 1.0),
                      *(multiqubit_reset_hamiltonian(n, 22.0, 1.0, k)
                        for k in (1, 2))):
            active = 0
            for _, factors in stage.terms:
                for site, label in factors.items():
                    if label == "X":
                        active |= 1 << (n - site)
            bits = np.flatnonzero(active >> np.arange(n) & 1)
            got = reflect(idx, bits)
            assert np.array_equal(got, nested_reflect_reference(
                idx, bits, active))
            assert np.array_equal(got[got], idx)
            assert np.array_equal(got & ~active, idx & ~active)


def bit_reversal_reference(n):
    """The chain reversal of ``n`` spins as a permutation of basis
    indices, by a loop over the ``n`` bit positions."""
    idx = np.arange(2**n)
    rev = np.zeros_like(idx)
    for b in range(n):
        rev |= (idx >> b & 1) << (n - 1 - b)
    return rev


def nested_reflect_reference(x, bits, active):
    """``x`` with the bits at the sorted positions ``bits``, whose mask
    is ``active``, read in reverse order, by one gather over all of
    them at once."""
    moved = (x[:, None] >> bits & 1) << bits[::-1]
    return x & ~active | moved.sum(axis=1)


class TestPauliSum:
    def test_site_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            PauliSum(2, ((1.0, {3: "Z"}),))

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown Pauli"):
            PauliSum(1, ((1.0, {1: "Q"}),))

    def test_complex_coefficient_rejected(self):
        with pytest.raises(ValueError, match="real"):
            PauliSum(1, ((1.0 + 0.5j, {1: "Z"}),))

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_reversed_maps_site_n_to_the_other_end(self, n):
        p = random_pauli_sum(np.random.default_rng(n), n, n_terms=9)
        r = p.reversed()
        assert r.n_spins == n and len(r.terms) == len(p.terms)
        for (c, factors), (cr, fr) in zip(p.terms, r.terms):
            # each coefficient kept bit for bit
            assert np.float64(cr).tobytes() == np.float64(c).tobytes()
            assert fr == {n + 1 - s: label for s, label in factors.items()}
        assert r.reversed() == p
        # the realized reversal is H conjugated by the chain reversal
        rev = reflect(np.arange(2**n), range(n))
        h = realize(p).matrix.toarray()
        assert np.array_equal(realize(r).matrix.toarray(),
                              h[np.ix_(rev, rev)])


class TestRealize:
    def test_single_z(self):
        op = realize(PauliSum(1, ((1.0, {1: "Z"}),)))
        assert np.allclose(op.matrix.toarray(), np.diag([1.0, -1.0]))

    def test_empty_terms(self):
        op = realize(PauliSum(2, ()))
        assert op.matrix.nnz == 0
        assert op.dimension == 4

    def test_zz_diagonal(self):
        op = realize(PauliSum(2, ((1.0, {1: "Z", 2: "Z"}),)))
        assert np.allclose(op.matrix.toarray(), np.diag([1.0, -1.0, -1.0, 1.0]))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_kron_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = seed + 1
        p = random_pauli_sum(rng, n, n_terms=int(rng.integers(1, 12)))
        got = realize(p).matrix
        ref = kron_realize(p)
        assert got.has_canonical_format
        assert got.nnz == ref.nnz
        assert np.array_equal(got.toarray(), ref.toarray())

    def test_y_pairs_keep_their_sign(self):
        # Y Y |00> = -|11>, Y Y |01> = +|10>; the XX + YY sum hops only
        # between |01> and |10>
        yy = realize(PauliSum(2, ((1.0, {1: "Y", 2: "Y"}),))).matrix
        assert np.array_equal(yy.toarray(), kron_realize(
            PauliSum(2, ((1.0, {1: "Y", 2: "Y"}),))).toarray())
        assert yy[3, 0] == -1.0 and yy[2, 1] == 1.0
        hop = realize(heisenberg_xy(2, 2.0)).matrix
        assert hop.nnz == 2

    def test_rejects_non_hermitian_matrix(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Operator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("seed", range(4))
    def test_hermiticity_defect_matches_sparse_difference(self, seed):
        # an input, sparse or dense, is refused exactly when max |m - m^H|
        # exceeds the tolerance, and the refusal reports that defect
        a = sp.random(16, 16, density=0.3, random_state=seed) * (1 + 1j)
        hermitian = sp.csr_matrix(a + a.getH())
        nudged = hermitian.copy()
        nudged.data[0] += 1e-6j  # same pattern, not Hermitian
        real = sp.csr_matrix(a.real + a.real.T)
        for m, refused in ((hermitian, False), (nudged, True), (a, True),
                           (real, False)):
            m = sp.csr_matrix(m, dtype=complex)
            want = abs(m - m.getH()).max()
            assert (want > 1e-12) == refused
            for given in (m, m.toarray()):
                if refused:
                    with pytest.raises(ValueError, match=re.escape(
                            f"not Hermitian (defect {want:.3e})")):
                        Operator(given)
                else:
                    assert Operator(given).dimension == 16

    @pytest.mark.parametrize("given", [np.zeros((2, 3)),
                                       sp.csr_matrix((2, 3))])
    def test_rejects_a_non_square_matrix(self, given):
        with pytest.raises(ValueError, match="square"):
            Operator(given)

    @pytest.mark.parametrize("labels", ["XZ", "XYZ"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_product_matches_kron_reference(self, n, labels):
        # strings at random, plus one that straddles the cut between the
        # first n // 2 spins and the rest; with Y the factors are complex
        rng = np.random.default_rng(100 + n)
        p = random_pauli_sum(rng, n, 12, labels)
        if n > 1:
            cut = n // 2
            p = PauliSum(n, p.terms + ((0.7, {cut: labels[-2],
                                              cut + 1: "X"}),))
        h = realize(p)
        if n > 1:
            assert h._h.straddle
            assert h._h.real == (labels == "XZ")
        ref = kron_realize(p)
        for _ in range(3):
            x = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            want = ref @ x
            got = _complex(h._h.product(_planar(x, h._h.shape)))
            assert np.abs(got - want).max() <= 1e-14 * max(
                1.0, np.abs(want).max())


class TestEvolve:
    def test_zero_time_identity(self):
        psi = basis_state([1, 0])
        h = realize(PauliSum(2, ((1.0, {1: "X"}),)))
        out = evolve(psi, h, 0.0, KRYLOV)
        assert np.array_equal(out, psi)

    def test_pi_half_x_rotation(self):
        # exp(-i sigma_x pi/2) = -i sigma_x
        psi = basis_state([0])
        h = realize(PauliSum(1, ((np.pi / 2, {1: "X"}),)))
        out = evolve(psi, h, 1.0, EXACT)
        assert abs(out[1] - (-1j)) < 1e-12
        assert fidelity(out, basis_state([1])) == pytest.approx(1.0)

    def test_perfect_transfer_n5(self):
        h = realize(heisenberg_xy(5, 1.0))
        src = basis_state([1, 0, 0, 0, 0])
        tgt = basis_state([0, 0, 0, 0, 1])
        out = evolve(src, h, np.pi, EXACT)
        assert fidelity(out, tgt) == pytest.approx(1.0, abs=1e-8)

    def test_dimension_mismatch(self):
        psi = basis_state([0])
        h = realize(PauliSum(2, ((1.0, {1: "Z"}),)))
        with pytest.raises(DimensionMismatch):
            evolve(psi, h, 1.0, KRYLOV)

    def test_negative_time_rejected(self):
        psi = basis_state([0])
        h = realize(PauliSum(1, ((1.0, {1: "Z"}),)))
        with pytest.raises(ValueError):
            evolve(psi, h, -1.0, KRYLOV)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unitarity_random(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            h = random_hermitian_operator(rng, 2**n)
            psi = random_state(rng, n)
            t = float(rng.uniform(0.0, 10.0))
            out = evolve(psi, h, t, KRYLOV)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    @pytest.mark.parametrize("seed", [3, 4])
    def test_krylov_matches_exact(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            n = int(rng.integers(2, 11))
            h = random_hermitian_operator(rng, 2**n)
            psi = random_state(rng, n)
            t = float(rng.uniform(0.0, 5.0))
            a = evolve(psi, h, t, EXACT)
            b = evolve(psi, h, t, KRYLOV)
            assert np.linalg.norm(a - b) < 1e-8

    @pytest.mark.parametrize("steps", [200, 1])
    @pytest.mark.parametrize("builder", [transport_hamiltonian,
                                         multiqubit_reset_hamiltonian])
    @pytest.mark.parametrize("layout", [(1, 3, 1), (2, 3, 2), (3, 3, 3)])
    def test_fast_matches_exact_on_protocol_hamiltonians(
        self, layout, builder, steps
    ):
        # one trace sample (tau/200) and one whole stage at J/lambda = 22
        n = sum(layout)
        if builder is multiqubit_reset_hamiltonian:
            h = realize(builder(n, 22.0, 1.0, layout[-1]))
        else:
            h = realize(builder(n, 22.0, 1.0))
        psi = random_state(np.random.default_rng(n), n)
        t = TAU / steps
        a = evolve(psi, h, t, EXACT)
        b = evolve(psi, h, t, KRYLOV)
        assert np.linalg.norm(a - b) < 1e-8

    def test_long_time_leaves_global_rng_untouched(self):
        # ||tau H||_1 = 512: one expm_multiply call over tau would draw
        # from np.random through scipy's randomized norm estimate
        h = realize(transport_hamiltonian(7, 22.0, 1.0))
        psi = random_state(np.random.default_rng(2), 7)
        before = np.random.get_state()
        out = evolve(psi, h, np.pi, KRYLOV)
        after = np.random.get_state()
        assert np.array_equal(after[1], before[1])
        assert after[2:] == before[2:]
        ref = evolve(psi, h, np.pi, EXACT)
        assert np.linalg.norm(out - ref) < 1e-8

    def test_composition(self):
        rng = np.random.default_rng(7)
        h = random_hermitian_operator(rng, 2**4)
        psi = random_state(rng, 4)
        once = evolve(psi, h, 2.7, KRYLOV)
        split = evolve(evolve(psi, h, 1.2, KRYLOV), h, 1.5, KRYLOV)
        assert np.linalg.norm(once - split) < 1e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_bad_time_names_the_value(self, bad):
        psi = basis_state([0])
        h = realize(PauliSum(1, ((1.0, {1: "X"}),)))
        for t in (bad, [0.5, bad]):
            with pytest.raises(ValueError, match=f"got {float(bad)!r}"):
                evolve(psi, h, t, KRYLOV)

    def test_times_out_of_order_rejected(self):
        psi = basis_state([0])
        h = realize(PauliSum(1, ((1.0, {1: "X"}),)))
        with pytest.raises(ValueError, match="got 0.25 after 0.5"):
            evolve(psi, h, [0.1, 0.5, 0.25], KRYLOV)
        with pytest.raises(ValueError, match="1-D"):
            evolve(psi, h, [[0.1, 0.5]], KRYLOV)

    @pytest.mark.parametrize("cfg", METHODS)
    def test_grid_returns_one_state_per_time(self, cfg):
        h = realize(heisenberg_xy(4, 1.0))
        psi = basis_state([1, 0, 0, 0])
        out = evolve(psi, h, [0.0, 0.0, 0.4, 0.4, 1.0], cfg)
        assert out.shape == (5, 16) and not out.flags.writeable
        assert np.array_equal(out[0], psi)
        assert np.array_equal(out[1], psi)
        assert np.array_equal(out[2], out[3])
        assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() < 1e-15
        assert evolve(psi, h, [], cfg).shape == (0, 16)
        zeros = evolve(psi, h, [0.0, 0.0], cfg)
        assert zeros.shape == (2, 16) and not zeros.flags.writeable
        assert np.array_equal(zeros[1], psi)

    @pytest.mark.parametrize("cfg", METHODS)
    @pytest.mark.parametrize("whole_space", [False, True])
    def test_grid_equals_scalar_steps(self, cfg, whole_space):
        # what the protocol did before chunking: one call per sample
        h = realize(transport_hamiltonian(7, 22.0, 1.0))
        psi = basis_state([1] + [0] * 6)
        if whole_space:
            psi = random_state(np.random.default_rng(3), 7)
        dt = TAU / 200
        grid = evolve(psi, h, dt * np.arange(1, 13), cfg)
        state = psi
        for k, from_grid in enumerate(grid, start=1):
            state = evolve(state, h, dt, cfg)
            alone = evolve(psi, h, k * dt, cfg)
            for other in (state, alone):
                assert np.abs(from_grid - other).max() < 1e-12


class TestChebyshev:
    N = 7

    @pytest.mark.parametrize("z", [0.0, 1e-3, 0.5, 2.404825557695773,
                                   45.0, 300.0, 4500.0])
    def test_jacobi_anger_matches_bessel(self, z):
        coef = _jacobi_anger(np.array([z, z / 3]))
        assert np.isrealobj(coef)
        k = np.arange(coef.shape[1])
        for row, x in zip(coef, (z, z / 3)):
            want = (2 - (k == 0)) * jv(k, x)
            assert np.abs(row - want).max() < 1e-15 * (1 + z)
        # the next term lies below round-off
        assert abs(jv(k.size, z)) < 1e-15 * (1 + z)

    @pytest.mark.parametrize("seed", range(5))
    def test_gershgorin_interval_holds_the_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        for h in (random_hermitian_operator(rng, 2 ** (seed + 1)),
                  realize(random_pauli_sum(rng, 5, 12))):
            lo, hi = h.spectral_interval()
            w = np.linalg.eigvalsh(h.matrix.toarray())
            assert lo <= w[0] and w[-1] <= hi

    @pytest.mark.parametrize("samples", [1, 8, 200, "tau"])
    @pytest.mark.parametrize("ham", ["transport", "reset", "xy"])
    @pytest.mark.parametrize("whole_space", [False, True])
    def test_matches_expm(self, samples, ham, whole_space):
        h = {"transport": lambda: transport_hamiltonian(self.N, 22.0, 1.0),
             "reset": lambda: multiqubit_reset_hamiltonian(self.N, 22.0,
                                                           1.0, 2),
             "xy": lambda: heisenberg_xy(self.N, 1.0)}[ham]()
        h = realize(h)
        # one up spin, which the XY chain keeps in its 7 one-excitation
        # states, or a state on the whole space
        psi = basis_state([1] + [0] * (self.N - 1))
        if whole_space:
            psi = random_state(np.random.default_rng(5), self.N)
        if samples == "tau":
            times, step = np.array([TAU]), TAU
        else:
            step = TAU / 200
            times = step * np.arange(1, samples + 1)
        out = evolve(psi, h, times, KRYLOV)
        u = expm(-1j * step * h.matrix.toarray())
        ref = psi
        for row in out:
            ref = u @ ref
            assert np.abs(row - ref).max() < 1e-10

    def test_constant_operator(self):
        # a zero-width interval: the series is its first term alone
        h = Operator(sp.identity(4, dtype=complex, format="csr") * 2.5)
        psi = random_state(np.random.default_rng(0), 2)
        out = evolve(psi, h, [0.3, 1.1], KRYLOV)
        for t, row in zip((0.3, 1.1), out):
            assert np.abs(row - np.exp(-2.5j * t) * psi).max() < 1e-14

    @pytest.mark.parametrize("ham", ["transport", "reset", "xy"])
    def test_chebyshev_form_stores_no_copy_of_h(self, ham):
        h = protocol_operators(self.N)[ham]
        form = h.chebyshev_form()
        assert form is h.chebyshev_form()
        # the form applies the operator's own factors and holds no
        # array of the operator's size until a time grid gives it
        # coefficients
        assert form.h is h._h
        assert not [v for v in vars(form).values()
                    if isinstance(v, np.ndarray) and v.size >= h.dimension]
        lo, hi = h.spectral_interval()
        c, a = (hi + lo) / 2, (hi - lo) / 2
        want = 2 * (h.matrix.toarray() - c * np.eye(h.dimension)) / a
        got = columns(form, h.dimension)
        assert np.abs(got - want).max() < 1e-14

    def test_scaled_matrix_with_missing_diagonal(self):
        # three diagonal entries are zero and the centre is 1.5: the
        # shift adds them
        dense = np.zeros((4, 4))
        dense[0, 1] = dense[1, 0] = 1.0
        dense[2, 2] = 4.0
        h = Operator(sp.csr_matrix(dense))
        form = h.chebyshev_form()
        assert (form.centre, form.half_width) == (1.5, 2.5)
        got = columns(form, 4)
        assert np.abs(got - 0.8 * (dense - 1.5 * np.eye(4))).max() < 1e-15
        psi = random_state(np.random.default_rng(4), 2)
        out = evolve(psi, h, 0.9, KRYLOV)
        ref = expm(-0.9j * dense) @ psi
        assert np.abs(out - ref).max() < 1e-14

    @pytest.mark.parametrize("whole_space", [False, True])
    def test_alternating_grids_match_a_fresh_operator(self, whole_space):
        # the coefficients are kept for the last grid only: each grid
        # must get its own, not the ones of the grid before
        psi = basis_state([1] + [0] * (self.N - 1))
        if whole_space:
            psi = random_state(np.random.default_rng(6), self.N)
        dt = TAU / 200
        grids = (dt * np.arange(1, 6), 2 * dt * np.arange(1, 6),
                 dt * np.arange(1, 4))
        h = realize(transport_hamiltonian(self.N, 22.0, 1.0))
        for grid in grids + grids:
            out = evolve(psi, h, grid, KRYLOV)
            fresh = evolve(
                psi, realize(transport_hamiltonian(self.N, 22.0, 1.0)), grid,
                KRYLOV)
            assert np.abs(out - fresh).max() < 1e-12

    @pytest.mark.parametrize("ham", ["transport", "reset", "xy"])
    def test_protocol_operators_keep_gershgorin(self, ham):
        h = protocol_operators(self.N)[ham]
        m = h.matrix
        diag = m.diagonal().real
        radius = abs(m).sum(axis=1).A1 - abs(diag)
        assert h.spectral_interval() == pytest.approx(
            (np.min(diag - radius), np.max(diag + radius)), rel=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_interval_is_the_gershgorin_interval(self, seed):
        # random sums with X, Y and Z, and, as dense arrays, the
        # components of the protocol operators that hold one basis
        # state, against the dense matrix
        rng = np.random.default_rng(seed)
        p = random_pauli_sum(rng, 6, 10)
        ops = [realize(p)]
        one = np.zeros(2**self.N)
        one[1 << (self.N - 1)] = 1.0
        for h in protocol_operators(self.N).values():
            (indices, _), = h.components(one)
            ops.append(Operator(h.matrix.toarray()[np.ix_(indices,
                                                          indices)]))
        for h in ops:
            full = h.matrix.toarray()
            assert np.count_nonzero(full) <= full.size / 4
            diag = full.diagonal().real
            radius = np.abs(full).sum(axis=1) - np.abs(diag)
            assert h.spectral_interval() == pytest.approx(
                (np.min(diag - radius), np.max(diag + radius)), rel=1e-14)

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_interval_is_tight(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian_operator(rng, 256)
        lo, hi = h.spectral_interval()
        w = np.linalg.eigvalsh(h.matrix.toarray())
        assert lo <= w[0] and w[-1] <= hi
        # Gershgorin alone is about 8 times as wide at this size
        assert hi - lo < 1.5 * (w[-1] - w[0])


class TestInvariantBlock:
    """The invariant block of a state, the union of the components of H
    it occupies: ``evolve`` propagates the state on the whole space,
    where the amplitudes outside its block stay zero, and the dense path
    diagonalizes that block alone."""

    N = 7

    def inputs(self):
        n = self.N
        one = basis_state([1] + [0] * (n - 1))
        two = basis_state([1, 1] + [0] * (n - 2))
        mixed = (one + 1j * two + basis_state([0] * n)) / np.sqrt(3)
        return {"one": one, "two": two, "mixed": mixed}

    @pytest.mark.parametrize("cfg", METHODS)
    @pytest.mark.parametrize("ham", ["transport", "reset", "xy"])
    @pytest.mark.parametrize("label", ["one", "two", "mixed"])
    def test_restricted_matches_full_space_expm(self, cfg, ham, label):
        h = protocol_operators(self.N)[ham]
        psi = self.inputs()[label]
        ref = expm(-1j * 0.7 * h.matrix.toarray()) @ psi
        out = evolve(psi, h, 0.7, cfg)
        assert np.abs(out - ref).max() < 1e-10

    def test_block_sizes(self):
        n = self.N
        hams = protocol_operators(self.N)
        one = self.inputs()["one"]
        (indices, parts), = hams["xy"].components(one)
        assert sum(w.size for _, _, w, _ in parts) == n
        assert np.array_equal(indices, [1 << k for k in range(n)])
        # spin 1 up: the 2^(n-1) states of its transport sector
        assert [ix.size for ix, _ in hams["transport"].components(one)
                ] == [2 ** (n - 1)]
        dense = random_state(np.random.default_rng(0), n)
        assert sum(ix.size for ix, _ in hams["transport"].components(
            dense)) == 2**n

    def test_block_matches_restricted_matrix(self):
        h = protocol_operators(self.N)["xy"]
        (indices, parts), = h.components(self.inputs()["one"])
        full = h.matrix.toarray()
        assert_parts_rebuild(full[np.ix_(indices, indices)].real, parts)
        outside = np.setdiff1d(np.arange(h.dimension), indices)
        assert not full[np.ix_(outside, indices)].any()

    @pytest.mark.parametrize("cfg", METHODS)
    @pytest.mark.parametrize("ham", ["transport", "reset", "xy"])
    @pytest.mark.parametrize("label", ["one", "two", "mixed"])
    def test_block_amplitudes_match_whole_space_rows(self, cfg, ham, label):
        # the rows of a grid vanish outside the state's block (nowhere
        # for the mixed state under transport, whose block is the whole
        # space), and one time gives the grid's row
        h = protocol_operators(self.N)[ham]
        psi = self.inputs()[label]
        times = np.array([0.0, 0.3, 0.7])
        rows = evolve(psi, h, times, cfg)
        assert rows.shape == (3, h.dimension) and not rows.flags.writeable
        inside = np.concatenate([ix for ix, _ in h.components(psi)])
        outside = np.setdiff1d(np.arange(h.dimension), inside)
        assert np.abs(rows[:, outside]).max(initial=0.0) < 1e-14
        one = evolve(psi, h, 0.7, cfg)
        assert one.shape == (h.dimension,)
        assert np.abs(one - rows[2]).max() < 1e-14

    def test_amplitude_vector_checked(self):
        h = protocol_operators(self.N)["xy"]
        amp = self.inputs()["one"]
        with pytest.raises(ValueError, match="not normalized"):
            evolve(2 * amp, h, 0.5)
        with pytest.raises(DimensionMismatch):
            evolve(amp[:-1], h, 0.5)
        with pytest.raises(DimensionMismatch):
            evolve(amp[None], h, 0.5)

    @pytest.mark.parametrize("cfg", METHODS)
    def test_support_leaving_the_cache_recomputes(self, cfg):
        h = protocol_operators(self.N)["xy"]
        states = self.inputs()
        first, = h.components(states["one"])
        # a support inside a cached component reuses its eigensystem
        shifted = basis_state([0, 1] + [0] * (self.N - 2))
        again, = h.components(shifted)
        assert all(a is b for a, b in zip(first, again))
        full = h.matrix.toarray()
        for label in ("two", "mixed", "one"):
            psi = states[label]
            out = evolve(psi, h, 1.3, cfg)
            ref = expm(-1j * 1.3 * full) @ psi
            assert np.abs(out - ref).max() < 1e-10
        # the vacuum and one and two excitations: 29 states
        assert sum(ix.size for ix, _ in h.components(states["mixed"])
                   ) == 1 + self.N + self.N * (self.N - 1) // 2

    @pytest.mark.parametrize("cfg", METHODS)
    @pytest.mark.parametrize("whole_space", [False, True])
    def test_operator_freed_without_cycle_collector(self, cfg, whole_space):
        # the caches evolve fills must not refer back to their operator,
        # or the cached eigensystems live until the next collection
        h = realize(transport_hamiltonian(self.N, 22.0, 1.0))
        psi = self.inputs()["one"]
        if whole_space:  # a dense state fills both Z_1 sectors
            psi = random_state(np.random.default_rng(1), self.N)
        ref = weakref.ref(h)
        gc.disable()
        try:
            evolve(psi, h, 0.5, cfg)
            del h
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("cfg", METHODS)
    @pytest.mark.parametrize("ham", ["transport", "xy"])
    def test_evolve_propagates_the_operator_it_is_given(self, cfg, ham):
        # a state with a small block (the XY chain's 7 one-excitation
        # states) is still propagated on the whole space, and matches
        # expm there
        h = {"transport": realize(transport_hamiltonian(self.N, 22.0, 1.0)),
             "xy": realize(heisenberg_xy(self.N, 1.0))}[ham]
        psi = self.inputs()["one"]
        full = h.matrix.toarray()
        times = np.array([0.0, 0.4, 1.3])
        rows = evolve(psi, h, times, cfg)
        assert rows.shape == (3, h.dimension) and not rows.flags.writeable
        for t, row in zip(times, rows):
            assert np.abs(row - expm(-1j * t * full) @ psi).max() < 1e-10


class TestComponents:
    N = 7

    def hamiltonians(self, layout):
        """Transport and reset on registers ``layout`` = (Alice, wire,
        Bob) spins."""
        n = sum(layout)
        return {"transport": realize(transport_hamiltonian(n, 22.0, 1.0)),
                "reset": realize(multiqubit_reset_hamiltonian(
                    n, 22.0, 1.0, layout[-1]))}

    def complex_operator(self):
        # a single Y makes H complex; X_1, Y_2 and X_3 connect every index
        return realize(PauliSum(3, ((1.0, {1: "X"}), (0.5, {2: "Y"}),
                                    (0.3, {1: "Z", 2: "Z"}),
                                    (0.7, {3: "X"}))))

    @pytest.mark.parametrize("layout, sizes", [
        ((2, 3, 2), {"transport": [64] * 2, "reset": [32] * 4}),
        ((1, 5, 1), {"transport": [64] * 2, "reset": [64] * 2}),
    ])
    def test_components_partition_the_block(self, layout, sizes):
        # a random state occupies every component
        filled = random_state(np.random.default_rng(2), self.N)
        one = basis_state([1] + [0] * (self.N - 1))
        for ham, h in self.hamiltonians(layout).items():
            parts = [indices for indices, _ in h.components(filled)]
            assert sorted(p.size for p in parts) == sizes[ham]
            label = np.full(h.dimension, -1)
            for n, indices in enumerate(parts):
                assert np.array_equal(indices, np.unique(indices))
                assert (label[indices] == -1).all()  # disjoint
                label[indices] = n
            assert (label >= 0).all()  # they cover the space
            rows, cols = h.matrix.nonzero()
            assert np.array_equal(label[rows], label[cols])
            # one basis state occupies the one component that holds it
            (mine, _), = h.components(one)
            assert np.array_equal(
                mine, parts[label[np.flatnonzero(one)[0]]])

    @staticmethod
    def connected_sets(ref):
        """Index sets of the connected components of the nonzero pattern
        of a sparse matrix without stored zeros, from scipy's graph
        search."""
        count, label = connected_components(abs(ref), directed=False)
        return sorted((np.flatnonzero(label == k) for k in range(count)),
                      key=lambda s: s[0])

    @pytest.mark.parametrize("case", ["protocol", "pauli", "dense", "xy13"])
    def test_blocks_and_components_are_connected_sets(self, case):
        rng = np.random.default_rng(3)
        if case == "protocol":
            sums = [transport_hamiltonian(7, 22.0, 1.0),
                    multiqubit_reset_hamiltonian(7, 22.0, 1.0, 2),
                    heisenberg_xy(7, 1.0)]
        elif case == "pauli":
            # Y on one site makes H complex; few terms leave it split
            sums = [PauliSum(6, ((1.0, {1: "Y", 4: "X"}), (0.5, {2: "Y"}),
                                 (0.3, {1: "Z", 6: "Z"}),
                                 (0.7, {3: "X", 5: "Y"})))]
        elif case == "xy13":
            sums = [heisenberg_xy(13, 1.0)]
        if case == "dense":
            # a block-diagonal matrix in a shuffled basis
            a = np.zeros((12, 12), dtype=complex)
            for lo, hi in ((0, 5), (5, 6), (6, 12)):
                b = rng.normal(size=(hi - lo,) * 2) + 1j * rng.normal(
                    size=(hi - lo,) * 2)
                a[lo:hi, lo:hi] = b + b.conj().T
            perm = rng.permutation(12)
            shuffled = a[np.ix_(perm, perm)]
            cases = [(lambda: Operator(shuffled), sp.csr_matrix(shuffled))]
        else:
            cases = [(lambda p=p: realize(p), kron_realize(p)) for p in sums]
        for fresh, ref in cases:
            want = self.connected_sets(ref)
            h = fresh()
            if h.dimension <= 2**7:
                got = sorted((ix for ix, _ in h.components(
                    np.ones(h.dimension))), key=lambda s: s[0])
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)
            # a state occupies the sets it touches; a fresh operator
            # each time, as the components found are cached
            for seed_index in (0, h.dimension // 3, h.dimension - 1):
                h = fresh()
                amp = np.zeros(h.dimension)
                amp[[seed_index, h.dimension // 2]] = 1.0
                touched = [w for w in want if np.isin(
                    w, [seed_index, h.dimension // 2]).any()]
                # only the components the state occupies
                got = sorted((ix for ix, _ in h.components(amp)),
                             key=lambda s: s[0])
                assert len(got) == len(touched)
                for g, w in zip(got, touched):
                    assert np.array_equal(g, w)
        if case == "xy13":
            # one excitation: the N + 1 = 14 states with at most one up
            # spin, bound by the XX + YY cancellation
            h = fresh()
            amp = np.zeros(2**13)
            amp[1 << 12] = 1.0
            (indices, parts), = h.components(amp)
            assert np.array_equal(indices, [1 << k for k in range(13)])
            assert sum(w.size for _, _, w, _ in parts) == 13
            amp[0] = 1.0
            got = [ix for ix, _ in h.components(amp)]
            assert np.array_equal(np.sort(np.concatenate(got)),
                                  [0] + [1 << k for k in range(13)])

    @pytest.mark.parametrize("layout", [(2, 3, 2), (1, 5, 1)])
    def test_eigensystem_per_component(self, layout):
        ops = list(self.hamiltonians(layout).values())
        ops.append(self.complex_operator())
        rng = np.random.default_rng(4)
        for op in ops:
            full = op.matrix.toarray()
            real = not full.imag.any()
            filled = random_state(rng, int(np.log2(op.dimension)))
            system = op.components(filled)
            want = self.connected_sets(op.matrix)
            assert len(system) == len(want)
            for indices, parts in system:
                # v is real exactly when H is
                block = full[np.ix_(indices, indices)]
                assert_parts_rebuild(block.real if real else block, parts)
            # cached: the same arrays again
            for old, new in zip(system, op.components(filled)):
                assert all(a is b for a, b in zip(old, new))
            # the operator's own eigensystem is that of the whole H
            w, v = op.eigensystem()
            assert np.isrealobj(v) == real
            assert np.abs((v * w) @ v.conj().T - full).max() < 1e-12
            assert op.eigensystem() is op.eigensystem()

    @pytest.mark.parametrize("complex_h", [False, True])
    def test_evolve_exact_matches_expm(self, complex_h):
        rng = np.random.default_rng(7)
        if complex_h:
            h = self.complex_operator()
            n = 3
        else:
            h = self.hamiltonians((2, 3, 2))["reset"]
            n = self.N
        # a random state fills every component (every Bob sector)
        amp = random_state(rng, n)
        times = np.array([0.2, 0.9, 3.1])
        rows = _evolve_exact(amp, h, times)
        full = h.matrix.toarray()
        for t, row in zip(times, rows):
            ref = expm(-1j * t * full) @ amp
            assert np.abs(row - ref).max() < 1e-10

    def test_evolve_exact_skips_empty_components(self, monkeypatch):
        h = self.hamiltonians((2, 3, 2))["reset"]
        sectors = self.connected_sets(h.matrix)  # the four Bob sectors
        sizes = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            sizes.append(a.shape[0])
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        amp = np.zeros(h.dimension, dtype=complex)
        # fill two of the four Bob sectors
        for indices in sectors[1:3]:
            amp[indices] = np.random.default_rng(indices[0]).normal(
                size=indices.size)
        amp /= np.linalg.norm(amp)
        row = _evolve_exact(amp, h, np.array([0.8]))[0]
        ref = expm(-0.8j * h.matrix.toarray()) @ amp
        assert np.abs(row - ref).max() < 1e-10
        for indices in (sectors[0], sectors[3]):
            assert not row[indices].any()
        # each sector of 32 as its two mirror halves: Bob's first spin
        # down (sector 1) keeps the 8 palindromes of the 5 active spins
        # fixed, 20 + 12; up (sectors 2, 3) the mirror flips them too
        # and fixes none, 16 + 16
        assert sizes == [20, 12, 16, 16]
        # a third sector adds its two halves; the two are cached
        amp[sectors[3]] = 0.5
        amp /= np.linalg.norm(amp)
        assert len(h.components(amp)) == 3
        assert sizes == [20, 12, 16, 16, 16, 16]


class TestMirrorSplit:
    """The dense path diagonalizes a component whose spin mirror commutes
    with H as its even and odd halves; the eigensystem it returns is
    still that of H on the whole component."""

    @pytest.fixture
    def sizes(self, monkeypatch):
        sizes = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            sizes.append(a.shape[0])
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        return sizes

    @staticmethod
    def stages(n, j):
        sums = {"transport": transport_hamiltonian(n, j, 1.0),
                "xy": heisenberg_xy(n, 1.3)}
        for k in range(1, min(3, n // 2) + 1):
            sums[f"reset{k}"] = multiqubit_reset_hamiltonian(n, j, 1.0, k)
        return sums

    @pytest.mark.parametrize("n", range(5, 10))
    @pytest.mark.parametrize("j", [22.007, -22.007, 3.3, -10.4])
    def test_halves_rebuild_every_component(self, n, j, sizes):
        for name, p in self.stages(n, j).items():
            h = realize(p)
            full = h.matrix.toarray().real
            sizes.clear()
            system = h.components(np.ones(h.dimension))
            assert sum(ix.size for ix, _ in system) == h.dimension
            # every component of more than one state is split in two
            # halves, none empty; the XY vacuum and all-up state are not
            assert sum(sizes) == h.dimension and min(sizes) >= 1
            assert len(sizes) == sum(2 if ix.size > 1 else 1
                                     for ix, _ in system), name
            for indices, parts in system:
                # two parts exactly where the component was split
                assert len(parts) == (2 if indices.size > 1 else 1)
                assert_parts_rebuild(full[np.ix_(indices, indices)], parts)

    def test_no_split_without_the_symmetry(self, sizes):
        n = 7
        stage = transport_hamiltonian(n, 22.007, 1.0)
        # the first field 1e-6 off the mirror profile
        (t, factors), *rest = stage.terms
        broken = PauliSum(n, ((t * (1 + 1e-6), factors), *rest))
        # Y fields on the mirror profile: a complex H
        complex_sum = PauliSum(n, tuple(
            (c, {s: "Y" if label == "X" else label
                 for s, label in f.items()})
            for c, f in stage.terms))
        raw = Operator(realize(stage).matrix.toarray().real)
        for h in (realize(broken), realize(complex_sum), raw):
            sizes.clear()
            system = h.components(np.ones(h.dimension))
            # one unsplit eigh per component: the two Z_1 sectors
            assert sizes == [ix.size for ix, _ in system] == [64, 64]
            full = h.matrix.toarray()
            for indices, parts in system:
                assert len(parts) == 1
                block = full[np.ix_(indices, indices)]
                assert_parts_rebuild(
                    block if block.imag.any() else block.real, parts)

    def test_dense_evolve_keeps_the_halves_apart(self):
        # spin 1 up under transport at N = 11 occupies one component of
        # d = 1024 states, split in two halves of about d/2: the parts
        # hold two (d/2)^2 eigenvector matrices, where one real d x d
        # matrix beside the halves' eigh outputs peaks near 2 d^2 * 8
        n = 11
        h = realize(transport_hamiltonian(n, 22.007 * n / 13, 1.0))
        psi = basis_state([1] + [0] * (n - 1))
        times = TAU / 40 * np.arange(1, 41)
        tracemalloc.start()
        try:
            rows = evolve(psi, h, times, EXACT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        d = 2 ** (n - 1)  # the sector of spin 1 up
        assert peak < 1.5 * d**2 * 8
        (indices, parts), = h.components(psi)
        assert indices.size == d and len(parts) == 2
        assert rows.shape == (40, 2**n)

    def test_no_split_when_the_reflection_leaves_the_flips(self, sizes):
        # the reflection of the active spins 1, 2 maps the flip X_1 to
        # X_2, which no term flips
        h = realize(PauliSum(3, ((0.7, {1: "X"}), (0.4, {1: "X", 2: "X"}),
                                 (0.3, {2: "Z", 3: "Z"}))))
        amp = random_state(np.random.default_rng(11), 3)
        times = np.array([0.7, 2.3])
        rows = _evolve_exact(amp, h, times)
        # one unsplit eigh per component: the two Z_3 sectors
        assert sizes == [ix.size for ix, _ in h.components(amp)] == [4, 4]
        for t, row in zip(times, rows):
            ref = expm(-1j * t * h.matrix.toarray()) @ amp
            assert np.abs(row - ref).max() < 1e-12


class TestPropagatorConfig:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            PropagatorConfig(method="magic")


class TestFidelity:
    """The reference squared overlap."""

    def test_self_fidelity(self):
        psi = basis_state([1, 0])
        assert fidelity(psi, psi) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert fidelity(basis_state([0]), basis_state([1])) == pytest.approx(
            0.0)

    def test_half_overlap(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        assert fidelity(basis_state([0]), plus) == pytest.approx(0.5)

    def test_global_phase_insensitive(self):
        psi = basis_state([1])
        assert fidelity(psi, 1j * psi) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fidelity(basis_state([0]), basis_state([0, 0]))


class TestSigmaZ:
    """The reference ``<sigma_z>`` of one spin."""

    def test_flipped_first_site(self):
        assert sigma_z(basis_state([1, 0, 0]), 1) == pytest.approx(-1.0)

    def test_down_site(self):
        assert sigma_z(basis_state([1, 0, 0]), 2) == pytest.approx(1.0)

    def test_equal_superposition(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        assert sigma_z(plus, 1) == pytest.approx(0.0)

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            sigma_z(basis_state([0]), 2)
