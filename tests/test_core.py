import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.special import jv

from dwtransfer.core import (
    DimensionMismatch,
    Operator,
    PauliSum,
    PropagatorConfig,
    StateVector,
    _components,
    _evolve_exact,
    _hermiticity_defect,
    _jacobi_anger,
    basis_index,
    evolve,
    fidelity,
    index_bits,
    realize,
    sigma_z_expectation,
)
from dwtransfer.hamiltonians import (
    ChainSpec,
    heisenberg_xy,
    multiqubit_reset_hamiltonian,
    transport_hamiltonian,
)

EXACT = PropagatorConfig(method="exact-eigendecomposition")
KRYLOV = PropagatorConfig(method="krylov")
METHODS = [EXACT, KRYLOV]

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


def random_pauli_sum(rng, n_spins, n_terms):
    terms = []
    for _ in range(n_terms):
        sites = rng.choice(np.arange(1, n_spins + 1),
                           size=int(rng.integers(0, n_spins + 1)),
                           replace=False)
        factors = {int(s): str(rng.choice(["X", "Y", "Z"])) for s in sites}
        terms.append((float(rng.normal()), factors))
    return PauliSum(n_spins, tuple(terms))


def random_hermitian_operator(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Operator((a + a.conj().T) / 2)


def protocol_operators(n_spins):
    """Transport and reset on registers 2+(n-4)+2, and the XY chain."""
    spec = ChainSpec(n_spins, 22.0, 1.0)
    return {
        "transport": realize(transport_hamiltonian(spec)),
        "reset": realize(multiqubit_reset_hamiltonian(spec, 2)),
        "xy": realize(heisenberg_xy(n_spins, 1.0)),
    }


def random_state(rng, n_spins):
    amp = rng.normal(size=2**n_spins) + 1j * rng.normal(size=2**n_spins)
    return StateVector(n_spins, amp / np.linalg.norm(amp))


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(1, np.array([1.0, 1.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            StateVector(2, np.array([1.0, 0.0]))

    def test_from_bits_ordering(self):
        # spin 1 is the most significant bit
        psi = StateVector.from_bits([1, 0, 0])
        assert psi.amplitudes[0b100] == 1.0

    def test_amplitudes_immutable(self):
        psi = StateVector.from_bits([0, 1])
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 1.0

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_index_bits_inverts_basis_index(self, k):
        for idx in range(2**k):
            bits = index_bits(idx, k)
            assert len(bits) == k and basis_index(bits) == idx
        # spin 1 is the most significant bit
        assert index_bits(0b100, 3) == [1, 0, 0]


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
        a = sp.random(16, 16, density=0.3, random_state=seed) * (1 + 1j)
        hermitian = sp.csr_matrix(a + a.getH())
        nudged = hermitian.copy()
        nudged.data[0] += 1e-6j  # same pattern, not Hermitian
        # Hermitian, but with unsorted columns: the fallback path
        unsorted = sp.csr_matrix(
            ([2, 1, 1j, 2, 3, -1j], [1, 0, 2, 0, 2, 1], [0, 2, 4, 6]),
            shape=(3, 3))
        assert not unsorted.has_sorted_indices
        for m in (hermitian, nudged, a, unsorted):
            m = sp.csr_matrix(m, dtype=complex)
            want = abs(m - m.getH()).max()
            assert _hermiticity_defect(m) == pytest.approx(want, abs=1e-15)


class TestEvolve:
    def test_zero_time_identity(self):
        psi = StateVector.from_bits([1, 0])
        h = realize(PauliSum(2, ((1.0, {1: "X"}),)))
        out = evolve(psi, h, 0.0, KRYLOV)
        assert np.array_equal(out.amplitudes, psi.amplitudes)

    def test_pi_half_x_rotation(self):
        # exp(-i sigma_x pi/2) = -i sigma_x
        psi = StateVector.from_bits([0])
        h = realize(PauliSum(1, ((np.pi / 2, {1: "X"}),)))
        out = evolve(psi, h, 1.0, EXACT)
        assert abs(out.amplitudes[1] - (-1j)) < 1e-12
        assert fidelity(out, StateVector.from_bits([1])) == pytest.approx(1.0)

    def test_perfect_transfer_n5(self):
        h = realize(heisenberg_xy(5, 1.0))
        src = StateVector.from_bits([1, 0, 0, 0, 0])
        tgt = StateVector.from_bits([0, 0, 0, 0, 1])
        out = evolve(src, h, np.pi, EXACT)
        assert fidelity(out, tgt) == pytest.approx(1.0, abs=1e-8)

    def test_dimension_mismatch(self):
        psi = StateVector.from_bits([0])
        h = realize(PauliSum(2, ((1.0, {1: "Z"}),)))
        with pytest.raises(DimensionMismatch):
            evolve(psi, h, 1.0, KRYLOV)

    def test_negative_time_rejected(self):
        psi = StateVector.from_bits([0])
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
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10

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
            assert np.linalg.norm(a.amplitudes - b.amplitudes) < 1e-8

    @pytest.mark.parametrize("steps", [200, 1])
    @pytest.mark.parametrize("builder", [transport_hamiltonian,
                                         multiqubit_reset_hamiltonian])
    @pytest.mark.parametrize("layout", [(1, 3, 1), (2, 3, 2), (3, 3, 3)])
    def test_fast_matches_exact_on_protocol_hamiltonians(
        self, layout, builder, steps
    ):
        # one trace sample (tau/200) and one whole stage at J/lambda = 22
        spec = ChainSpec(sum(layout), 22.0, 1.0)
        if builder is multiqubit_reset_hamiltonian:
            h = realize(builder(spec, layout[-1]))
        else:
            h = realize(builder(spec))
        psi = random_state(np.random.default_rng(spec.n_spins), spec.n_spins)
        t = spec.tau / steps
        a = evolve(psi, h, t, EXACT)
        b = evolve(psi, h, t, KRYLOV)
        assert np.linalg.norm(a.amplitudes - b.amplitudes) < 1e-8

    def test_long_time_leaves_global_rng_untouched(self):
        # ||tau H||_1 = 512: one expm_multiply call over tau would draw
        # from np.random through scipy's randomized norm estimate
        h = realize(transport_hamiltonian(ChainSpec(7, 22.0, 1.0)))
        psi = random_state(np.random.default_rng(2), 7)
        before = np.random.get_state()
        out = evolve(psi, h, np.pi, KRYLOV)
        after = np.random.get_state()
        assert np.array_equal(after[1], before[1])
        assert after[2:] == before[2:]
        ref = evolve(psi, h, np.pi, EXACT)
        assert np.linalg.norm(out.amplitudes - ref.amplitudes) < 1e-8

    def test_composition(self):
        rng = np.random.default_rng(7)
        h = random_hermitian_operator(rng, 2**4)
        psi = random_state(rng, 4)
        once = evolve(psi, h, 2.7, KRYLOV)
        split = evolve(evolve(psi, h, 1.2, KRYLOV), h, 1.5, KRYLOV)
        assert np.linalg.norm(once.amplitudes - split.amplitudes) < 1e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_bad_time_names_the_value(self, bad):
        psi = StateVector.from_bits([0])
        h = realize(PauliSum(1, ((1.0, {1: "X"}),)))
        for t in (bad, [0.5, bad]):
            with pytest.raises(ValueError, match=f"got {float(bad)!r}"):
                evolve(psi, h, t, KRYLOV)

    def test_times_out_of_order_rejected(self):
        psi = StateVector.from_bits([0])
        h = realize(PauliSum(1, ((1.0, {1: "X"}),)))
        with pytest.raises(ValueError, match="got 0.25 after 0.5"):
            evolve(psi, h, [0.1, 0.5, 0.25], KRYLOV)
        with pytest.raises(ValueError, match="1-D"):
            evolve(psi, h, [[0.1, 0.5]], KRYLOV)

    @pytest.mark.parametrize("cfg", METHODS)
    def test_grid_returns_one_state_per_time(self, cfg):
        h = realize(heisenberg_xy(4, 1.0))
        psi = StateVector.from_bits([1, 0, 0, 0])
        out = evolve(psi, h, [0.0, 0.0, 0.4, 0.4, 1.0], cfg)
        assert out.shape == (5, 16) and not out.flags.writeable
        assert np.array_equal(out[0], psi.amplitudes)
        assert np.array_equal(out[1], psi.amplitudes)
        assert np.array_equal(out[2], out[3])
        assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() < 1e-15
        assert evolve(psi, h, [], cfg).shape == (0, 16)
        zeros = evolve(psi, h, [0.0, 0.0], cfg)
        assert zeros.shape == (2, 16) and not zeros.flags.writeable
        assert np.array_equal(zeros[1], psi.amplitudes)

    @pytest.mark.parametrize("cfg", METHODS)
    @pytest.mark.parametrize("whole_space", [False, True])
    def test_grid_equals_scalar_steps(self, cfg, whole_space):
        # what the protocol did before chunking: one call per sample
        spec = ChainSpec(7, 22.0, 1.0)
        h = realize(transport_hamiltonian(spec))
        psi = StateVector.from_bits([1] + [0] * 6)
        if whole_space:
            psi = random_state(np.random.default_rng(3), 7)
        dt = spec.tau / 200
        grid = evolve(psi, h, dt * np.arange(1, 13), cfg)
        state = psi
        for k, from_grid in enumerate(grid, start=1):
            state = evolve(state, h, dt, cfg)
            alone = evolve(psi, h, k * dt, cfg)
            for other in (state, alone):
                assert np.abs(from_grid - other.amplitudes).max() < 1e-12


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
        spec = ChainSpec(self.N, 22.0, 1.0)
        h = {"transport": transport_hamiltonian,
             "reset": lambda s: multiqubit_reset_hamiltonian(s, 2),
             "xy": lambda s: heisenberg_xy(s.n_spins, s.lam)}[ham](spec)
        h = realize(h)
        psi = StateVector.from_bits([1] + [0] * (self.N - 1))
        if whole_space:
            psi = random_state(np.random.default_rng(5), self.N)
        indices, _ = h.invariant_block(psi.amplitudes)
        assert (indices is None) == whole_space
        if samples == "tau":
            times, step = np.array([spec.tau]), spec.tau
        else:
            step = spec.tau / 200
            times = step * np.arange(1, samples + 1)
        out = evolve(psi, h, times, KRYLOV)
        u = expm(-1j * step * h.matrix.toarray())
        ref = psi.amplitudes
        for row in out:
            ref = u @ ref
            assert np.abs(row - ref).max() < 1e-10

    def test_constant_operator(self):
        # a zero-width interval: the series is its first term alone
        h = Operator(sp.identity(4, dtype=complex, format="csr") * 2.5)
        psi = random_state(np.random.default_rng(0), 2)
        out = evolve(psi, h, [0.3, 1.1], KRYLOV)
        for t, row in zip((0.3, 1.1), out):
            assert np.abs(row - np.exp(-2.5j * t) * psi.amplitudes).max() < 1e-14

    @pytest.mark.parametrize("ham", ["transport", "reset", "xy"])
    def test_scaled_matrix_shares_the_index_arrays(self, ham):
        h = protocol_operators(self.N)[ham]
        form = h.chebyshev_form()
        assert form is h.chebyshev_form()
        # views of the same memory, not copies
        assert np.shares_memory(form.matrix.indices, h.matrix.indices)
        assert np.shares_memory(form.matrix.indptr, h.matrix.indptr)
        lo, hi = h.spectral_interval()
        c, a = (hi + lo) / 2, (hi - lo) / 2
        want = -2j * (h.matrix.toarray() - c * np.eye(h.dimension)) / a
        assert np.abs(form.matrix.toarray() - want).max() < 1e-14

    def test_scaled_matrix_with_missing_diagonal(self):
        # three diagonal entries are not stored and the centre is 1.5:
        # the shift adds them
        dense = np.zeros((4, 4))
        dense[0, 1] = dense[1, 0] = 1.0
        dense[2, 2] = 4.0
        h = Operator(sp.csr_matrix(dense))
        form = h.chebyshev_form()
        assert (form.centre, form.half_width) == (1.5, 2.5)
        assert form.matrix.nnz == 6
        assert np.abs(form.matrix.toarray()
                      - -0.8j * (dense - 1.5 * np.eye(4))).max() < 1e-15
        psi = random_state(np.random.default_rng(4), 2)
        out = evolve(psi, h, 0.9, KRYLOV)
        ref = expm(-0.9j * h.matrix.toarray()) @ psi.amplitudes
        assert np.abs(out.amplitudes - ref).max() < 1e-14

    @pytest.mark.parametrize("whole_space", [False, True])
    def test_alternating_grids_match_a_fresh_operator(self, whole_space):
        # the coefficients are kept for the last grid only: each grid
        # must get its own, not the ones of the grid before
        spec = ChainSpec(self.N, 22.0, 1.0)
        psi = StateVector.from_bits([1] + [0] * (self.N - 1))
        if whole_space:
            psi = random_state(np.random.default_rng(6), self.N)
        dt = spec.tau / 200
        grids = (dt * np.arange(1, 6), 2 * dt * np.arange(1, 6),
                 dt * np.arange(1, 4))
        h = realize(transport_hamiltonian(spec))
        for grid in grids + grids:
            out = evolve(psi, h, grid, KRYLOV)
            fresh = evolve(psi, realize(transport_hamiltonian(spec)), grid,
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
    N = 7

    def inputs(self):
        n = self.N
        one = StateVector.from_bits([1] + [0] * (n - 1))
        two = StateVector.from_bits([1, 1] + [0] * (n - 2))
        mixed = StateVector(n, (one.amplitudes + 1j * two.amplitudes
                                + StateVector.from_bits([0] * n).amplitudes)
                            / np.sqrt(3))
        return {"one": one, "two": two, "mixed": mixed}

    @pytest.mark.parametrize("cfg", METHODS)
    @pytest.mark.parametrize("ham", ["transport", "reset", "xy"])
    @pytest.mark.parametrize("label", ["one", "two", "mixed"])
    def test_restricted_matches_full_space_expm(self, cfg, ham, label):
        h = protocol_operators(self.N)[ham]
        psi = self.inputs()[label]
        ref = expm(-1j * 0.7 * h.matrix.toarray()) @ psi.amplitudes
        out = evolve(psi, h, 0.7, cfg)
        assert np.abs(out.amplitudes - ref).max() < 1e-10

    def test_block_sizes(self):
        n = self.N
        hams = protocol_operators(self.N)
        one = self.inputs()["one"].amplitudes
        indices, block = hams["xy"].invariant_block(one)
        assert block.dimension == n
        assert np.array_equal(indices, [1 << k for k in range(n)])
        _, block = hams["transport"].invariant_block(one)
        assert block.dimension == 2 ** (n - 1)
        dense = random_state(np.random.default_rng(0), n).amplitudes
        indices, block = hams["transport"].invariant_block(dense)
        assert indices is None and block is hams["transport"]

    def test_block_matches_restricted_matrix(self):
        h = protocol_operators(self.N)["transport"]
        indices, block = h.invariant_block(self.inputs()["one"].amplitudes)
        full = h.matrix.toarray()
        assert np.array_equal(block.matrix.toarray(),
                              full[np.ix_(indices, indices)])
        outside = np.setdiff1d(np.arange(h.dimension), indices)
        assert not full[np.ix_(outside, indices)].any()

    @pytest.mark.parametrize("cfg", METHODS)
    def test_support_leaving_the_cache_recomputes(self, cfg):
        h = protocol_operators(self.N)["xy"]
        states = self.inputs()
        _, first = h.invariant_block(states["one"].amplitudes)
        # a support inside the cached set reuses the cached block
        shifted = StateVector.from_bits([0, 1] + [0] * (self.N - 2))
        assert h.invariant_block(shifted.amplitudes)[1] is first
        full = h.matrix.toarray()
        for label in ("two", "mixed", "one"):
            psi = states[label]
            out = evolve(psi, h, 1.3, cfg)
            ref = expm(-1j * 1.3 * full) @ psi.amplitudes
            assert np.abs(out.amplitudes - ref).max() < 1e-10
        _, last = h.invariant_block(states["mixed"].amplitudes)
        assert last.dimension == 1 + self.N + self.N * (self.N - 1) // 2

    @pytest.mark.parametrize("cfg", METHODS)
    @pytest.mark.parametrize("whole_space", [False, True])
    def test_operator_freed_without_cycle_collector(self, cfg, whole_space):
        # the block cache must not refer back to its operator, or the
        # cached eigensystems live until the next collection
        h = realize(transport_hamiltonian(ChainSpec(self.N, 22.0, 1.0)))
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


class TestComponents:
    N = 7

    def hamiltonians(self, layout):
        """Transport and reset on registers ``layout`` = (Alice, wire,
        Bob) spins."""
        spec = ChainSpec(sum(layout), 22.0, 1.0)
        return {"transport": realize(transport_hamiltonian(spec)),
                "reset": realize(multiqubit_reset_hamiltonian(spec,
                                                              layout[-1]))}

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
        one = StateVector.from_bits([1] + [0] * (self.N - 1)).amplitudes
        for ham, h in self.hamiltonians(layout).items():
            # the whole space, and the block of one basis state
            for op in (h, h.invariant_block(one)[1]):
                parts = _components(op.matrix)
                if op is h:
                    assert [p.size for p in parts] == sizes[ham]
                label = np.full(op.dimension, -1)
                for n, indices in enumerate(parts):
                    assert np.array_equal(indices, np.unique(indices))
                    assert (label[indices] == -1).all()  # disjoint
                    label[indices] = n
                assert (label >= 0).all()  # they cover the block
                rows, cols = op.matrix.nonzero()
                assert np.array_equal(label[rows], label[cols])

    @pytest.mark.parametrize("layout", [(2, 3, 2), (1, 5, 1)])
    def test_eigensystem_per_component(self, layout):
        ops = list(self.hamiltonians(layout).values())
        ops.append(self.complex_operator())
        for op in ops:
            full = op.matrix.toarray()
            real = not full.imag.any()
            system = op.eigensystem()
            parts = _components(op.matrix)
            assert len(system) == len(parts)
            for (indices, w, v), want in zip(system, parts):
                assert np.array_equal(indices, want)
                # v is real exactly when H is
                assert np.isrealobj(v) == real
                rebuilt = (v * w) @ v.conj().T
                assert np.abs(rebuilt
                              - full[np.ix_(indices, indices)]).max() < 1e-12
            assert op.eigensystem() is system  # cached

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
        amp = random_state(rng, n).amplitudes
        times = np.array([0.2, 0.9, 3.1])
        rows = _evolve_exact(amp, h, times)
        full = h.matrix.toarray()
        for t, row in zip(times, rows):
            ref = expm(-1j * t * full) @ amp
            assert np.abs(row - ref).max() < 1e-10

    def test_evolve_exact_skips_empty_components(self):
        h = self.hamiltonians((2, 3, 2))["reset"]
        system = h.eigensystem()
        amp = np.zeros(h.dimension, dtype=complex)
        # fill two of the four Bob sectors
        for indices, _, _ in system[1:3]:
            amp[indices] = np.random.default_rng(indices[0]).normal(
                size=indices.size)
        amp /= np.linalg.norm(amp)
        row = _evolve_exact(amp, h, np.array([0.8]))[0]
        ref = expm(-0.8j * h.matrix.toarray()) @ amp
        assert np.abs(row - ref).max() < 1e-10
        for indices, _, _ in (system[0], system[3]):
            assert not row[indices].any()
        # the empty components are never touched
        h._eig = tuple((indices, w, v if k in (1, 2) else v * np.nan)
                       for k, (indices, w, v) in enumerate(system))
        assert np.array_equal(_evolve_exact(amp, h, np.array([0.8]))[0], row)


class TestPropagatorConfig:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            PropagatorConfig(method="magic")


class TestFidelity:
    def test_self_fidelity(self):
        psi = StateVector.from_bits([1, 0])
        assert fidelity(psi, psi) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert fidelity(
            StateVector.from_bits([0]), StateVector.from_bits([1])
        ) == pytest.approx(0.0)

    def test_half_overlap(self):
        plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2))
        assert fidelity(StateVector.from_bits([0]), plus) == pytest.approx(0.5)

    def test_global_phase_insensitive(self):
        psi = StateVector.from_bits([1])
        rotated = StateVector(1, 1j * psi.amplitudes)
        assert fidelity(psi, rotated) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fidelity(StateVector.from_bits([0]), StateVector.from_bits([0, 0]))


class TestSigmaZ:
    def test_flipped_first_site(self):
        psi = StateVector.from_bits([1, 0, 0])
        assert sigma_z_expectation(psi, 1) == pytest.approx(-1.0)

    def test_down_site(self):
        psi = StateVector.from_bits([1, 0, 0])
        assert sigma_z_expectation(psi, 2) == pytest.approx(1.0)

    def test_equal_superposition(self):
        plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2))
        assert sigma_z_expectation(plus, 1) == pytest.approx(0.0)

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            sigma_z_expectation(StateVector.from_bits([0]), 2)
