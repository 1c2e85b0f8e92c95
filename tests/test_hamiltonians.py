import math

import numpy as np
import pytest

from dwtransfer.core import StateVector, basis_index, realize
from dwtransfer.encoding import BoundaryContext, count_domain_walls
from dwtransfer.hamiltonians import (
    ChainSpec,
    coupling_profile,
    energy_offset,
    heisenberg_xy,
    ising_dw,
    multiqubit_reset_hamiltonian,
    reset_hamiltonian,
    transfer_amplitude_closed_form,
    transport_hamiltonian,
)


def spec(N, J, lam=1.0):
    if abs(J) < 8 * lam:
        with pytest.warns(UserWarning):
            return ChainSpec(N, J, lam)
    return ChainSpec(N, J, lam)


def terms_as_set(pauli_sum):
    return {
        (coeff, tuple(sorted(factors.items())))
        for coeff, factors in pauli_sum.terms
    }


class TestCouplingProfile:
    def test_two_site(self):
        t = coupling_profile(2, 2.0)
        assert np.allclose(t, [1.0])

    def test_n13_middle_pair(self):
        t = coupling_profile(13, 1.0)
        assert t[5] == pytest.approx(0.5 * math.sqrt(42))
        assert t[5] == t[6]

    @pytest.mark.parametrize("N", [2, 3, 8, 13, 31, 64])
    def test_mirror_symmetry_bit_exact(self, N):
        t = coupling_profile(N, 0.7)
        assert t.shape == (N - 1,)
        for n in range(1, N):
            assert t[n - 1] == t[N - n - 1]

    def test_all_positive(self):
        assert (coupling_profile(16, 1.0) > 0).all()

    def test_read_only(self):
        t = coupling_profile(5, 1.0)
        with pytest.raises(ValueError):
            t[0] = 0.0

    def test_rejects_short_chain(self):
        with pytest.raises(ValueError):
            coupling_profile(1, 1.0)


class TestChainSpec:
    def test_warns_below_ratio_threshold(self):
        with pytest.warns(UserWarning, match="quadratic"):
            ChainSpec(5, 4.0, 1.0)

    def test_tau(self):
        assert ChainSpec(5, 22.0, 2.0).tau == pytest.approx(math.pi / 2.0)


class TestHeisenbergXY:
    def test_two_site_terms(self):
        # positive hopping: consistent with the closed-form amplitude and
        # the transverse-field convention of the Ising builders
        h = heisenberg_xy(2, 2.0)
        assert terms_as_set(h) == {
            (0.5, ((1, "X"), (2, "X"))),
            (0.5, ((1, "Y"), (2, "Y"))),
        }

    @pytest.mark.parametrize("N", [2, 4, 6, 8])
    def test_commutes_with_total_z(self, N):
        h = realize(heisenberg_xy(N, 1.0)).matrix
        z_terms = tuple((1.0, {n: "Z"}) for n in range(1, N + 1))
        from dwtransfer.core import PauliSum

        z = realize(PauliSum(N, z_terms)).matrix
        comm = (h @ z - z @ h).toarray()
        assert np.abs(comm).max() <= 1e-12

    def test_single_excitation_block_is_sx(self):
        # eigenvalues of the one-excitation block are lam * {-S..S}
        N, lam = 4, 1.3
        h = realize(heisenberg_xy(N, lam)).matrix.toarray()
        idx = [basis_index([1 if j == n else 0 for j in range(N)])
               for n in range(N)]
        block = h[np.ix_(idx, idx)]
        s = (N - 1) / 2
        expected = lam * np.arange(-s, s + 1)
        assert np.allclose(np.sort(np.linalg.eigvalsh(block)), expected)

    def test_hermitian(self):
        realize(heisenberg_xy(6, 1.0))  # realize() enforces Hermiticity


class TestClosedForm:
    @pytest.mark.parametrize("N", [2, 5, 9])
    def test_unit_magnitude_at_tau(self, N):
        amp = transfer_amplitude_closed_form(N, 1.0, math.pi)
        assert abs(amp) == pytest.approx(1.0)

    def test_zero_at_t0(self):
        assert transfer_amplitude_closed_form(4, 1.0, 0.0) == 0.0

    def test_n3_quarter_period(self):
        amp = transfer_amplitude_closed_form(3, 1.0, math.pi / 2)
        assert amp == pytest.approx(-0.5)


class TestIsingDW:
    def test_two_site_terms(self):
        h = ising_dw(spec(2, 9.0, 2.0))
        # t_2 evaluates to zero by the profile formula and is kept
        assert terms_as_set(h) == {
            (1.0, ((1, "X"),)),
            (0.0, ((2, "X"),)),
            (-9.0, ((1, "Z"),)),
            (9.0, ((2, "Z"),)),
            (9.0, ((1, "Z"), (2, "Z"))),
        }

    def test_diagonal_energy_offset(self):
        # the diagonal is J(N+1-2M) where M counts walls including both
        # virtual boundary spins (left up, right down)
        N, J = 5, 7.0
        h = realize(ising_dw(spec(N, J, 1.0))).matrix.toarray()
        ctx = BoundaryContext(left_value=1, right_context=0)
        for idx in range(2**N):
            bits = [(idx >> (N - 1 - s)) & 1 for s in range(N)]
            m = count_domain_walls(bits, ctx)
            assert h[idx, idx].real == pytest.approx(J * (N + 1 - 2 * m))

    def test_spectral_convergence_to_heisenberg_block(self):
        # with growing J/lam the one-wall sector spectrum of the Ising
        # chain approaches the free single-wall hopping spectrum
        N, lam = 6, 1.0
        # the wall hops on N+1 interfaces; bond p is the field t_p on
        # spin p, with t_N = 0 by the profile formula
        bonds = np.concatenate([coupling_profile(N, lam), [0.0]])
        single = np.diag(bonds, 1) + np.diag(bonds, -1)
        ref = np.sort(np.linalg.eigvalsh(single))
        ctx = BoundaryContext(left_value=1, right_context=0)
        sector = [idx for idx in range(2**N)
                  if count_domain_walls(
                      [(idx >> (N - 1 - s)) & 1 for s in range(N)], ctx) == 1]
        dists = []
        for ratio in (10.0, 20.0, 40.0, 80.0):
            J = ratio * lam
            h = realize(ising_dw(ChainSpec(N, J, lam))).matrix.toarray()
            w, v = np.linalg.eigh(h)
            weight = (np.abs(v[sector, :]) ** 2).sum(axis=0)
            pick = np.argsort(weight)[-(N + 1):]
            got = np.sort(w[pick]) - energy_offset(N + 1, 1, J)
            dists.append(np.abs(got - ref).max())
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 0.05


class TestTransportHamiltonian:
    def test_three_site_terms(self):
        t = coupling_profile(3, 1.0)
        h = transport_hamiltonian(ChainSpec(3, 11.0, 1.0))
        assert terms_as_set(h) == {
            (t[0], ((2, "X"),)),
            (t[1], ((3, "X"),)),
            (11.0, ((3, "Z"),)),
            (11.0, ((1, "Z"), (2, "Z"))),
            (11.0, ((2, "Z"), (3, "Z"))),
        }

    def test_no_terms_on_first_spin(self):
        h = transport_hamiltonian(ChainSpec(6, 20.0, 1.0))
        assert all(factors.get(1) != "X" for _, factors in h.terms)

    def test_spin1_polarization_conserved(self):
        from dwtransfer.core import PropagatorConfig, evolve, sigma_z_expectation

        h = realize(transport_hamiltonian(ChainSpec(4, 12.0, 1.0)))
        psi = StateVector.from_bits([1, 0, 1, 0])
        cfg = PropagatorConfig(method="exact-eigendecomposition")
        for t in (0.3, 1.1, 2.9):
            out = evolve(psi, h, t, cfg)
            assert abs(sigma_z_expectation(out, 1) - (-1.0)) < 1e-10

    def test_transfers_wall_to_all_up(self):
        # the single seeded wall travels to the far boundary: the chain
        # ends (almost) fully polarized up, not with the last spin down
        from dwtransfer.core import PropagatorConfig, evolve

        N = 5
        h = realize(transport_hamiltonian(ChainSpec(N, 22.0, 1.0)))
        psi = StateVector.from_bits([1, 0, 0, 0, 0])
        out = evolve(psi, h, math.pi,
                     PropagatorConfig(method="exact-eigendecomposition"))
        all_up = basis_index([1] * N)
        assert abs(out.amplitudes[all_up]) ** 2 > 0.99


class TestResetHamiltonian:
    def test_three_site_terms(self):
        # boundary field +J Z_1 (virtual down spin on the left): the
        # unique sign for which the reset stage mirrors the transport
        # stage and the wire actually resets
        t = coupling_profile(3, 1.0)
        h = reset_hamiltonian(ChainSpec(3, 11.0, 1.0))
        assert terms_as_set(h) == {
            (t[0], ((1, "X"),)),
            (t[1], ((2, "X"),)),
            (11.0, ((1, "Z"),)),
            (11.0, ((1, "Z"), (2, "Z"))),
            (11.0, ((2, "Z"), (3, "Z"))),
        }

    def test_last_spin_polarization_conserved(self):
        from dwtransfer.core import PropagatorConfig, evolve, sigma_z_expectation

        h = realize(reset_hamiltonian(ChainSpec(4, 12.0, 1.0)))
        psi = StateVector.from_bits([0, 1, 0, 1])
        cfg = PropagatorConfig(method="exact-eigendecomposition")
        for t in (0.4, 1.7):
            out = evolve(psi, h, t, cfg)
            assert abs(sigma_z_expectation(out, 4) - (-1.0)) < 1e-10

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
    def test_mirror_of_transport(self, N):
        ht = realize(transport_hamiltonian(ChainSpec(N, 9.0, 1.0)))
        hr = realize(reset_hamiltonian(ChainSpec(N, 9.0, 1.0)))
        perm = np.array([
            basis_index(reversed([(idx >> (N - 1 - s)) & 1
                                  for s in range(N)]))
            for idx in range(2**N)
        ])
        mirrored = ht.matrix.toarray()[np.ix_(perm, perm)]
        assert np.allclose(hr.matrix.toarray(), mirrored, atol=1e-12)


class TestMultiqubitReset:
    def test_bob_register_field_free(self):
        h = multiqubit_reset_hamiltonian(ChainSpec(7, 15.0, 1.0), 2)
        for _, factors in h.terms:
            for site, label in factors.items():
                if label == "X":
                    assert site <= 5

    def test_reduces_to_reset_for_single_bob(self):
        hm = realize(multiqubit_reset_hamiltonian(ChainSpec(5, 9.0, 1.0), 1))
        hr = realize(reset_hamiltonian(ChainSpec(5, 9.0, 1.0)))
        assert np.allclose(hm.matrix.toarray(), hr.matrix.toarray())

    def test_profile_over_effective_length(self):
        h = multiqubit_reset_hamiltonian(ChainSpec(7, 15.0, 1.0), 2)
        t = coupling_profile(6, 1.0)
        x_coeffs = {
            next(iter(factors)): coeff
            for coeff, factors in h.terms
            if list(factors.values()) == ["X"]
        }
        assert x_coeffs == {
            n: pytest.approx(t[n - 1]) for n in range(1, 6)
        }

    def test_registers_must_fit_at_both_ends(self):
        for k in (0, 3):
            with pytest.raises(ValueError, match="registers"):
                multiqubit_reset_hamiltonian(ChainSpec(5, 9.0, 1.0), k)


class TestEnergyOffset:
    def test_direct_value(self):
        assert energy_offset(13, 1, 0.5) == pytest.approx(5.5)

    def test_half_filling_vanishes(self):
        assert energy_offset(10, 5, 3.0) == 0.0

    def test_relative_phase_rate(self):
        J = 0.5
        assert energy_offset(13, 0, J) - energy_offset(13, 1, J) == pytest.approx(2 * J)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            energy_offset(4, 5, 1.0)
