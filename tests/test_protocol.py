import gc
import math
import weakref

import numpy as np
import pytest
from scipy.linalg import expm

from dwtransfer import protocol
from dwtransfer.core import (
    PauliSum,
    PropagatorConfig,
    StateVector,
    basis_index,
    evolve,
    index_bits,
    realize,
)
from dwtransfer.encoding import (
    BoundaryContext,
    LogicalState,
    count_domain_walls,
    dw_encode_bits,
)
from dwtransfer.hamiltonians import (
    ChainSpec,
    RegisterLayout,
    coupling_profile,
    heisenberg_xy,
    multiqubit_reset_hamiltonian,
    transport_hamiltonian,
)
from dwtransfer.protocol import (
    ProtocolConfig,
    _mirror_propagator,
    _sigma_z_all,
    _trace_run,
    _unit_interval,
    run_heisenberg_baseline,
    run_multi_qubit_transfer,
    run_single_qubit_transfer,
)

EXACT = PropagatorConfig(method="exact-eigendecomposition")
S2 = 1 / math.sqrt(2)
CTX = BoundaryContext(left_value=0, right_context=0)


def single_cfg(N, ratio, lam=1.0, **kw):
    return ProtocolConfig(spec=ChainSpec(N, ratio * lam, lam), **kw)


def logical_one():
    return LogicalState(1, np.array([0.0, 1.0], dtype=complex))


class TestHeisenbergBaseline:
    def test_perfect_transfer_n13(self):
        cfg = ProtocolConfig(n_time_samples=50)
        res = run_heisenberg_baseline(13, 1.0, logical_one(), cfg)
        assert res.final_fidelity >= 1 - 1e-6
        assert res.fidelity_corrected[-1] >= 1 - 1e-6

    def test_vacuum_is_stationary(self):
        cfg = ProtocolConfig(n_time_samples=30)
        vac = LogicalState(1, np.array([1.0, 0.0], dtype=complex))
        res = run_heisenberg_baseline(7, 1.0, vac, cfg)
        assert np.all(res.fidelity_corrected >= 1 - 1e-9)

    def test_trace_matches_closed_form(self):
        N = 5
        cfg = ProtocolConfig(n_time_samples=60, propagator=EXACT)
        res = run_heisenberg_baseline(N, 1.0, logical_one(), cfg)
        expected = np.sin(res.times / 2) ** (2 * (N - 1))
        assert np.allclose(res.fidelity_corrected, expected, atol=1e-8)

    def test_superposition_readout(self):
        cfg = ProtocolConfig(n_time_samples=40)
        sup = LogicalState(1, np.array([S2, S2], dtype=complex))
        res = run_heisenberg_baseline(6, 1.0, sup, cfg)
        assert res.final_fidelity == pytest.approx(1.0, abs=1e-8)

    def test_corrected_equals_uncorrected_for_basis_input(self):
        cfg = ProtocolConfig(n_time_samples=30)
        res = run_heisenberg_baseline(5, 1.0, logical_one(), cfg)
        assert np.allclose(res.fidelity_corrected, res.fidelity_uncorrected)


class TestSingleQubitTransfer:
    def test_basis_one_n13_headline(self):
        cfg = single_cfg(13, 22.007, n_time_samples=100)
        res = run_single_qubit_transfer(1.0, 0.0, cfg)
        assert res.final_fidelity >= 0.99

    def test_vacuum_branch(self):
        cfg = single_cfg(5, 22.0, n_time_samples=30)
        res = run_single_qubit_transfer(0.0, 1.0, cfg)
        assert np.all(res.fidelity_corrected >= 0.99)

    def test_monotone_in_ratio(self):
        values = []
        for ratio in (10.0, 20.0, 40.0):
            if ratio < 8:
                continue
            cfg = single_cfg(5, ratio, n_time_samples=40, propagator=EXACT)
            res = run_single_qubit_transfer(S2, S2, cfg)
            values.append(res.final_fidelity)
        assert values[0] < values[1] < values[2]

    def test_normalization_check(self):
        cfg = single_cfg(5, 22.0)
        with pytest.raises(ValueError):
            run_single_qubit_transfer(1.0, 1.0, cfg)

    def test_wireless_chain(self):
        spec = ChainSpec(2, 22.0, 1.0, RegisterLayout(1, 0, 1))
        cfg = ProtocolConfig(spec=spec, n_time_samples=20)
        res = run_single_qubit_transfer(S2, S2, cfg)
        assert res.final_fidelity > 0.999

    def test_stage_conservation(self):
        # spin 1 is frozen during transport, spin N during reset
        cfg = single_cfg(5, 22.0, n_time_samples=60, propagator=EXACT)
        res = run_single_qubit_transfer(1.0, 0.0, cfg)
        n_samp = cfg.n_time_samples
        stage1 = res.sigma_z_trace[0, : n_samp + 1]
        assert np.abs(stage1 - stage1[0]).max() < 1e-10
        stage2 = res.sigma_z_trace[-1, n_samp:]
        assert np.abs(stage2 - stage2[0]).max() < 1e-10

    def test_linearity(self):
        cfg = single_cfg(5, 22.0, n_time_samples=20, propagator=EXACT)
        alpha, beta = 0.6, 0.8
        full = run_single_qubit_transfer(alpha, beta, cfg).final_state
        one = run_single_qubit_transfer(1.0, 0.0, cfg).final_state
        zero = run_single_qubit_transfer(0.0, 1.0, cfg).final_state
        combo = alpha * one.amplitudes + beta * zero.amplitudes
        assert np.linalg.norm(full.amplitudes - combo) < 1e-8

    def test_determinism(self):
        cfg = single_cfg(5, 22.0, n_time_samples=25)
        a = run_single_qubit_transfer(S2, S2, cfg)
        b = run_single_qubit_transfer(S2, S2, cfg)
        assert np.array_equal(a.fidelity_corrected, b.fidelity_corrected)
        assert np.array_equal(a.final_state.amplitudes, b.final_state.amplitudes)
        assert a.final_fidelity == b.final_fidelity

    @pytest.mark.parametrize("N", [5, 9])
    def test_quadratic_error_suppression(self, N):
        # peak infidelity shrinks roughly 4x when J/lam doubles
        def infidelity(ratio):
            cfg = single_cfg(N, ratio, n_time_samples=60)
            res = run_single_qubit_transfer(1.0, 0.0, cfg)
            return 1.0 - res.peak_fidelity

        e20, e40 = infidelity(20.0), infidelity(40.0)
        assert 2.5 < e20 / e40 < 8.0

    @pytest.mark.parametrize("N", [5, 9])
    def test_leakage_stays_small(self, N):
        # weight outside the two-wall sector at readout is perturbative
        cfg = single_cfg(N, 22.0, n_time_samples=20)
        res = run_single_qubit_transfer(1.0, 0.0, cfg)
        amps = res.final_state.amplitudes
        ctx = BoundaryContext(left_value=0, right_context=0)
        leaked = sum(
            abs(amps[idx]) ** 2
            for idx in range(amps.size)
            if count_domain_walls(
                [(idx >> (N - 1 - s)) & 1 for s in range(N)], ctx) != 2
        )
        assert leaked < 0.01

    def test_pinned_first_spin_variant(self):
        cfg = single_cfg(5, 22.0, n_time_samples=30,
                         pin_first_spin_field=200.0)
        res = run_single_qubit_transfer(S2, S2, cfg)
        assert res.final_fidelity > 0.98

    def test_pinned_transport_is_one_pauli_sum(self, monkeypatch):
        # the pinned transport is realized once; the reference adds the
        # realized t1 X_1 - B Z_1 to the realized field-free transport
        N, B = 5, 200.0
        spec = ChainSpec(N, 22.0, 1.0, RegisterLayout(1, 3, 1))
        monkeypatch.setattr(protocol, "_run",
                            lambda layout, branches, stages, *rest: stages)
        stages = run_multi_qubit_transfer(
            LogicalState(1, np.array([S2, S2])), spec.layout,
            ProtocolConfig(spec=spec, pin_first_spin_field=B))
        t1 = coupling_profile(N, 1.0).t[0]
        former = (realize(transport_hamiltonian(spec)).matrix
                  + realize(PauliSum(N, ((t1, {1: "X"}),
                                         (-B, {1: "Z"})))).matrix)
        assert abs(stages[0]().matrix - former).max() <= 1e-14


class TestMultiQubitTransfer:
    def test_ghz_corrected_beats_uncorrected_peak(self):
        layout = RegisterLayout(3, 3, 3)
        spec = ChainSpec(9, 22.0, 1.0, layout)
        cfg = ProtocolConfig(spec=spec, n_time_samples=60)
        ghz = LogicalState(3, np.array([S2, 0, 0, 0, 0, 0, 0, S2]))
        res = run_multi_qubit_transfer(ghz, layout, cfg)
        i = int(np.argmax(res.fidelity_corrected[60:])) + 60
        assert res.fidelity_corrected[i] >= res.fidelity_uncorrected[i]

    def test_bell_pair(self):
        layout = RegisterLayout(2, 3, 2)
        spec = ChainSpec(7, 22.0, 1.0, layout)
        cfg = ProtocolConfig(spec=spec, n_time_samples=60)
        bell = LogicalState(2, np.array([S2, 0, 0, S2]))
        res = run_multi_qubit_transfer(bell, layout, cfg)
        assert res.final_fidelity > 0.95

    def test_product_11_threshold(self):
        layout = RegisterLayout(2, 3, 2)
        spec = ChainSpec(7, 22.0, 1.0, layout)
        cfg = ProtocolConfig(spec=spec, n_time_samples=60)
        prod = LogicalState(2, np.array([0.0, 0, 0, 1.0]))
        res = run_multi_qubit_transfer(prod, layout, cfg)
        assert res.fidelity_corrected[-1] >= 0.95

    def test_global_rng_untouched(self):
        # byte-identical reruns rely on the fast propagator drawing no
        # random numbers from numpy's global generator
        layout = RegisterLayout(2, 3, 2)
        cfg = ProtocolConfig(spec=ChainSpec(7, 22.0, 1.0, layout))
        bell = LogicalState(2, np.array([S2, 0, 0, S2]))
        before = np.random.get_state()
        run_multi_qubit_transfer(bell, layout, cfg)
        after = np.random.get_state()
        assert np.array_equal(after[1], before[1])
        assert after[2:] == before[2:]

    def test_layout_payload_mismatch(self):
        layout = RegisterLayout(2, 3, 2)
        spec = ChainSpec(7, 22.0, 1.0, layout)
        cfg = ProtocolConfig(spec=spec, n_time_samples=10)
        with pytest.raises(ValueError, match="register"):
            run_multi_qubit_transfer(logical_one(), layout, cfg)

    def test_bob_register_frozen_in_stage2(self):
        layout = RegisterLayout(2, 3, 2)
        spec = ChainSpec(7, 22.0, 1.0, layout)
        cfg = ProtocolConfig(spec=spec, n_time_samples=40, propagator=EXACT)
        bell = LogicalState(2, np.array([S2, 0, 0, S2]))
        res = run_multi_qubit_transfer(bell, layout, cfg)
        n_samp = cfg.n_time_samples
        for site in (6, 7):
            stage2 = res.sigma_z_trace[site - 1, n_samp:]
            assert np.abs(stage2 - stage2[0]).max() < 1e-10

    def test_oscillation_frequency_scales_with_j(self):
        # the uncorrected trace beats at the inter-sector phase rate,
        # which is linear in J
        def dominant_frequency(ratio):
            cfg = single_cfg(5, ratio, n_time_samples=400, propagator=EXACT)
            res = run_single_qubit_transfer(S2, S2, cfg)
            sig = res.fidelity_uncorrected - res.fidelity_uncorrected.mean()
            spectrum = np.abs(np.fft.rfft(sig))
            dt = res.times[1] - res.times[0]
            freqs = np.fft.rfftfreq(sig.size, dt)
            return freqs[np.argmax(spectrum)]

        f10, f20 = dominant_frequency(10.0), dominant_frequency(20.0)
        assert f20 / f10 == pytest.approx(2.0, rel=0.15)


class TestTraceAccess:
    def test_fidelity_trace_accessor(self):
        cfg = single_cfg(5, 22.0, n_time_samples=100)
        res = run_single_qubit_transfer(S2, S2, cfg)
        times = res.times
        assert times.shape == res.fidelity_corrected.shape
        assert times.shape == res.fidelity_uncorrected.shape
        assert np.all(np.diff(times) > 0)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(2 * res.tau)

    def test_fidelities_bounded(self):
        cfg = single_cfg(5, 22.0, n_time_samples=30)
        res = run_single_qubit_transfer(S2, S2, cfg)
        for trace in (res.fidelity_corrected, res.fidelity_uncorrected):
            assert np.all(trace >= 0.0) and np.all(trace <= 1.0)

    def test_peak_near_readout(self):
        cfg = single_cfg(5, 22.0, n_time_samples=100)
        res = run_single_qubit_transfer(1.0, 0.0, cfg)
        assert abs(res.peak_time - 2 * res.tau) <= 0.05 * 2 * res.tau
        assert res.peak_fidelity >= res.fidelity_corrected[-1] - 1e-12


class TestMirrorPropagator:
    @pytest.mark.parametrize("lam", [1.0, 0.37])
    def test_mirror_time_closed_form(self, lam):
        # at tau = pi/lam every wall lands on its mirror site with the
        # phase (-i)^(N-1) of a spin-(N-1)/2 rotated by pi
        for N in range(2, 40):
            G = _mirror_propagator(N, lam, math.pi / lam)
            mirror = (-1j) ** (N - 1) * np.eye(N)[::-1]
            assert np.abs(G - mirror).max() <= 1e-12, N

    @pytest.mark.parametrize("N, t", [(2, 0.3), (5, 1.7), (9, 0.05),
                                      (13, 2.9), (20, 6.0)])
    def test_matches_expm(self, N, t):
        prof = coupling_profile(N, 1.0)
        hop = np.diag(prof.t, 1) + np.diag(prof.t, -1)
        G = _mirror_propagator(N, 1.0, t)
        assert np.abs(G - expm(-1j * t * hop)).max() <= 1e-12


class TestUnitInterval:
    @pytest.mark.parametrize("value, clamped", [
        (0.0, 0.0), (0.25, 0.25), (1.0, 1.0),
        (1.0 + 1e-12, 1.0), (-1e-12, 0.0),
    ])
    def test_round_off_is_clamped(self, value, clamped):
        assert _unit_interval(value, "fidelity") == clamped

    @pytest.mark.parametrize("value", [1.0 + 1e-6, -1e-6, math.nan])
    def test_beyond_round_off_raises(self, value):
        with pytest.raises(RuntimeError, match="fidelity"):
            _unit_interval(value, "fidelity")


def _target_vector(branches, n_spins, t, tau, corrected):
    """Reference: the whole 2^N target of the fidelity traces."""
    tgt = np.zeros(2**n_spins, dtype=complex)
    for br in branches:
        phase = br.phase_at(t, tau) if corrected else 1.0
        tgt[basis_index(br.final_bits)] += br.coefficient * phase
    return tgt


def sigma_z_by_site(amp, n):
    """Reference: one pass per site over the basis indices."""
    idx = np.arange(amp.shape[0])
    probs = np.abs(amp) ** 2
    out = np.empty(n)
    for s in range(1, n + 1):
        z = 1.0 - 2.0 * ((idx >> (n - s)) & 1)
        out[s - 1] = float(np.dot(z, probs))
    return out


class TestTraceRun:
    @pytest.mark.parametrize("n", [1, 2, 5, 13])
    def test_sigma_z_all_matches_site_loop(self, n):
        rng = np.random.default_rng(n)
        amp = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amp /= np.linalg.norm(amp)
        assert np.abs(_sigma_z_all(np.abs(amp) ** 2, n)
                      - sigma_z_by_site(amp, n)).max() < 1e-14

    @pytest.mark.parametrize("n", [1, 5, 13])
    def test_sigma_z_all_rows_match_one_call_per_row(self, n):
        rng = np.random.default_rng(n)
        amp = rng.normal(size=(4, 2**n)) + 1j * rng.normal(size=(4, 2**n))
        probs = np.abs(amp) ** 2
        probs /= probs.sum(axis=1, keepdims=True)
        batch = _sigma_z_all(probs.copy(), n)
        assert batch.shape == (n, 4)
        for j, row in enumerate(probs):
            assert np.abs(batch[:, j] - _sigma_z_all(row, n)).max() < 1e-14

    @pytest.mark.parametrize("cfg", [PropagatorConfig(), EXACT])
    def test_chunks_match_one_call_per_sample(self, monkeypatch, cfg):
        # 25 samples per stage: two full chunks and a short one
        layout = RegisterLayout(2, 3, 2)
        run_cfg = ProtocolConfig(spec=ChainSpec(7, 22.0, 1.0, layout),
                                 n_time_samples=25, propagator=cfg)
        bell = LogicalState(2, np.array([S2, 0, 0, S2]))
        chunked = run_multi_qubit_transfer(bell, layout, run_cfg)
        monkeypatch.setattr(protocol, "TRACE_CHUNK", 1)
        single = run_multi_qubit_transfer(bell, layout, run_cfg)
        for name in ("fidelity_corrected", "fidelity_uncorrected",
                     "sigma_z_trace"):
            assert np.abs(getattr(chunked, name)
                          - getattr(single, name)).max() < 1e-12
        assert np.abs(chunked.final_state.amplitudes
                      - single.final_state.amplitudes).max() < 1e-12

    def test_each_stage_operator_released_before_the_next(self):
        spec = ChainSpec(5, 22.0, 1.0, RegisterLayout(1, 3, 1))
        built = []

        def stage(builder):
            def build():
                assert all(ref() is None for ref in built)
                h = realize(builder(spec))
                built.append(weakref.ref(h))
                return h
            return build

        psi = StateVector.from_bits([1, 0, 0, 0, 0])
        gc.disable()
        try:
            _trace_run(psi, (stage(transport_hamiltonian),
                             stage(multiqubit_reset_hamiltonian)),
                       [], 5, spec.tau, 12, PropagatorConfig())
        finally:
            gc.enable()
        assert len(built) == 2 and built[1]() is None


class TestTraceOverlaps:
    """The traces read the state at the branches' final indices only; the
    reference is the overlap with the whole target vector."""

    @pytest.fixture
    def sampled(self, monkeypatch):
        """The states ``_trace_run`` samples, in order, and the branch
        table ``_build_branches`` returns."""
        seen = {"states": [], "branches": None}
        build_branches = protocol._build_branches
        trace_run = protocol._trace_run

        def recording_evolve(*args):
            out = evolve(*args)
            seen["states"].extend(out)
            return out

        def recording_build(*args):
            seen["branches"] = build_branches(*args)
            return seen["branches"]

        def recording_trace_run(state, *args):
            seen["states"].append(state)
            return trace_run(state, *args)

        monkeypatch.setattr(protocol, "evolve", recording_evolve)
        monkeypatch.setattr(protocol, "_build_branches", recording_build)
        monkeypatch.setattr(protocol, "_trace_run", recording_trace_run)
        return seen

    @staticmethod
    def assert_match_reference(times, corrected, uncorrected, states,
                               branches, n, tau):
        assert len(states) == times.size
        for trace, is_corrected in ((corrected, True), (uncorrected, False)):
            ref = [abs(np.vdot(_target_vector(branches, n, t, tau,
                                              is_corrected),
                               psi.amplitudes)) ** 2
                   for t, psi in zip(times, states)]
            assert np.abs(trace - ref).max() < 1e-14

    def test_multi_branch_payload(self, sampled):
        layout = RegisterLayout(2, 3, 2)
        spec = ChainSpec(7, 22.0, 1.0, layout)
        amp = np.array([0.5, 0.5j, -0.5, 0.5])
        res = run_multi_qubit_transfer(
            LogicalState(2, amp), layout,
            ProtocolConfig(spec=spec, n_time_samples=25))
        assert len(sampled["branches"]) == 4
        self.assert_match_reference(
            res.times, res.fidelity_corrected, res.fidelity_uncorrected,
            sampled["states"], sampled["branches"], 7, spec.tau)

    def test_empty_branch_baseline(self, sampled):
        n, tau = 5, math.pi
        psi = StateVector.from_bits([1] + [0] * (n - 1))
        times, corrected, uncorrected, _, _ = protocol._trace_run(
            psi, (lambda: realize(heisenberg_xy(n, 1.0)),), [], n, tau, 12,
            PropagatorConfig())
        assert not corrected.any() and not uncorrected.any()
        self.assert_match_reference(times, corrected, uncorrected,
                                    sampled["states"], [], n, tau)


class TestBranchTable:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n_wire", range(7))
    def test_final_pattern_is_bobs_codec_pattern(self, k, n_wire):
        # every branch ends all down outside Bob's register, on the codec
        # pattern of its mirrored logical bits, which decodes back to them
        layout = RegisterLayout(k, n_wire, k)
        N = layout.total
        payload = LogicalState(k, np.full(2**k, 2 ** (-k / 2), dtype=complex))
        branches = protocol._build_branches(
            payload, layout, ChainSpec(N, 22.0, 1.0, layout))
        perm = protocol._decode_permutation(k)
        assert len(branches) == 2**k
        for idx, br in enumerate(branches):
            b = index_bits(idx, k)
            assert br.final_bits[:N - k] == (0,) * (N - k)
            assert br.final_bits[N - k:] == dw_encode_bits(b[::-1], CTX)
            assert perm[idx] == basis_index(br.final_bits[N - k:])


def readout_by_density_matrix(psi, k, branches, tau, logical_in, corrected):
    """Reference: the decoded state and ``<psi_in|rho_logical|psi_in>``
    from Bob's reduced density matrix, each logical index re-encoded to
    find its Bob pattern and its branch, phases taken at ``2 tau``."""
    rest = psi.n_spins - k
    M = psi.amplitudes.reshape(2**rest, 2**k)
    rho = M.T @ M.conj()
    perm = np.empty(2**k, dtype=int)
    V = np.ones(2**k, dtype=complex)
    by_initial = {br.initial_bits: br for br in branches}
    for idx in range(2**k):
        b = index_bits(idx, k)
        phys = basis_index(dw_encode_bits(b[::-1], CTX))
        perm[phys] = idx
        br = by_initial.get(dw_encode_bits(b, CTX) + (0,) * rest)
        if corrected and br is not None:
            V[phys] = np.conj(br.phase_at(2 * tau, tau))
    rho = (V[:, None] * rho) * np.conj(V)[None, :]
    rho_logical = np.empty_like(rho)
    rho_logical[np.ix_(perm, perm)] = rho
    amp = logical_in.amplitudes
    logical_vec = np.zeros(2**k, dtype=complex)
    logical_vec[perm] = V * M[0]
    return (logical_vec / np.linalg.norm(logical_vec),
            float(np.real(amp.conj() @ rho_logical @ amp)))


class TestReadout:
    """The readout builds Bob's target from the branch table; the
    reference is the density-matrix readout."""

    @pytest.fixture
    def readouts(self, monkeypatch):
        """The arguments of every ``_readout`` call."""
        seen = []
        readout = protocol._readout

        def recording(psi, layout, branches, tau, t_read, corrected):
            seen.append((psi, layout.n_bob, branches, tau, corrected))
            return readout(psi, layout, branches, tau, t_read, corrected)

        monkeypatch.setattr(protocol, "_readout", recording)
        return seen

    @staticmethod
    def assert_match_reference(res, readouts, logical_in):
        (psi, k, branches, tau, corrected), = readouts
        vec, f = readout_by_density_matrix(psi, k, branches, tau,
                                           logical_in, corrected)
        assert abs(res.final_fidelity - f) < 1e-14
        assert np.abs(res.final_logical.amplitudes - vec).max() < 1e-14
        return f

    # at an integral J/lambda every sector phase is trivial at t = tau
    # and 2 tau; J/lambda = 8.5 makes the stage-2 phases count
    @pytest.mark.parametrize("ratio", [8.0, 8.5])
    @pytest.mark.parametrize("corrected", [True, False])
    @pytest.mark.parametrize("k, amplitudes", [
        (1, [0.6, 0.8j]),
        (2, [0.5, 0.5j, -0.5, 0.5]),
        (3, [0, 0.5, 0.5j, 0, -0.5, 0, 0, 0.5]),
    ])
    def test_leaky_transfer(self, readouts, ratio, corrected, k,
                            amplitudes):
        layout = RegisterLayout(k, 3, k)
        spec = ChainSpec(layout.total, ratio, 1.0, layout)
        payload = LogicalState(k, np.array(amplitudes, dtype=complex))
        res = run_multi_qubit_transfer(payload, layout, ProtocolConfig(
            spec=spec, n_time_samples=20, apply_phase_correction=corrected))
        f = self.assert_match_reference(res, readouts, payload)
        assert f < 1 - 1e-4

    @pytest.mark.parametrize("corrected", [True, False])
    def test_xy_baseline(self, readouts, corrected):
        payload = LogicalState(1, np.array([0.6, 0.8j]))
        res = run_heisenberg_baseline(6, 1.0, payload, ProtocolConfig(
            n_time_samples=20, apply_phase_correction=corrected))
        self.assert_match_reference(res, readouts, payload)
