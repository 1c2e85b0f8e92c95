import gc
import math
import weakref

import numpy as np
import pytest
from scipy.linalg import expm

from dwtransfer import protocol
from dwtransfer.core import (
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
    coupling_profile,
    energy_offset,
    heisenberg_xy,
    reset_hamiltonian,
    transfer_amplitude_closed_form,
    transport_hamiltonian,
)
from dwtransfer.protocol import (
    ProtocolConfig,
    _mirror_phase,
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

    def test_same_norm_tolerance_as_every_payload(self):
        # the payload goes through LogicalState's check alone, so a norm
        # off by 1e-7 runs as the renormalized two-amplitude payload
        cfg = single_cfg(5, 22.0, n_time_samples=20, propagator=EXACT)
        alpha, beta = math.sqrt(0.5 + 1e-7), math.sqrt(0.5)
        res = run_single_qubit_transfer(alpha, beta, cfg)
        ref = run_multi_qubit_transfer(
            LogicalState(1, np.array([beta, alpha], dtype=complex)), cfg)
        assert res.final_fidelity == ref.final_fidelity
        assert np.array_equal(res.final_logical.amplitudes,
                              ref.final_logical.amplitudes)
        assert np.array_equal(res.fidelity_corrected, ref.fidelity_corrected)
        with pytest.raises(ValueError, match="not normalized"):
            run_single_qubit_transfer(math.sqrt(0.5 + 1e-3), beta, cfg)

    def test_wireless_chain(self):
        cfg = ProtocolConfig(spec=ChainSpec(2, 22.0, 1.0), n_time_samples=20)
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


class TestMultiQubitTransfer:
    def test_ghz_corrected_beats_uncorrected_peak(self):
        cfg = ProtocolConfig(spec=ChainSpec(9, 22.0, 1.0), n_time_samples=60)
        ghz = LogicalState(3, np.array([S2, 0, 0, 0, 0, 0, 0, S2]))
        res = run_multi_qubit_transfer(ghz, cfg)
        i = int(np.argmax(res.fidelity_corrected[60:])) + 60
        assert res.fidelity_corrected[i] >= res.fidelity_uncorrected[i]

    def test_bell_pair(self):
        cfg = ProtocolConfig(spec=ChainSpec(7, 22.0, 1.0), n_time_samples=60)
        bell = LogicalState(2, np.array([S2, 0, 0, S2]))
        res = run_multi_qubit_transfer(bell, cfg)
        assert res.final_fidelity > 0.95

    def test_product_11_threshold(self):
        cfg = ProtocolConfig(spec=ChainSpec(7, 22.0, 1.0), n_time_samples=60)
        prod = LogicalState(2, np.array([0.0, 0, 0, 1.0]))
        res = run_multi_qubit_transfer(prod, cfg)
        assert res.fidelity_corrected[-1] >= 0.95

    def test_global_rng_untouched(self):
        # byte-identical reruns rely on the fast propagator drawing no
        # random numbers from numpy's global generator
        cfg = ProtocolConfig(spec=ChainSpec(7, 22.0, 1.0))
        bell = LogicalState(2, np.array([S2, 0, 0, S2]))
        before = np.random.get_state()
        run_multi_qubit_transfer(bell, cfg)
        after = np.random.get_state()
        assert np.array_equal(after[1], before[1])
        assert after[2:] == before[2:]

    def test_payload_wider_than_half_the_chain_raises(self):
        # a 3-qubit payload needs registers of 3 spins at both ends
        cfg = ProtocolConfig(spec=ChainSpec(5, 22.0, 1.0), n_time_samples=10)
        ghz = LogicalState(3, np.array([S2, 0, 0, 0, 0, 0, 0, S2]))
        with pytest.raises(ValueError, match="register"):
            run_multi_qubit_transfer(ghz, cfg)

    def test_bob_register_frozen_in_stage2(self):
        cfg = ProtocolConfig(spec=ChainSpec(7, 22.0, 1.0), n_time_samples=40,
                             propagator=EXACT)
        bell = LogicalState(2, np.array([S2, 0, 0, S2]))
        res = run_multi_qubit_transfer(bell, cfg)
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


def _hopping(L, lam):
    """Wall hopping matrix of the engineered profile on L interfaces."""
    t = coupling_profile(L, lam)
    return np.diag(t, 1) + np.diag(t, -1)


def _mirror_propagator(L, lam):
    """Single-wall propagator over one mirror time pi/lam."""
    return expm(-1j * math.pi / lam * _hopping(L, lam))


class TestMirrorPropagator:
    @pytest.mark.parametrize("lam", [1.0, 0.37])
    def test_mirror_time_closed_form(self, lam):
        # at tau = pi/lam every wall lands on its mirror site with the
        # phase (-i)^(L-1) of a spin-(L-1)/2 rotated by pi; m walls
        # reverse their order, the sign of the mirrored block's
        # determinant
        for L in range(2, 40):
            G = _mirror_propagator(L, lam)
            mirror = _mirror_phase(L, 1) * np.eye(L)[::-1]
            assert np.abs(G - mirror).max() <= 1e-12, L
            for m in range(min(4, L) + 1):
                spread = np.linspace(0, L - 1, m).round().astype(int)
                for cols in (np.arange(m), spread):
                    rows = (L - 1 - cols)[::-1]
                    det = np.linalg.det(G[np.ix_(rows, cols)])
                    assert abs(det - _mirror_phase(L, m)) <= 1e-12, (L, m)

    @pytest.mark.parametrize("N, t", [(2, 0.3), (5, 1.7), (9, 0.05),
                                      (13, 2.9), (20, 6.0)])
    def test_matches_expm(self, N, t):
        # the engineered wall hopping is lam S_x of a spin (N-1)/2: its
        # end-to-end element at any time is the XY chain's closed form
        G = expm(-1j * t * _hopping(N, 1.0))
        expected = transfer_amplitude_closed_form(N, 1.0, t)
        assert abs(G[N - 1, 0] - expected) <= 1e-12
        assert abs(G[0, N - 1] - expected) <= 1e-12


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
        # 100 samples per stage: by default two blocks of 40 and one of
        # 20 each, then one block per stage, then one sample per call
        run_cfg = ProtocolConfig(spec=ChainSpec(7, 22.0, 1.0),
                                 n_time_samples=100, propagator=cfg)
        bell = LogicalState(2, np.array([S2, 0, 0, S2]))
        lengths = []

        def counting_evolve(state, h, t, prop):
            lengths.append(np.size(t))
            return evolve(state, h, t, prop)

        monkeypatch.setattr(protocol, "evolve", counting_evolve)
        runs = {}
        for label, rows in (("default", None), ("stage", 100), ("one", 1)):
            if rows is not None:
                monkeypatch.setattr(protocol, "trace_rows", lambda n: rows)
            lengths.clear()
            runs[label] = run_multi_qubit_transfer(bell, run_cfg)
            want = {"default": [40, 40, 20], "stage": [100],
                    "one": [1] * 100}[label]
            assert lengths == want * 2
        for label in ("default", "stage"):
            for name in ("fidelity_corrected", "fidelity_uncorrected",
                         "sigma_z_trace"):
                assert np.abs(getattr(runs[label], name)
                              - getattr(runs["one"], name)).max() < 1e-12
            assert np.abs(runs[label].final_state.amplitudes
                          - runs["one"].final_state.amplitudes).max() < 1e-12

    @pytest.mark.parametrize("n, rows", [(13, 10), (12, 20), (11, 40),
                                         (9, 40), (7, 40), (1, 40),
                                         (16, 1), (30, 1)])
    def test_block_rule(self, n, rows):
        # 10 rows at N = 13 bound the peak RSS of the N = 13 transfer
        assert protocol.trace_rows(n) == rows

    def test_each_stage_operator_released_before_the_next(self):
        spec = ChainSpec(5, 22.0, 1.0)
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
                             stage(reset_hamiltonian)),
                       [], 5, spec.tau, 12, PropagatorConfig())
        finally:
            gc.enable()
        assert len(built) == 2 and built[1]() is None


class TestTraceOverlaps:
    """The traces read the state at the branches' final indices only; the
    reference is the overlap with the whole target vector."""

    @pytest.fixture
    def sampled(self, monkeypatch):
        """The amplitudes of the states ``_trace_run`` samples, in
        order, and the branch table ``_build_branches`` returns."""
        seen = {"states": [], "branches": None}
        build_branches = protocol._build_branches
        trace_run = protocol._trace_run

        def recording_evolve(*args):
            out = evolve(*args)
            seen["states"].extend(out)  # one row per sampled state
            return out

        def recording_build(*args):
            seen["branches"] = build_branches(*args)
            return seen["branches"]

        def recording_trace_run(state, *args):
            seen["states"].append(state.amplitudes)
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
                                              is_corrected), amp)) ** 2
                   for t, amp in zip(times, states)]
            assert np.abs(trace - ref).max() < 1e-14

    def test_multi_branch_payload(self, sampled):
        spec = ChainSpec(7, 22.0, 1.0)
        amp = np.array([0.5, 0.5j, -0.5, 0.5])
        res = run_multi_qubit_transfer(
            LogicalState(2, amp), ProtocolConfig(spec=spec, n_time_samples=25))
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
        N = 2 * k + n_wire
        payload = LogicalState(k, np.full(2**k, 2 ** (-k / 2), dtype=complex))
        branches = protocol._build_branches(payload, ChainSpec(N, 22.0, 1.0))
        perm = protocol._decode_permutation(k)
        assert len(branches) == 2**k
        for idx, br in enumerate(branches):
            b = index_bits(idx, k)
            assert br.final_bits[:N - k] == (0,) * (N - k)
            assert br.final_bits[N - k:] == dw_encode_bits(b[::-1], CTX)
            assert perm[idx] == basis_index(br.final_bits[N - k:])

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_closed_form_matches_stage_by_stage_walls(self, k):
        payload = LogicalState(k, np.full(2**k, 2 ** (-k / 2), dtype=complex))
        for N in range(2 * k, 2 * k + 9):
            spec = ChainSpec(N, 22.0, 0.37)
            branches = protocol._build_branches(payload, spec)
            reference = stage_by_stage_branches(k, spec)
            assert len(branches) == len(reference)
            for br, (initial, final, phase, e1, e2) in zip(branches,
                                                           reference):
                assert br.initial_bits == initial
                assert br.final_bits == final
                assert abs(br.mirror_phase - phase) <= 1e-12, (N, initial)
                assert br.energy_stage1 == e1
                assert br.energy_stage2 == e2


def _walls(seq):
    """1-based interfaces carrying a wall: interface i lies between
    entries i and i + 1 of ``seq``."""
    return {i + 1 for i in range(len(seq) - 1) if seq[i] != seq[i + 1]}


def _spins(n, walls, right):
    """The ``n`` spins whose interfaces carry exactly ``walls``, read
    from a down boundary spin: on the right, with interface p right of
    spin p, or else on the left, with interface p left of spin p."""
    bits, acc = [0] * n, 0
    for p in (range(n, 0, -1) if right else range(1, n + 1)):
        acc ^= p in walls
        bits[p - 1] = acc
    return tuple(bits)


def _slater(L, lam, s_in, s_out):
    """Amplitude of free-fermion walls hopping from ``s_in`` to
    ``s_out`` over one mirror time on ``L`` interfaces."""
    rows = [p - 1 for p in sorted(s_out)]
    cols = [p - 1 for p in sorted(s_in)]
    return np.linalg.det(_mirror_propagator(L, lam)[np.ix_(rows, cols)])


def stage_by_stage_branches(k, spec):
    """Reference branch table: ``(initial, final, mirror phase, stage
    energies)`` per logical index, each stage's walls mirrored as free
    fermions with a Slater determinant of the ``expm`` propagator."""
    N, J, lam = spec.n_spins, spec.j_coupling, spec.lam
    L2 = N - k + 1
    table = []
    for idx in range(2**k):
        chain0 = dw_encode_bits(index_bits(idx, k), CTX) + (0,) * (N - k)
        # stage 1: a virtual down spin right of spin N
        s1 = _walls(chain0 + (0,))
        s1_out = {N + 1 - p for p in s1}
        chain1 = _spins(N, s1_out, right=True)
        # stage 2: a virtual down spin left of spin 1; walls on the
        # first L2 interfaces move, walls inside Bob's register do not
        s2 = _walls((0,) + chain1)
        mobile = {p for p in s2 if p <= L2}
        s2_out = {L2 + 1 - p for p in mobile}
        table.append((
            chain0, _spins(N, s2_out | (s2 - mobile), right=False),
            _slater(N, lam, s1, s1_out) * _slater(L2, lam, mobile, s2_out),
            energy_offset(N, len(s1), J), energy_offset(N, len(s2), J),
        ))
    return table


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

        def recording(psi, k, branches, tau, t_read, corrected):
            seen.append((psi, k, branches, tau, corrected))
            return readout(psi, k, branches, tau, t_read, corrected)

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
        spec = ChainSpec(2 * k + 3, ratio, 1.0)
        payload = LogicalState(k, np.array(amplitudes, dtype=complex))
        res = run_multi_qubit_transfer(payload, ProtocolConfig(
            spec=spec, n_time_samples=20, apply_phase_correction=corrected))
        f = self.assert_match_reference(res, readouts, payload)
        assert f < 1 - 1e-4

    @pytest.mark.parametrize("corrected", [True, False])
    def test_xy_baseline(self, readouts, corrected):
        payload = LogicalState(1, np.array([0.6, 0.8j]))
        res = run_heisenberg_baseline(6, 1.0, payload, ProtocolConfig(
            n_time_samples=20, apply_phase_correction=corrected))
        self.assert_match_reference(res, readouts, payload)
