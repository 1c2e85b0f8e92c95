import contextlib
import functools
import gc
import json
import math
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from dwtransfer import cli, fermions, protocol
from dwtransfer.core import (
    MajoranaOperator,
    PropagatorConfig,
    basis_index,
    evolve,
    index_bits,
    realize,
)
from dwtransfer.encoding import LogicalState, dw_encode_bits
from dwtransfer.hamiltonians import (
    coupling_profile,
    energy_offset,
    heisenberg_xy,
    multiqubit_reset_hamiltonian,
    transfer_amplitude_closed_form,
    transport_hamiltonian,
    wall_conserving,
)
from dwtransfer.protocol import (
    Baseline,
    Transfer,
    _mirror_phase,
    _sigma_z_all,
    _trace_run,
    _unit_interval,
    run_heisenberg_baseline,
    run_multi_qubit_transfer,
    run_single_qubit_transfer,
)
import random_manifests
import readout_row
import series_vs_fermions
from references import basis_state, count_domain_walls

EXACT = PropagatorConfig(method="exact-eigendecomposition")
S2 = 1 / math.sqrt(2)


def single(N, ratio, lam=1.0, **kw):
    """The fields of a single-qubit transfer other than its state."""
    return dict(n_spins=N, lam=lam, j_coupling=ratio * lam, **kw)


def logical_one():
    return LogicalState(1, np.array([0.0, 1.0], dtype=complex))


def payload_of_width(k):
    """The k-qubit basis payload |1...1>."""
    return LogicalState(k, np.eye(2**k, dtype=complex)[-1])


def record_final_states(monkeypatch):
    """The amplitudes of every final chain state the state-vector
    readout decodes, in order."""
    seen = []
    readout = protocol._Amplitudes.readout

    def recording(path, psi, *args):
        seen.append(psi * path.scale)
        return readout(path, psi, *args)

    monkeypatch.setattr(protocol._Amplitudes, "readout", recording)
    return seen


class TestRunRecords:
    """``Transfer`` and ``Baseline`` check their own fields when built,
    before any run forms tau = pi/lam; each message names the field."""

    @pytest.mark.parametrize("record", ["transfer", "baseline"])
    @pytest.mark.parametrize("field, value", [
        ("n_spins", 1), ("n_spins", -3), ("lam", 0.0), ("lam", -1.0),
        ("lam", math.nan), ("n_time_samples", 1), ("n_time_samples", -5),
    ])
    def test_rejects_bad_field(self, record, field, value):
        fields = {"n_spins": 5, "lam": 1.0, "state": logical_one(),
                  field: value}
        with pytest.raises(ValueError, match=f"'{field}'"):
            if record == "transfer":
                Transfer(j_coupling=22.0, **fields)
            else:
                Baseline(**fields)

    def test_baseline_takes_one_qubit(self):
        bell = LogicalState(2, np.array([S2, 0, 0, S2]))
        with pytest.raises(ValueError, match="'state'"):
            Baseline(5, 1.0, bell)

    def test_warns_below_ratio_threshold(self):
        with pytest.warns(UserWarning, match="quadratic"):
            Transfer(5, 1.0, 4.0, logical_one())

    def test_tau(self):
        res = run_single_qubit_transfer(
            1.0, 0.0, **single(5, 22.0, lam=2.0, n_time_samples=10))
        assert res.tau == pytest.approx(math.pi / 2.0)
        res = run_heisenberg_baseline(
            Baseline(5, 2.0, logical_one(), n_time_samples=10))
        assert res.tau == pytest.approx(math.pi / 2.0)


class TestHeisenbergBaseline:
    def test_perfect_transfer_n13(self):
        res = run_heisenberg_baseline(
            Baseline(13, 1.0, logical_one(), n_time_samples=50))
        assert res.final_fidelity >= 1 - 1e-6
        assert res.fidelity_corrected[-1] >= 1 - 1e-6

    def test_vacuum_is_stationary(self):
        vac = LogicalState(1, np.array([1.0, 0.0], dtype=complex))
        res = run_heisenberg_baseline(Baseline(7, 1.0, vac, n_time_samples=30))
        assert np.all(res.fidelity_corrected >= 1 - 1e-9)

    def test_trace_matches_closed_form(self):
        N = 5
        res = run_heisenberg_baseline(Baseline(
            N, 1.0, logical_one(), n_time_samples=60, propagator=EXACT))
        expected = np.sin(res.times / 2) ** (2 * (N - 1))
        assert np.allclose(res.fidelity_corrected, expected, atol=1e-8)

    def test_superposition_readout(self):
        sup = LogicalState(1, np.array([S2, S2], dtype=complex))
        res = run_heisenberg_baseline(Baseline(6, 1.0, sup, n_time_samples=40))
        assert res.final_fidelity == pytest.approx(1.0, abs=1e-8)

    def test_corrected_equals_uncorrected_for_basis_input(self):
        res = run_heisenberg_baseline(
            Baseline(5, 1.0, logical_one(), n_time_samples=30))
        assert np.allclose(res.fidelity_corrected, res.fidelity_uncorrected)

    @pytest.mark.parametrize("N", [2, 3, 5, 13])
    @pytest.mark.parametrize("amplitudes", [
        [0, 1], [1, 0], [0.6, 0.8j], [np.exp(0.3j) * S2, S2]])
    def test_free_fermions_match_the_dense_path(self, N, amplitudes):
        # |1>, |0>, 0.6|0> + 0.8i|1> and (e^0.3i |0> + |1>)/sqrt 2 on
        # wall fermions and on the 2^N amplitudes
        payload = LogicalState(1, np.array(amplitudes, dtype=complex))
        runs = [run_heisenberg_baseline(Baseline(
            N, 1.0, payload, n_time_samples=40,
            propagator=PropagatorConfig(method))) for method in (
                "krylov", "exact-eigendecomposition")]
        for name in ("times", "fidelity_corrected", "fidelity_uncorrected",
                     "sigma_z_trace", "final_fidelity", "peak_fidelity"):
            assert np.abs(getattr(runs[0], name)
                          - getattr(runs[1], name)).max() <= 1e-12, name
        assert np.abs(runs[0].final_logical.amplitudes
                      - runs[1].final_logical.amplitudes).max() <= 1e-12
        assert runs[0].phases == runs[1].phases

    @pytest.mark.parametrize("N", [5, 9, 14])
    def test_flat_vacuum_peaks_at_the_readout_time(self, N):
        # the vacuum's corrected trace is 1 within round-off on wall
        # fermions and exactly 1 on the 2^N amplitudes, so both paths
        # read the window's latest sample, the readout time.  argmax
        # read the first sample on the dense path and whichever sample
        # round-off put highest on wall fermions: 2.332 at N = 5, 2.368
        # at N = 9 and 2.405 at N = 14
        vac = LogicalState(1, np.array([1.0, 0.0], dtype=complex))
        for method in ("krylov", "exact-eigendecomposition"):
            res = run_heisenberg_baseline(Baseline(
                N, 1.3, vac, propagator=PropagatorConfig(method)))
            assert res.peak_time == res.times[-1] == math.pi / 1.3, method

    @staticmethod
    def assert_closed_form(N):
        # beyond any state vector: the uncorrected trace of |1> and the
        # sigma_z of spin N follow |[-i sin(t/2)]^(N-1)|^2
        res = run_heisenberg_baseline(
            Baseline(N, 1.0, logical_one(), n_time_samples=40))
        arrived = np.array([abs(transfer_amplitude_closed_form(N, 1.0, t))
                            ** 2 for t in res.times])
        assert np.abs(res.fidelity_uncorrected - arrived).max() <= 1e-11
        assert np.abs(res.sigma_z_trace[N - 1]
                      - (1 - 2 * arrived)).max() <= 1e-11

    def test_closed_form_at_n101(self):
        self.assert_closed_form(101)

    def test_closed_form_at_n200(self):
        # the longest chain free fermions accept (ROADMAP item 18)
        self.assert_closed_form(200)


class TestSingleQubitTransfer:
    def test_basis_one_n13_headline(self):
        res = run_single_qubit_transfer(
            1.0, 0.0, **single(13, 22.007, n_time_samples=100))
        assert res.final_fidelity >= 0.99

    def test_vacuum_branch(self):
        res = run_single_qubit_transfer(
            0.0, 1.0, **single(5, 22.0, n_time_samples=30))
        assert np.all(res.fidelity_corrected >= 0.99)

    def test_monotone_in_ratio(self):
        values = []
        for ratio in (10.0, 20.0, 40.0):
            if ratio < 8:
                continue
            res = run_single_qubit_transfer(S2, S2, **single(
                5, ratio, n_time_samples=40, propagator=EXACT))
            values.append(res.final_fidelity)
        assert values[0] < values[1] < values[2]

    def test_normalization_check(self):
        with pytest.raises(ValueError):
            run_single_qubit_transfer(1.0, 1.0, **single(5, 22.0))

    def test_same_norm_tolerance_as_every_payload(self):
        # the payload goes through LogicalState's check alone, so a norm
        # off by 1e-7 runs as the renormalized two-amplitude payload
        fields = single(5, 22.0, n_time_samples=20, propagator=EXACT)
        alpha, beta = math.sqrt(0.5 + 1e-7), math.sqrt(0.5)
        res = run_single_qubit_transfer(alpha, beta, **fields)
        ref = run_multi_qubit_transfer(Transfer(
            state=LogicalState(1, np.array([beta, alpha], dtype=complex)),
            **fields))
        assert res.final_fidelity == ref.final_fidelity
        assert np.array_equal(res.final_logical.amplitudes,
                              ref.final_logical.amplitudes)
        assert np.array_equal(res.fidelity_corrected, ref.fidelity_corrected)
        with pytest.raises(ValueError, match="not normalized"):
            run_single_qubit_transfer(math.sqrt(0.5 + 1e-3), beta, **fields)

    def test_wireless_chain(self):
        res = run_single_qubit_transfer(
            S2, S2, **single(2, 22.0, n_time_samples=20))
        assert res.final_fidelity > 0.999

    def test_stage_conservation(self):
        # spin 1 is frozen during transport, spin N during reset
        n_samp = 60
        res = run_single_qubit_transfer(1.0, 0.0, **single(
            5, 22.0, n_time_samples=n_samp, propagator=EXACT))
        stage1 = res.sigma_z_trace[0, : n_samp + 1]
        assert np.abs(stage1 - stage1[0]).max() < 1e-10
        stage2 = res.sigma_z_trace[-1, n_samp:]
        assert np.abs(stage2 - stage2[0]).max() < 1e-10

    def test_linearity(self, monkeypatch):
        fields = single(5, 22.0, n_time_samples=20, propagator=EXACT)
        alpha, beta = 0.6, 0.8
        finals = record_final_states(monkeypatch)
        run_single_qubit_transfer(alpha, beta, **fields)
        run_single_qubit_transfer(1.0, 0.0, **fields)
        run_single_qubit_transfer(0.0, 1.0, **fields)
        full, one, zero = finals
        combo = alpha * one + beta * zero
        assert np.linalg.norm(full - combo) < 1e-8

    def test_determinism(self):
        # on free fermions, the default path of this payload
        fields = single(5, 22.0, n_time_samples=25)
        a = run_single_qubit_transfer(S2, S2, **fields)
        b = run_single_qubit_transfer(S2, S2, **fields)
        assert np.array_equal(a.fidelity_corrected, b.fidelity_corrected)
        assert np.array_equal(a.sigma_z_trace, b.sigma_z_trace)
        assert np.array_equal(a.final_logical.amplitudes,
                              b.final_logical.amplitudes)
        assert a.final_fidelity == b.final_fidelity

    @pytest.mark.parametrize("N", [5, 9])
    def test_quadratic_error_suppression(self, N):
        # peak infidelity shrinks roughly 4x when J/lam doubles
        def infidelity(ratio):
            res = run_single_qubit_transfer(
                1.0, 0.0, **single(N, ratio, n_time_samples=60))
            return 1.0 - res.peak_fidelity

        e20, e40 = infidelity(20.0), infidelity(40.0)
        assert 2.5 < e20 / e40 < 8.0

    @pytest.mark.parametrize("N", [5, 9])
    def test_leakage_stays_small(self, N, monkeypatch):
        # weight outside the two-wall sector at readout is perturbative
        finals = record_final_states(monkeypatch)
        run_single_qubit_transfer(
            1.0, 0.0, **single(N, 22.0, n_time_samples=20, propagator=EXACT))
        amps, = finals
        leaked = sum(
            abs(amps[idx]) ** 2
            for idx in range(amps.size)
            if count_domain_walls(
                [(idx >> (N - 1 - s)) & 1 for s in range(N)]) != 2
        )
        assert leaked < 0.01


class TestMultiQubitTransfer:
    def test_ghz_corrected_beats_uncorrected_peak(self):
        ghz = LogicalState(3, np.array([S2, 0, 0, 0, 0, 0, 0, S2]))
        res = run_multi_qubit_transfer(
            Transfer(9, 1.0, 22.0, ghz, n_time_samples=60))
        i = int(np.argmax(res.fidelity_corrected[60:])) + 60
        assert res.fidelity_corrected[i] >= res.fidelity_uncorrected[i]

    def test_bell_pair(self):
        bell = LogicalState(2, np.array([S2, 0, 0, S2]))
        res = run_multi_qubit_transfer(
            Transfer(7, 1.0, 22.0, bell, n_time_samples=60))
        assert res.final_fidelity > 0.95

    def test_product_11_threshold(self):
        prod = LogicalState(2, np.array([0.0, 0, 0, 1.0]))
        res = run_multi_qubit_transfer(
            Transfer(7, 1.0, 22.0, prod, n_time_samples=60))
        assert res.fidelity_corrected[-1] >= 0.95

    def test_global_rng_untouched(self):
        # byte-identical reruns rely on the fast propagator drawing no
        # random numbers from numpy's global generator
        bell = LogicalState(2, np.array([S2, 0, 0, S2]))
        before = np.random.get_state()
        run_multi_qubit_transfer(Transfer(7, 1.0, 22.0, bell))
        after = np.random.get_state()
        assert np.array_equal(after[1], before[1])
        assert after[2:] == before[2:]

    def test_payload_wider_than_half_the_chain_raises(self):
        # a 3-qubit payload needs registers of 3 spins at both ends
        ghz = LogicalState(3, np.array([S2, 0, 0, 0, 0, 0, 0, S2]))
        with pytest.raises(ValueError, match="'state'.*register"):
            Transfer(5, 1.0, 22.0, ghz, n_time_samples=10)

    @pytest.mark.parametrize("j_coupling", [0.0, 1e-8])
    def test_empty_register_names_j_and_lam(self, j_coupling):
        # at J/lam near 0 the readout finds no weight on Bob's register
        with pytest.warns(UserWarning, match="quadratic"):
            run = Transfer(5, 1.0, j_coupling, logical_one(),
                           n_time_samples=20)
        with pytest.raises(ValueError, match="'j_coupling' and 'lam'.*J/lam"):
            run_multi_qubit_transfer(run)

    def test_bob_register_frozen_in_stage2(self):
        n_samp = 40
        bell = LogicalState(2, np.array([S2, 0, 0, S2]))
        res = run_multi_qubit_transfer(Transfer(
            7, 1.0, 22.0, bell, n_time_samples=n_samp, propagator=EXACT))
        for site in (6, 7):
            stage2 = res.sigma_z_trace[site - 1, n_samp:]
            assert np.abs(stage2 - stage2[0]).max() < 1e-10

    def test_oscillation_frequency_scales_with_j(self):
        # the uncorrected trace beats at the inter-sector phase rate,
        # which is linear in J
        def dominant_frequency(ratio):
            res = run_single_qubit_transfer(S2, S2, **single(
                5, ratio, n_time_samples=400, propagator=EXACT))
            sig = res.fidelity_uncorrected - res.fidelity_uncorrected.mean()
            spectrum = np.abs(np.fft.rfft(sig))
            dt = res.times[1] - res.times[0]
            freqs = np.fft.rfftfreq(sig.size, dt)
            return freqs[np.argmax(spectrum)]

        f10, f20 = dominant_frequency(10.0), dominant_frequency(20.0)
        assert f20 / f10 == pytest.approx(2.0, rel=0.15)


GHZ = LogicalState(3, np.array([S2, 0, 0, 0, 0, 0, 0, S2]))
# (payload, N, propagator, whether it runs on free fermions)
RESCALED = {
    "fermions-one": (logical_one(), 13, PropagatorConfig(), True),
    "fermions-bell": (LogicalState(2, np.array([S2, 0, 0, S2])), 7,
                      PropagatorConfig(), True),
    "dense-ghz": (GHZ, 7, EXACT, False),
    "chebyshev-ghz": (GHZ, 7, PropagatorConfig(), False),
}


class TestRescaling:
    """Only J/lam and lam t enter the physics (ROADMAP item 13): J and
    lam scaled together by s leave every fidelity, sigma_z and the
    decoded payload as they are, and divide the times by s.  The
    tolerance, 1e-12, was stated before measuring."""

    @pytest.mark.parametrize("s", [0.37, 8.0])
    @pytest.mark.parametrize("path", sorted(RESCALED))
    def test_scaling_j_and_lam_together(self, path, s):
        state, n, cfg, fermionic = RESCALED[path]
        runs = [Transfer(n, lam, 22.007 * lam, state, n_time_samples=50,
                         propagator=cfg) for lam in (1.0, s)]
        assert issubclass(protocol.path_class(runs[0]),
                          protocol._Covariances) is fermionic
        base, scaled = (run_multi_qubit_transfer(run) for run in runs)
        for name in ("fidelity_corrected", "fidelity_uncorrected",
                     "sigma_z_trace"):
            assert np.abs(getattr(scaled, name)
                          - getattr(base, name)).max() <= 1e-12, name
        for name in ("final_fidelity", "peak_fidelity"):
            assert abs(getattr(scaled, name)
                       - getattr(base, name)) <= 1e-12, name
        assert np.abs(scaled.final_logical.amplitudes
                      - base.final_logical.amplitudes).max() <= 1e-12
        assert np.abs(scaled.times * s - base.times).max() <= 1e-12
        assert abs(scaled.peak_time * s - base.peak_time) <= 1e-12


MANIFESTS = Path(__file__).resolve().parents[1] / "manifests"
GAUSSIAN_BUNDLED = ["single_qubit_n13", "bell_pair_2x3x2", "product_11_2x3x2",
                    "superposition_c2_2x3x2", "w_state_3x3x3",
                    "cluster3_3x3x3"]


def bundled_transfer(name, ratio=None, **fields):
    """The bundled transfer ``name`` with J/lam ``ratio`` (None: its
    own) and ``fields`` replaced."""
    run = cli._load(Transfer, json.loads(
        (MANIFESTS / f"{name}.json").read_text()))
    if ratio is not None:
        fields["j_coupling"] = ratio * run.lam
    with (pytest.warns(UserWarning, match="quadratic")
          if ratio is not None and ratio < protocol.RATIO_WARN_THRESHOLD
          else contextlib.nullcontext()):
        return replace(run, **fields)


def wall_conserving_run(path_type, run):
    """``run`` along ``path_type`` in the domain-wall limit: each stage
    as ``wall_conserving`` projects it."""
    path = path_type(run, protocol._build_branches(run))
    stages = tuple(map(wall_conserving, protocol.transfer_stages(run)))
    return protocol._run(path, stages)


class TestDomainWallLimit:
    """The domain-wall limit (ROADMAP item 13): without pair creation
    the walls hop on the perfect-transfer profile alone, so every
    payload arrives whole at any J/lam.  That holds the codec, the
    branch table, the mirror and sector phases, the traces and the
    readout together, on free fermions and on the state vector.  One
    wall alone hops as the XY chain's excitation does, so its amplitude
    meets the closed form.  The tolerances, 1e-12, were stated before
    measuring."""

    @pytest.mark.parametrize("ratio", [None, 4.0, 50.0])  # None: bundled
    @pytest.mark.parametrize("name", GAUSSIAN_BUNDLED)
    def test_bundled_payload_arrives_whole(self, name, ratio):
        run = bundled_transfer(name, ratio)
        assert issubclass(protocol.path_class(run), protocol._Covariances)
        res = wall_conserving_run(protocol._Covariances, run)
        assert 1 - res.final_fidelity <= 1e-12
        assert 1 - res.peak_fidelity <= 1e-12

    # every bundled transfer payload, |1> at N = 9 in place of 13
    @pytest.mark.parametrize("method", ["krylov", "exact-eigendecomposition"])
    @pytest.mark.parametrize("ratio", [None, 4.0, 50.0])
    @pytest.mark.parametrize("name", GAUSSIAN_BUNDLED + ["ghz_3x3x3"])
    def test_bundled_payload_arrives_whole_on_the_state_vector(
            self, name, ratio, method):
        n_spins = {"n_spins": 9} if name == "single_qubit_n13" else {}
        run = bundled_transfer(name, ratio, n_time_samples=40,
                               propagator=PropagatorConfig(method), **n_spins)
        assert run.n_spins <= 9
        res = wall_conserving_run(protocol._Amplitudes, run)
        assert 1 - res.final_fidelity <= 1e-12
        assert 1 - res.peak_fidelity <= 1e-12

    @staticmethod
    def single_wall(N, lam):
        """The stage that carries one wall from interface 1 to N: spin 1
        up, then all up."""
        start = fermions.walls((1,) + (0,) * (N - 1))
        return (wall_conserving(transport_hamiltonian(N, 22.007, lam)),
                start, fermions.walls((1,) * N))

    LAM = 0.7
    TIMES = (math.pi + np.array([-1.0, -0.3, -0.1, 0.0, 0.2])) / LAM

    @pytest.mark.parametrize("N", [5, 13])
    def test_single_wall_meets_the_closed_form_on_the_dense_path(self, N):
        p, _, _ = self.single_wall(N, self.LAM)
        rows = evolve(basis_state((1,) + (0,) * (N - 1)), realize(p),
                      self.TIMES, EXACT)
        for t, row in zip(self.TIMES, rows, strict=True):
            want = abs(transfer_amplitude_closed_form(N, self.LAM, t))
            assert abs(abs(row[-1]) - want) <= 1e-12

    @pytest.mark.parametrize("N", [5, 13, 101, 200])
    def test_single_wall_meets_the_closed_form_on_free_fermions(self, N):
        p, start, end = self.single_wall(N, self.LAM)
        h = realize(p, majorana=True)
        for t in self.TIMES:
            (got,), = fermions.amplitudes([h], t, [end], [start])
            want = abs(transfer_amplitude_closed_form(N, self.LAM, t))
            assert abs(abs(got) - want) <= 1e-12


class TestTraceAccess:
    def test_fidelity_trace_accessor(self):
        res = run_single_qubit_transfer(
            S2, S2, **single(5, 22.0, n_time_samples=100))
        times = res.times
        assert times.shape == res.fidelity_corrected.shape
        assert times.shape == res.fidelity_uncorrected.shape
        assert np.all(np.diff(times) > 0)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(2 * res.tau)

    def test_fidelities_bounded(self):
        res = run_single_qubit_transfer(
            S2, S2, **single(5, 22.0, n_time_samples=30))
        for trace in (res.fidelity_corrected, res.fidelity_uncorrected):
            assert np.all(trace >= 0.0) and np.all(trace <= 1.0)

    def test_peak_near_readout(self):
        res = run_single_qubit_transfer(
            1.0, 0.0, **single(5, 22.0, n_time_samples=100))
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
        tgt[br.bob] += br.coefficient * phase  # the rest all down
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
        # 20 each, then one block per stage, then one sample per call;
        # GHZ is not Gaussian, so it stays on the state vector
        ghz = LogicalState(3, np.array([S2, 0, 0, 0, 0, 0, 0, S2]))
        run = Transfer(7, 1.0, 22.0, ghz, n_time_samples=100,
                       propagator=cfg)
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
            runs[label] = run_multi_qubit_transfer(run)
            want = {"default": [40, 40, 20], "stage": [100],
                    "one": [1] * 100}[label]
            assert lengths == want * 2
        for label in ("default", "stage"):
            for name in ("fidelity_corrected", "fidelity_uncorrected",
                         "sigma_z_trace"):
                assert np.abs(getattr(runs[label], name)
                              - getattr(runs["one"], name)).max() < 1e-12
            assert np.abs(runs[label].final_logical.amplitudes
                          - runs["one"].final_logical.amplitudes
                          ).max() < 1e-12
            assert abs(runs[label].final_fidelity
                       - runs["one"].final_fidelity) < 1e-12

    @pytest.mark.parametrize("amplitudes", [
        [0, 1], [S2, S2], [S2, 0, 0, S2], [0.5, 0.5, 0.5, -0.5],
        [0, 3**-0.5, 3**-0.5, 0, 3**-0.5, 0, 0, 0],
    ], ids=["one", "alpha_beta", "bell", "c2", "w"])
    def test_free_fermion_stacks_bound_memory_alone(self, monkeypatch,
                                                    amplitudes):
        # every sample comes from its stage's start, so the stack size
        # (at N = 13 one covariance per evolve call at 2^12 bytes, 41 at
        # 2^18, a stage at 2^22) leaves the traces, sigma_z and the
        # fidelities bit for bit.  The decoded payload comes from the
        # Pfaffian stacks of fermions.amplitudes, which the same bytes
        # size, and moves by round-off alone
        amp = np.array(amplitudes, dtype=complex)
        run = Transfer(13, 1.0, 22.007,
                       LogicalState(amp.size.bit_length() - 1, amp))
        assert protocol.path_class(run) is protocol._Covariances
        runs = []
        for size in (2**12, 2**18, 2**22):
            monkeypatch.setattr(fermions, "BLOCK_BYTES", size)
            runs.append(run_multi_qubit_transfer(run))
        for res in runs[1:]:
            for field in fields(res):
                a, b = getattr(runs[0], field.name), getattr(res, field.name)
                if field.name == "final_logical":
                    assert np.abs(a.amplitudes - b.amplitudes).max() <= 1e-15
                elif isinstance(a, dict):
                    assert a == b, field.name
                else:
                    assert np.array_equal(a, b), field.name

    @pytest.mark.parametrize("n, rows", [(13, 10), (12, 20), (11, 40),
                                         (9, 40), (7, 40), (1, 40),
                                         (16, 1), (30, 1)])
    def test_block_rule(self, n, rows):
        # 10 rows at N = 13 bound the peak RSS of the N = 13 transfer
        assert protocol.trace_rows(n) == rows

    def test_each_stage_operator_released_before_the_next(self,
                                                          monkeypatch):
        # two distinct stage operators are never alive at once: a k = 2
        # reset stage is realized once transport's is released, and a
        # k = 1 reset stage, transport's chain reversal, realizes none;
        # the path's last operator goes with the path, no collector
        built = []

        def recording_realize(pauli_sum):
            assert all(ref() is None for ref in built)
            h = realize(pauli_sum)
            built.append(weakref.ref(h))
            return h

        monkeypatch.setattr(protocol, "realize", recording_realize)
        psi = basis_state([1, 0, 0, 0, 0])
        gc.disable()
        try:
            for k, realized in ((2, 2), (1, 1)):
                built.clear()
                path = protocol._Amplitudes(
                    Transfer(5, 1.0, 22.0, payload_of_width(k),
                             n_time_samples=12), [])
                _trace_run(path, psi, (
                    transport_hamiltonian(5, 22.0, 1.0),
                    multiqubit_reset_hamiltonian(5, 22.0, 1.0, k),
                ))
                assert len(built) == realized
                del path
                assert built[-1]() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("cfg", [EXACT, PropagatorConfig()],
                             ids=["dense", "chebyshev"])
    def test_reversed_stage_propagates_as_its_own_operator(self, cfg):
        # a one-spin reset stage goes through transport's operator and
        # the chain reversal, a wider one is realized: both match the
        # stage's own operator on a state with weight everywhere
        n = 7
        rng = np.random.default_rng(5)
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi /= np.linalg.norm(psi)
        dt = 0.1
        for k, reused in ((1, True), (2, False)):
            path = protocol._Amplitudes(
                Transfer(n, 1.0, 22.0, payload_of_width(k), propagator=cfg),
                [])
            first = path.build(transport_hamiltonian(n, 22.0, 1.0))
            reset = multiqubit_reset_hamiltonian(n, 22.0, 1.0, k)
            h = path.build(reset)
            assert (h is first) is reused
            assert (path.flip is not None) is reused
            # a block after a gap (the jump to sample 2), then one that
            # composes on from the row the first reached
            for ks in (np.arange(3, 8), np.arange(8, 12)):
                rows, last = path.propagate(psi, h, ks, dt)
                want = evolve(psi, realize(reset), ks * dt, cfg)
                assert np.abs(rows - want).max() <= 1e-12
                assert np.array_equal(last, rows[-1])

    @pytest.mark.parametrize("dense_state", [False, True])
    def test_carried_state_holds_no_rows(self, dense_state):
        # the row the state vector composes on from is its own array, so
        # the block's rows are freed once they are recorded; one up spin
        # under the XY chain, or every basis state under transport
        n = 7
        path = protocol._Amplitudes(Transfer(n, 1.0, 22.0, logical_one()),
                                    [])
        psi = basis_state([1] + [0] * (n - 1))
        if dense_state:
            psi = np.full(2**n, 2 ** (-n / 2), dtype=complex)
        h = path.build(transport_hamiltonian(n, 22.0, 1.0) if dense_state
                       else heisenberg_xy(n, 1.0))
        rows, last = path.propagate(psi, h, np.array([1, 2]), 0.01)
        assert rows.shape == (2, 2**n) and last.shape == (2**n,)
        assert np.array_equal(last, rows[-1])
        at, row = path.reached
        assert at == 2 and np.array_equal(row, last)
        assert not np.shares_memory(last, rows)
        assert not np.shares_memory(row, rows)

    @pytest.mark.parametrize("path_type, cfg", [
        (protocol._Covariances, PropagatorConfig()),
        (protocol._Amplitudes, PropagatorConfig()),
        (protocol._Amplitudes, EXACT),
    ], ids=["fermions", "chebyshev", "dense"])
    def test_second_run_on_one_path_repeats_the_first(self, path_type, cfg):
        # a path's per-run state starts with the run: the free-fermion
        # readout decodes through this run's two stage operators alone
        run = Transfer(7, 1.0, 22.0,
                       LogicalState(2, np.array([0.5, 0.5j, -0.5, 0.5])),
                       n_time_samples=20, propagator=cfg)
        path = path_type(run, protocol._build_branches(run))
        stages = protocol.transfer_stages(run)
        first, second = (protocol._run(path, stages) for _ in range(2))
        for field in fields(first):
            a, b = getattr(first, field.name), getattr(second, field.name)
            if field.name == "final_logical":
                a, b = a.amplitudes, b.amplitudes
            if isinstance(a, dict):
                assert a == b, field.name
            else:
                assert np.array_equal(a, b), field.name


class TestTraceOverlaps:
    """The traces read the state at the branches' final indices only; the
    reference is the overlap with the whole target vector."""

    @pytest.fixture
    def sampled(self, monkeypatch):
        """The 2^N amplitudes of the states ``_trace_run`` samples, in
        order, and the branch table ``_build_branches`` returns.  Each
        block of samples is propagated once more on the whole space, by
        one ``evolve`` call from the 2^N amplitudes its stage started
        in, where the path composes on from the block before."""
        seen = {"states": [], "branches": None}
        build_branches = protocol._build_branches
        trace_run = protocol._trace_run
        propagate = protocol._Amplitudes.propagate

        def recording_propagate(path, start, h, ks, dt):
            assert path.flip is None  # no stage here reverses the one before
            # one whole-space row per sampled state
            seen["states"].extend(evolve(start, h, ks * dt, path.propagator))
            return propagate(path, start, h, ks, dt)

        def recording_build(*args):
            seen["branches"] = build_branches(*args)
            return seen["branches"]

        def recording_trace_run(path, state, *args):
            seen["states"].append(state)
            return trace_run(path, state, *args)

        monkeypatch.setattr(protocol._Amplitudes, "propagate",
                            recording_propagate)
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
        amp = np.array([0.5, 0.5j, -0.5, 0.5])
        res = run_multi_qubit_transfer(
            Transfer(7, 1.0, 22.0, LogicalState(2, amp), n_time_samples=25,
                     propagator=EXACT))
        assert len(sampled["branches"]) == 4
        self.assert_match_reference(
            res.times, res.fidelity_corrected, res.fidelity_uncorrected,
            sampled["states"], sampled["branches"], 7, math.pi)

    def test_empty_branch_baseline(self, sampled):
        n, tau = 5, math.pi
        psi = basis_state([1] + [0] * (n - 1))
        path = protocol._Amplitudes(
            Baseline(n, 1.0, logical_one(), n_time_samples=12), [])
        times, corrected, uncorrected, _, _ = protocol._trace_run(
            path, psi, (heisenberg_xy(n, 1.0),))
        assert not corrected.any() and not uncorrected.any()
        self.assert_match_reference(times, corrected, uncorrected,
                                    sampled["states"], [], n, tau)


class TestBlockRead:
    """The state-vector path reads each block of samples on the whole
    space: overlaps and sigma_z match the whole-space reference.  The XY
    baseline on "krylov" reads covariances instead."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """``(path, rows, target, result)`` of every state-vector read,
        and the operator and the width of the rows of every ``evolve``
        call of the protocol."""
        seen = {"reads": [], "widths": [], "operators": []}
        read = protocol._Amplitudes.read

        def recording_read(path, rows, target):
            out = read(path, rows, target)
            seen["reads"].append((path, rows, target, out))
            return out

        def recording_evolve(state, h, *args):
            out = evolve(state, h, *args)
            seen["operators"].append(h)
            seen["widths"].append(out.shape[-1])
            return out

        monkeypatch.setattr(protocol._Amplitudes, "read", recording_read)
        monkeypatch.setattr(protocol, "evolve", recording_evolve)
        return seen

    @staticmethod
    def assert_match_whole_space(seen, n):
        for path, rows, target, (corr, uncorr, sz) in seen["reads"]:
            assert rows.shape[1] == 2**n
            at = rows[:, :2**path.k]  # the rest of the chain all down
            assert np.abs(corr - np.abs((target.conj() * at).sum(axis=1))
                          ** 2).max() <= 1e-15
            assert np.abs(uncorr - np.abs(at @ path.plain.conj())
                          ** 2).max() <= 1e-15
            assert np.abs(sz - _sigma_z_all(np.abs(rows) ** 2, n)
                          ).max() <= 1e-15

    def test_xy_baseline_dense_block(self, reads, monkeypatch):
        # the dense path keeps the baseline on the 2^N amplitudes and
        # diagonalizes the vacuum and the 13 one-excitation states alone,
        # these as their halves even (7) and odd (6) under the mirror
        sizes = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            sizes.append(a.shape[0])
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        payload = LogicalState(1, np.array([0.6, 0.8j]))
        run_heisenberg_baseline(Baseline(13, 1.0, payload,
                                         n_time_samples=50,
                                         propagator=EXACT))
        assert sorted(sizes) == [1, 6, 7]
        assert set(reads["widths"]) == {2**13}
        self.assert_match_whole_space(reads, 13)

    def test_transport_block_on_the_dense_path(self, reads):
        # |1> keeps spin 1 up through transport: the dense path
        # diagonalizes that one sector of 256 of 512 states
        h = realize(transport_hamiltonian(9, 22.0, 1.0))
        one = basis_state([1] + [0] * 8)
        assert [ix.size for ix, _ in h.components(one)] == [256]
        run_multi_qubit_transfer(Transfer(9, 1.0, 22.0, logical_one(),
                                          n_time_samples=40,
                                          propagator=EXACT))
        assert set(reads["widths"]) == {2**9}
        self.assert_match_whole_space(reads, 9)

    def test_ghz_whole_space(self, reads):
        ghz = LogicalState(3, np.array([S2, 0, 0, 0, 0, 0, 0, S2]))
        run_multi_qubit_transfer(Transfer(7, 1.0, 22.0, ghz,
                                          n_time_samples=30))
        assert set(reads["widths"]) == {2**7}
        self.assert_match_whole_space(reads, 7)

    def test_n13_baseline_holds_no_whole_space_rows(self, reads):
        # on "krylov" every evolve call propagates a covariance of the
        # 28 wall Majoranas, and nothing is read on the state vector
        run_heisenberg_baseline(Baseline(13, 1.0, logical_one()))
        assert reads["operators"]
        assert all(isinstance(h, MajoranaOperator)
                   for h in reads["operators"])
        assert set(reads["widths"]) == {28}
        assert not reads["reads"]


@functools.lru_cache(maxsize=None)
def large_chain(payload: str) -> tuple:
    """``readout_row.deviations`` of one payload at N = 101, run once."""
    return readout_row.deviations(101, readout_row.PAYLOADS[payload])


class TestLargeChain:
    """A second computation at N = 101 (ROADMAP item 18): the corrected
    trace's last sample, read from the final covariance, equals
    ``|<target|row>|^2``, the row from the stages' propagators, and each
    ``|row_j|^2`` is the probability of an empty rest of the chain times
    Bob's conditioned population of pattern j (``readout_row``; CI
    checks |1> and Bell at N = 200)."""

    @pytest.mark.parametrize("payload", ["one", "bell", "w"])
    def test_trace_matches_readout_row(self, payload):
        assert large_chain(payload)[0] <= readout_row.TOLERANCE

    @pytest.mark.parametrize("payload", ["one", "bell", "w"])
    def test_populations_match_readout_row(self, payload):
        assert large_chain(payload)[1] <= readout_row.TOLERANCE


class TestSeriesMatchesFreeFermions:
    """A second computation of the Chebyshev series where the dense path
    stops (ROADMAP item 22): Bell at N = 13, 200 samples per stage, on
    the series and on free fermions (``series_vs_fermions``; CI checks
    Bell and |1> at N = 15 and Bell at N = 17)."""

    def test_bell_at_n13(self):
        assert series_vs_fermions.deviation(
            13, series_vs_fermions.PAYLOADS["bell"], 200
        ) <= series_vs_fermions.TOLERANCE


class TestRandomManifests:
    """24 seeded transfers and 8 baselines (``random_manifests``; CI
    checks 200): the fast path matches the dense path, and a window-only
    run the full run, bit for bit on free fermions, at lam, J/lam,
    sample counts and phase settings no bundled manifest takes."""

    @pytest.mark.parametrize("seed", range(32))
    def test_paths_and_window_agree(self, seed):
        paths, window, exact = random_manifests.deviations(
            random_manifests.draw(seed))
        assert paths <= random_manifests.TOLERANCE
        assert window <= random_manifests.WINDOW_TOLERANCE
        assert exact == 0.0


class TestGlobalPhase:
    """A global phase on the payload leaves every fidelity and sigma_z
    as they are, and multiplies the decoded payload (ROADMAP item 8)."""

    @pytest.mark.parametrize("layout, amplitudes, fermionic", [
        ((2, 3, 2), [S2, 0, 0, S2], True),  # Bell
        ((3, 3, 3), [S2, 0, 0, 0, 0, 0, 0, S2], False),  # GHZ
    ])
    def test_payload_phase(self, layout, amplitudes, fermionic):
        phase = np.exp(2.1j)
        amp = np.array(amplitudes, dtype=complex)
        runs = [Transfer(sum(layout), 1.0, 22.0, LogicalState(layout[0], a),
                         n_time_samples=40) for a in (amp, phase * amp)]
        assert [issubclass(protocol.path_class(r), protocol._Covariances)
                for r in runs] == [fermionic] * 2
        plain, phased = map(run_multi_qubit_transfer, runs)
        for name in ("final_fidelity", "peak_fidelity", "fidelity_corrected",
                     "fidelity_uncorrected", "sigma_z_trace"):
            assert np.abs(np.subtract(getattr(phased, name),
                                      getattr(plain, name))).max() <= 1e-12
        assert np.abs(phased.final_logical.amplitudes
                      - phase * plain.final_logical.amplitudes
                      ).max() <= 1e-12


class TestBranchTable:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n_wire", range(7))
    def test_final_pattern_is_bobs_codec_pattern(self, k, n_wire):
        # every branch ends all down outside Bob's register, on the codec
        # pattern of its mirrored logical bits, which decodes back to them
        N = 2 * k + n_wire
        payload = LogicalState(k, np.full(2**k, 2 ** (-k / 2), dtype=complex))
        branches = protocol._build_branches(Transfer(N, 1.0, 22.0, payload))
        perm = protocol._decode_permutation(k)
        assert len(branches) == 2**k
        for idx, br in enumerate(branches):
            b = index_bits(idx, k)
            assert tuple(index_bits(br.bob, k)) == dw_encode_bits(b[::-1])
            assert perm[idx] == br.bob

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_closed_form_matches_stage_by_stage_walls(self, k):
        payload = LogicalState(k, np.full(2**k, 2 ** (-k / 2), dtype=complex))
        for N in range(2 * k, 2 * k + 9):
            run = Transfer(N, 0.37, 22.0, payload)
            branches = protocol._build_branches(run)
            reference = stage_by_stage_branches(k, run)
            assert len(branches) == len(reference)
            for br, (initial, final, phase, e1, e2) in zip(branches,
                                                           reference):
                assert br.initial_bits == initial
                assert (0,) * (N - k) + tuple(index_bits(br.bob, k)) == final
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


def stage_by_stage_branches(k, run):
    """Reference branch table: ``(initial, final, mirror phase, stage
    energies)`` per logical index, each stage's walls mirrored as free
    fermions with a Slater determinant of the ``expm`` propagator."""
    N, J, lam = run.n_spins, run.j_coupling, run.lam
    L2 = N - k + 1
    table = []
    for idx in range(2**k):
        chain0 = dw_encode_bits(index_bits(idx, k)) + (0,) * (N - k)
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
    rest = psi.size.bit_length() - 1 - k
    M = psi.reshape(2**rest, 2**k)
    rho = M.T @ M.conj()
    perm = np.empty(2**k, dtype=int)
    V = np.ones(2**k, dtype=complex)
    by_initial = {br.initial_bits: br for br in branches}
    for idx in range(2**k):
        b = index_bits(idx, k)
        phys = basis_index(dw_encode_bits(b[::-1]))
        perm[phys] = idx
        br = by_initial.get(dw_encode_bits(b) + (0,) * rest)
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
        """The final state, Bob's width, the branches and tau of every
        state-vector readout."""
        seen = []
        readout = protocol._Amplitudes.readout

        def recording(path, psi, target):
            seen.append((psi * path.scale, path.k, path.branches, path.tau))
            return readout(path, psi, target)

        monkeypatch.setattr(protocol._Amplitudes, "readout", recording)
        return seen

    @staticmethod
    def assert_match_reference(res, readouts, logical_in, corrected):
        (psi, k, branches, tau), = readouts
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
        payload = LogicalState(k, np.array(amplitudes, dtype=complex))
        res = run_multi_qubit_transfer(Transfer(
            2 * k + 3, 1.0, ratio, payload, n_time_samples=20,
            apply_phase_correction=corrected, propagator=EXACT))
        f = self.assert_match_reference(res, readouts, payload, corrected)
        assert f < 1 - 1e-4

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_random_state(self, k):
        # a state with weight on every pattern of the rest of the chain,
        # so that every row of M adds to the readout fidelity
        N, tau = 2 * k + 3, math.pi
        rng = np.random.default_rng(k)
        amp = rng.normal(size=2**k) + 1j * rng.normal(size=2**k)
        payload = LogicalState(k, amp / np.linalg.norm(amp))
        run = Transfer(N, 1.0, 8.5, payload, propagator=EXACT)
        branches = protocol._build_branches(run)
        psi = rng.normal(size=2**N) + 1j * rng.normal(size=2**N)
        psi /= np.linalg.norm(psi)
        path = protocol._Amplitudes(run, branches)
        phases = path.phases(np.array([2 * tau]))[0]
        f, row = path.readout(psi, path.plain * phases)
        got = protocol._decoded(row, phases.conj(), path)
        vec, ref = readout_by_density_matrix(psi, k, branches, tau, payload,
                                             True)
        assert abs(f - ref) < 1e-14
        assert np.abs(got.amplitudes - vec).max() < 1e-14

    @pytest.mark.parametrize("corrected", [True, False])
    def test_xy_baseline(self, readouts, monkeypatch, corrected):
        # the baseline always corrects its readout; the uncorrected one
        # is read from the same final state by clearing the flag
        monkeypatch.setattr(Baseline, "apply_phase_correction", corrected)
        payload = LogicalState(1, np.array([0.6, 0.8j]))
        res = run_heisenberg_baseline(
            Baseline(6, 1.0, payload, n_time_samples=20, propagator=EXACT))
        self.assert_match_reference(res, readouts, payload, corrected)
