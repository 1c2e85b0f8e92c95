import dataclasses
import math

import numpy as np
import pytest

from dwtransfer import analysis, protocol
from dwtransfer.analysis import (
    closed_form_consistency,
    error_scaling_sweep,
)
from dwtransfer.core import PropagatorConfig, evolve, realize
from dwtransfer.encoding import LogicalState
from dwtransfer.protocol import (
    Transfer,
    _Covariances,
    path_class,
    run_multi_qubit_transfer,
    trace_rows,
)

EXACT = PropagatorConfig(method="exact-eigendecomposition")
S2 = 1 / math.sqrt(2)


def sweep_runs(ratios, N=5, n_samp=40, label="1"):
    """The sweep entries of the payload |1> over ``ratios``."""
    one = LogicalState(1, np.array([0.0, 1.0], dtype=complex))
    return [(label, ratio, Transfer(N, 1.0, ratio, one, propagator=EXACT,
                                    n_time_samples=n_samp))
            for ratio in ratios]


ONE = LogicalState(1, np.array([0.0, 1.0], dtype=complex))
BELL = LogicalState(2, np.array([S2, 0, 0, S2], dtype=complex))
GHZ = LogicalState(3, np.array([S2, 0, 0, 0, 0, 0, 0, S2], dtype=complex))
S3 = 1 / math.sqrt(3)
# payloads Gaussian on the wall fermions, as bundled
GAUSSIAN = {
    "one": ONE,
    "alpha_beta": LogicalState(1, np.array([S2, S2], dtype=complex)),
    "bell": BELL,
    "c2": LogicalState(2, np.array([0.5, 0.5, 0.5, -0.5], dtype=complex)),
    "w": LogicalState(3, np.array([0, S3, S3, 0, S3, 0, 0, 0],
                                  dtype=complex)),
}
# (payload, N, propagator, whether it runs on free fermions): the dense
# reference, the Chebyshev state vector and free fermions.  GHZ at N = 7
# keeps 2 of Bob's 8 sectors through a window-only reset stage
PATHS = {
    "dense": (ONE, 9, EXACT, False),
    "dense-ghz": (GHZ, 7, EXACT, False),
    "chebyshev": (GHZ, 9, PropagatorConfig(), False),
    "fermions-one": (ONE, 9, PropagatorConfig(), True),
    "fermions-bell": (BELL, 7, PropagatorConfig(), True),
}


class TestWindowOnlySweep:
    """A sweep point records the peak window alone and decodes nothing;
    its row and its readout fidelity match the full run's."""

    @pytest.mark.parametrize("ratio", [8.0, 40.0])
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_row_matches_full_run(self, path, ratio):
        # free fermions take every sample from its stage's start, so
        # there the row is the full run's bit for bit
        state, n, cfg, fermionic = PATHS[path]
        tol = 0.0 if fermionic else 1e-12
        run = Transfer(n, 1.0, ratio, state, propagator=cfg)
        assert issubclass(path_class(run), _Covariances) is fermionic
        full = run_multi_qubit_transfer(run)
        ((_, _, eps, t_peak, _),) = error_scaling_sweep(
            [(path, ratio, run)]).rows
        assert abs(eps - (1.0 - full.peak_fidelity)) <= tol
        assert abs(t_peak - full.peak_time) <= tol
        point = run_multi_qubit_transfer(run, window_only=True)
        assert abs(point.final_fidelity - full.final_fidelity) <= tol

    @pytest.mark.parametrize("payload, n", [
        *((p, n) for p in sorted(GAUSSIAN) for n in (7, 12, 25)),
        ("one", 101), ("bell", 101)])
    def test_free_fermion_window_is_the_full_run(self, payload, n):
        # the window's corrected trace, the peak and the readout
        # fidelity of a window-only run equal the full run's bit for
        # bit: both take each sample from its stage's start
        run = Transfer(n, 1.0, 22.007 * n / 13, GAUSSIAN[payload],
                       n_time_samples=20 if n > 25 else 200)
        assert path_class(run) is _Covariances
        full = run_multi_qubit_transfer(run)
        point = run_multi_qubit_transfer(run, window_only=True)
        first = protocol._window_start(full.times)
        assert np.array_equal(point.times, full.times[first:])
        assert np.array_equal(point.fidelity_corrected,
                              full.fidelity_corrected[first:])
        for name in ("peak_fidelity", "peak_time", "final_fidelity"):
            assert getattr(point, name) == getattr(full, name), name

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_stage_one_in_one_call_and_window_read(self, monkeypatch, path):
        # 200 samples per stage: the window is samples 380..400 of 400.
        # The state vector composes: it jumps to sample 379, then takes
        # the window's 21 steps from there; free fermions take each
        # window sample from the reset stage's start
        state, n, cfg, fermionic = PATHS[path]
        run = Transfer(n, 1.0, 22.0, state, propagator=cfg)
        calls, read = [], []

        def spy_evolve(state, h, t, *rest):
            calls.append(np.array(t, dtype=float))
            return evolve(state, h, t, *rest)

        cls = protocol._Covariances if fermionic else protocol._Amplitudes
        original_read = cls.read

        def spy_read(self, rows, target):
            read.append(len(rows))
            return original_read(self, rows, target)

        monkeypatch.setattr(protocol, "evolve", spy_evolve)
        monkeypatch.setattr(cls, "read", spy_read)
        result = run_multi_qubit_transfer(run, window_only=True)
        dt = math.pi / 200
        want = ([[200], np.arange(180, 201)] if fermionic
                else [[200], [179], np.arange(1, 22)])  # stage 1 first
        assert len(calls) == len(want)
        for got, ks in zip(calls, want):
            assert np.allclose(got, np.multiply(ks, dt), rtol=1e-14)
        assert sum(read) == 21
        assert np.allclose(result.times, np.arange(380, 401) * dt,
                           rtol=1e-14)
        assert result.fidelity_corrected.shape == (21,)
        assert result.sigma_z_trace is None
        assert result.fidelity_uncorrected is None
        assert result.final_logical is None

    def test_empty_kept_sectors_are_redone_window_only(self, monkeypatch):
        # |1> at N = 5 and J/lam = 1e-4 on the dense path: the branch
        # target's sector of Bob's register holds no weight at the
        # readout, while the rest-all-down row does.  The point is
        # redone on a fresh window-only path that keeps every sector,
        # and its result holds the window's samples alone
        paths = []
        init = protocol._Amplitudes.__init__

        def recording_init(self, *args):
            init(self, *args)
            paths.append(self)

        monkeypatch.setattr(protocol._Amplitudes, "__init__", recording_init)
        with pytest.warns(UserWarning, match="quadratic"):
            run = Transfer(5, 1.0, 1e-4, ONE, propagator=EXACT,
                           n_time_samples=40)
        point = run_multi_qubit_transfer(run, window_only=True)
        assert [p.window_only for p in paths] == [True, True]
        assert paths[0].sectors is not None and paths[1].sectors is None
        full = run_multi_qubit_transfer(run)
        first = protocol._window_start(full.times)
        assert np.array_equal(point.times, full.times[first:])
        assert np.abs(point.fidelity_corrected
                      - full.fidelity_corrected[first:]).max() <= 1e-12
        assert point.fidelity_uncorrected is None
        assert point.sigma_z_trace is None
        assert point.final_logical is None
        assert abs(point.final_fidelity - full.final_fidelity) <= 1e-12
        assert abs(point.peak_fidelity - full.peak_fidelity) <= 1e-12
        assert point.peak_time == full.peak_time

    def test_dense_point_diagonalizes_kept_sector(self, monkeypatch):
        # |1> at N = 9: each component is two eigh, its mirror halves.
        # Stage 1 diagonalizes one component, the sector of spin 1 up.
        # Stage 2 is transport reversed, so Bob's sectors of spin N are
        # transport's of spin 1: the full run adds the spin-1-down one,
        # and a window-only point keeps the branch target's sector alone,
        # which stage 1 diagonalized
        sizes = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            sizes.append(a.shape[0])
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        run = Transfer(9, 1.0, 22.0, ONE, propagator=EXACT)
        run_multi_qubit_transfer(run)
        assert sizes == [136, 120, 136, 120]
        sizes.clear()
        run_multi_qubit_transfer(run, window_only=True)
        assert sizes == [136, 120]


class TestErrorScalingSweep:
    def test_small_sweep_slope(self):
        table = error_scaling_sweep(
            sweep_runs([8.0, 12.0, 16.0, 24.0, 32.0]))
        assert table.fit is not None
        assert table.fit["slope"] == pytest.approx(-2.0, abs=0.4)
        assert table.fit["r_squared"] > 0.95

    def test_rows_sorted_and_complete(self):
        ratios = [16.0, 8.0, 24.0]
        table = error_scaling_sweep(sweep_runs(ratios))
        assert [r[1] for r in table.rows] == sorted(ratios)
        assert all(r[0] == "1" for r in table.rows)

    def test_worker_count_does_not_change_output(self):
        ratios = [8.0, 16.0]
        serial = error_scaling_sweep(sweep_runs(ratios))
        parallel = error_scaling_sweep(sweep_runs(ratios), n_workers=2)
        assert serial == parallel

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="n_workers"):
            error_scaling_sweep(sweep_runs([8.0]), n_workers=workers)

    def test_low_ratio_flagged_not_fitted(self):
        with pytest.warns(UserWarning, match="quadratic"):
            table = error_scaling_sweep(sweep_runs([4.0, 8.0, 16.0, 24.0]))
        flags = {r[1]: r[4] for r in table.rows}
        assert flags[4.0] is False
        assert flags[8.0] is True
        assert [r[1] for r in table.rows if not r[4]] == [4.0]
        assert table.fit["n_points"] == 3

    def test_single_ratio_has_no_fit(self):
        table = error_scaling_sweep(sweep_runs([16.0]))
        assert table.fit is None

    def test_ratio_reported_as_given(self):
        # the row keeps the entry's ratio, not J/lam recomputed from the
        # run: 12 * 0.37 / 0.37 is not 12.0 in floating point
        one = LogicalState(1, np.array([0.0, 1.0], dtype=complex))
        run = Transfer(5, 0.37, 12.0 * 0.37, one, propagator=EXACT,
                       n_time_samples=20)
        assert run.j_coupling / run.lam != 12.0
        ((_, ratio, _, _, in_fit),) = error_scaling_sweep(
            [("1", 12.0, run)]).rows
        assert ratio == 12.0 and in_fit

    def test_rows_are_plain_data(self):
        table = error_scaling_sweep(sweep_runs([16.0]))
        (row,) = table.rows
        assert type(row) is tuple and len(row) == 5
        label, ratio, eps, t_peak, in_fit = row
        assert label == "1" and ratio == 16.0 and in_fit is True
        assert 0.0 <= eps < 1.0 and t_peak > 0.0

    def test_row_and_fit_classes_are_gone(self):
        with pytest.raises(ImportError):
            from dwtransfer.analysis import SweepRow  # noqa: F401
        with pytest.raises(ImportError):
            from dwtransfer.analysis import SweepFit  # noqa: F401
        assert [f.name for f in dataclasses.fields(analysis.SweepTable)
                ] == ["rows", "fit"]


class TestClosedFormConsistency:
    def test_small_chains(self):
        dev = closed_form_consistency(range(2, 7), 1.0, samples=10)
        assert dev <= 1e-8

    def test_rescaled_profile(self):
        dev = closed_form_consistency([3, 5], 0.4, samples=10)
        assert dev <= 1e-8

    def test_samples_propagated_in_blocks(self, monkeypatch):
        # 100 samples: three blocks of 40, 40 and 20 times on every
        # chain, each propagated on the whole chain, whose dense path
        # diagonalizes the N one-excitation states once, as their
        # halves even and odd under the chain's mirror: a
        # ceil(N/2) and a floor(N/2) eigh per chain, never a 2^N one
        lengths = {}
        chains = []
        sizes = []
        eigh = np.linalg.eigh

        def recording_realize(p):
            chains.append(p.n_spins)
            return realize(p)

        def counting_evolve(amp, h, t, cfg):
            out = evolve(amp, h, t, cfg)
            n = chains[-1]
            assert amp.size == h.dimension == 2**n
            assert out.shape == (len(t), 2**n)
            lengths.setdefault(n, []).append(len(t))
            return out

        def counting_eigh(a):
            sizes.append(a.shape[0])
            return eigh(a)

        monkeypatch.setattr(analysis, "realize", recording_realize)
        monkeypatch.setattr(analysis, "evolve", counting_evolve)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        halves = [size for n in range(2, 11)
                  for size in ((n + 1) // 2, n // 2)]
        blocked = closed_form_consistency(range(2, 11), 1.0, samples=100)
        assert sizes == halves
        assert sorted(lengths) == list(range(2, 11))
        for n, seen in lengths.items():
            assert max(seen) <= trace_rows(n) and sum(seen) == 100
        assert lengths[10] == [40, 40, 20]
        # one evolve call for all samples of a chain
        monkeypatch.setattr(analysis, "trace_rows", lambda n: 100)
        lengths.clear()
        sizes.clear()
        whole = closed_form_consistency(range(2, 11), 1.0, samples=100)
        assert all(seen == [100] for seen in lengths.values())
        assert sizes == halves
        assert abs(blocked - whole) < 1e-14 and blocked <= 1e-8

    @pytest.mark.parametrize("N_range", [range(5, 5), [], [1], range(1, 4)])
    def test_empty_or_short_range_rejected(self, N_range):
        # no chain, or one of a single spin, would compare nothing and
        # read 0.0, "within tolerance"
        with pytest.raises(ValueError, match="N_range"):
            closed_form_consistency(N_range, 1.0)

    def test_large_chain_rejected(self):
        with pytest.raises(ValueError):
            closed_form_consistency([13], 1.0)

    @pytest.mark.parametrize("samples", [-1, 0, 1, 2])
    def test_too_few_samples_rejected(self, samples):
        # two samples sit at t = 0 and 2 pi / lam, where both amplitudes
        # vanish, so nothing would be compared
        with pytest.raises(ValueError, match="samples"):
            closed_form_consistency([3], 1.0, samples=samples)
