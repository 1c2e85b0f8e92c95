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
    free_fermion,
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
# (payload, N, propagator, whether it runs on free fermions): the dense
# reference, the Chebyshev state vector and free fermions
PATHS = {
    "dense": (ONE, 9, EXACT, False),
    "chebyshev": (GHZ, 9, PropagatorConfig(), False),
    "fermions-one": (ONE, 9, PropagatorConfig(), True),
    "fermions-bell": (BELL, 7, PropagatorConfig(), True),
}


class TestWindowOnlySweep:
    """A sweep point records the peak window alone; its row matches the
    full run's peak."""

    @pytest.mark.parametrize("ratio", [8.0, 40.0])
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_row_matches_full_run(self, path, ratio):
        state, n, cfg, fermionic = PATHS[path]
        run = Transfer(n, 1.0, ratio, state, propagator=cfg)
        assert free_fermion(run) is fermionic
        full = run_multi_qubit_transfer(run)
        (row,) = error_scaling_sweep([(path, ratio, run)]).rows
        assert abs(row.infidelity - (1.0 - full.peak_fidelity)) <= 1e-12
        assert abs(row.transfer_time - full.peak_time) <= 1e-12

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_stage_one_in_one_call_and_window_read(self, monkeypatch, path):
        # 200 samples per stage: the window is samples 380..400 of 400
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
        assert len(calls) == 3
        assert np.allclose(calls[0], [200 * dt], rtol=1e-14)  # stage 1
        assert np.allclose(calls[1], [179 * dt], rtol=1e-14)  # to sample 379
        assert np.allclose(calls[2], np.arange(1, 22) * dt, rtol=1e-14)
        assert sum(read) == 21
        assert np.allclose(result.times, np.arange(380, 401) * dt,
                           rtol=1e-14)
        assert result.fidelity_corrected.shape == (21,)
        assert result.sigma_z_trace.shape == (n, 21)


class TestErrorScalingSweep:
    def test_small_sweep_slope(self):
        table = error_scaling_sweep(
            sweep_runs([8.0, 12.0, 16.0, 24.0, 32.0]))
        assert table.fit is not None
        assert table.fit.slope == pytest.approx(-2.0, abs=0.4)
        assert table.fit.r_squared > 0.95

    def test_rows_sorted_and_complete(self):
        ratios = [16.0, 8.0, 24.0]
        table = error_scaling_sweep(sweep_runs(ratios))
        assert [r.ratio for r in table.rows] == sorted(ratios)
        assert all(r.state_label == "1" for r in table.rows)

    def test_worker_count_does_not_change_output(self):
        ratios = [8.0, 16.0]
        serial = error_scaling_sweep(sweep_runs(ratios))
        parallel = error_scaling_sweep(sweep_runs(ratios), n_workers=2)
        assert serial.to_csv() == parallel.to_csv()

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="n_workers"):
            error_scaling_sweep(sweep_runs([8.0]), n_workers=workers)

    def test_low_ratio_flagged_not_fitted(self):
        with pytest.warns(UserWarning, match="quadratic"):
            table = error_scaling_sweep(sweep_runs([4.0, 8.0, 16.0, 24.0]))
        flags = {r.ratio: r.in_fit for r in table.rows}
        assert flags[4.0] is False
        assert flags[8.0] is True
        assert 4.0 in table.summary()["excluded_from_fit"]
        assert table.fit.n_points == 3

    def test_single_ratio_has_no_fit(self):
        table = error_scaling_sweep(sweep_runs([16.0]))
        assert table.fit is None
        assert table.summary()["fit"] is None

    def test_ratio_reported_as_given(self):
        # the row keeps the entry's ratio, not J/lam recomputed from the
        # run: 12 * 0.37 / 0.37 is not 12.0 in floating point
        one = LogicalState(1, np.array([0.0, 1.0], dtype=complex))
        run = Transfer(5, 0.37, 12.0 * 0.37, one, propagator=EXACT,
                       n_time_samples=20)
        assert run.j_coupling / run.lam != 12.0
        (row,) = error_scaling_sweep([("1", 12.0, run)]).rows
        assert row.ratio == 12.0 and row.in_fit

    def test_csv_layout(self):
        table = error_scaling_sweep(sweep_runs([16.0]))
        lines = table.to_csv().splitlines()
        assert lines[0] == "state,ratio,infidelity,transfer_time"
        fields = lines[1].split(",")
        assert fields[0] == "1"
        assert float(fields[1]) == 16.0
        assert 0.0 <= float(fields[2]) < 1.0
        assert float(fields[3]) > 0.0


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
