import math

import numpy as np
import pytest

from dwtransfer import analysis
from dwtransfer.analysis import (
    closed_form_consistency,
    error_scaling_sweep,
)
from dwtransfer.core import PropagatorConfig, evolve
from dwtransfer.encoding import LogicalState
from dwtransfer.protocol import Transfer, trace_rows

EXACT = PropagatorConfig(method="exact-eigendecomposition")
S2 = 1 / math.sqrt(2)


def sweep_runs(ratios, N=5, n_samp=40, label="1"):
    """The sweep entries of the payload |1> over ``ratios``."""
    one = LogicalState(1, np.array([0.0, 1.0], dtype=complex))
    return [(label, ratio, Transfer(N, 1.0, ratio, one, propagator=EXACT,
                                    n_time_samples=n_samp))
            for ratio in ratios]


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
        # 100 samples: three blocks of 40, 40 and 20 times on every chain
        lengths = {}

        def counting_evolve(state, h, t, cfg):
            lengths.setdefault(state.n_spins, []).append(len(t))
            return evolve(state, h, t, cfg)

        monkeypatch.setattr(analysis, "evolve", counting_evolve)
        blocked = closed_form_consistency(range(2, 11), 1.0, samples=100)
        for n, seen in lengths.items():
            assert max(seen) <= trace_rows(n) and sum(seen) == 100
        assert lengths[10] == [40, 40, 20]
        # one evolve call for all samples of a chain
        monkeypatch.setattr(analysis, "trace_rows", lambda n: 100)
        lengths.clear()
        whole = closed_form_consistency(range(2, 11), 1.0, samples=100)
        assert all(seen == [100] for seen in lengths.values())
        assert abs(blocked - whole) < 1e-14 and blocked <= 1e-8

    def test_large_chain_rejected(self):
        with pytest.raises(ValueError):
            closed_form_consistency([13], 1.0)

    @pytest.mark.parametrize("samples", [-1, 0, 1, 2])
    def test_too_few_samples_rejected(self, samples):
        # two samples sit at t = 0 and 2 pi / lam, where both amplitudes
        # vanish, so nothing would be compared
        with pytest.raises(ValueError, match="samples"):
            closed_form_consistency([3], 1.0, samples=samples)
