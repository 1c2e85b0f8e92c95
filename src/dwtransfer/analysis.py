"""Parameter sweeps, error-scaling fits, and closed-form consistency checks."""

from __future__ import annotations

import io
import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .core import PropagatorConfig, StateVector, evolve, realize
from .hamiltonians import heisenberg_xy, transfer_amplitude_closed_form
from .protocol import ProtocolConfig, run_multi_qubit_transfer, trace_rows

EPS_FLOOR = 1e-12
FIT_RATIO_MIN = 8.0
FIT_RATIO_MAX = 40.0
CONSISTENCY_N_MAX = 12  # longest chain of the dense closed-form check


@dataclass(frozen=True)
class SweepRow:
    state_label: str
    ratio: float
    infidelity: float
    transfer_time: float
    in_fit: bool


@dataclass(frozen=True)
class SweepFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


@dataclass(frozen=True)
class SweepTable:
    """Infidelity records over J/lam ratios plus the log-log fit.

    ``fit`` is ``None`` when fewer than three rows qualify (ratio inside
    the fit window and infidelity above the numerical floor).
    """

    rows: tuple
    fit: SweepFit

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["state", "ratio", "infidelity", "transfer_time"])
        for row in self.rows:
            writer.writerow([
                row.state_label,
                format(row.ratio, ".17g"),
                format(row.infidelity, ".17g"),
                format(row.transfer_time, ".17g"),
            ])
        return buf.getvalue()

    def summary(self) -> dict:
        out = {
            "n_rows": len(self.rows),
            "excluded_from_fit": sorted(
                {r.ratio for r in self.rows if not r.in_fit}
            ),
        }
        if self.fit is None:
            out["fit"] = None
        else:
            out["fit"] = {
                "slope": self.fit.slope,
                "intercept": self.fit.intercept,
                "r_squared": self.fit.r_squared,
                "n_points": self.fit.n_points,
            }
        return out


def _sweep_item(args):
    label, logical, ratio, base_cfg = args
    spec = replace(base_cfg.spec, j_coupling=ratio * base_cfg.spec.lam)
    result = run_multi_qubit_transfer(logical, replace(base_cfg, spec=spec))
    eps = max(1.0 - result.peak_fidelity, 0.0)
    return label, ratio, eps, result.peak_time


def _fit_rows(rows):
    pts = [(r.ratio, r.infidelity) for r in rows if r.in_fit]
    if len(pts) < 3:
        return None
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return SweepFit(float(slope), float(intercept), r2, len(pts))


def error_scaling_sweep(states, ratios, base_cfg: ProtocolConfig,
                        n_workers: int = None) -> SweepTable:
    """Run the protocol over a grid of J/lam ratios and fit the error law.

    ``states`` is a list of (label, LogicalState) pairs; each payload
    runs between registers as wide as itself.  The infidelity of each
    run is 1 minus the corrected-trace peak inside the readout window.
    The log-log fit uses only ratios inside [8, 40] with infidelity
    above the numerical floor; rows outside the window are kept in the
    table but flagged.  Results are assembled by (label, ratio) key, so
    worker count and completion order never change the output.
    """
    if not ratios:
        raise ValueError("ratio list must be non-empty")
    if any(r <= 0 for r in ratios):
        raise ValueError("ratios must be positive")
    work = [
        (label, logical, float(ratio), base_cfg)
        for label, logical in states
        for ratio in ratios
    ]
    if n_workers and n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            outcomes = list(pool.map(_sweep_item, work))
    else:
        outcomes = [_sweep_item(w) for w in work]
    rows = []
    for label, ratio, eps, t_peak in sorted(
        outcomes, key=lambda o: (o[0], o[1])
    ):
        in_fit = (
            FIT_RATIO_MIN <= ratio <= FIT_RATIO_MAX and eps > EPS_FLOOR
        )
        rows.append(SweepRow(label, ratio, eps, t_peak, in_fit))
    return SweepTable(tuple(rows), _fit_rows(rows))


def closed_form_consistency(N_range, lam: float, samples: int = 20) -> float:
    """Max deviation of the numerical XY transfer amplitude from closed form.

    For each chain length the end-to-end amplitude
    <0...01| exp(-i H t) |10...0> is compared against
    [-i sin(lam t / 2)]^(N-1) on `samples` times in [0, 2 pi / lam],
    using the dense reference propagator, in blocks of `trace_rows(N)`
    times, each propagated from the initial state.  Both amplitudes
    vanish at t = 0 and 2 pi / lam, so `samples` must be at least 3.
    """
    if samples < 3:
        raise ValueError(f"samples must be >= 3, got {samples}")
    cfg = PropagatorConfig(method="exact-eigendecomposition")
    worst = 0.0
    for N in N_range:
        if N > CONSISTENCY_N_MAX:
            raise ValueError(
                f"exact path limited to N <= {CONSISTENCY_N_MAX}")
        h = realize(heisenberg_xy(N, lam))
        src = StateVector.from_bits([1] + [0] * (N - 1))
        tgt_idx = 1  # |0...01>
        times = np.linspace(0.0, 2 * math.pi / lam, samples)
        rows = trace_rows(N)
        for start in range(0, samples, rows):
            block = times[start:start + rows]
            nums = evolve(src, h, block, cfg)[:, tgt_idx]
            for t, num in zip(block, nums):
                ref = transfer_amplitude_closed_form(N, lam, float(t))
                worst = max(worst, abs(num - ref))
    return worst
