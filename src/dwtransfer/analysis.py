"""Parameter sweeps, error-scaling fits, and closed-form consistency checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PropagatorConfig, evolve, realize
from .hamiltonians import heisenberg_xy, transfer_amplitude_closed_form
from .protocol import run_multi_qubit_transfer, trace_rows

EPS_FLOOR = 1e-12
FIT_RATIO_MIN = 8.0
FIT_RATIO_MAX = 40.0
CONSISTENCY_N_MAX = 12  # longest chain of the dense closed-form check


@dataclass(frozen=True)
class SweepTable:
    """Infidelity records over J/lam ratios plus the log-log fit.

    Each row is ``(label, ratio, infidelity, transfer_time, in_fit)``.
    ``fit`` is the dict ``{"slope", "intercept", "r_squared",
    "n_points"}``, or ``None`` when fewer than three rows qualify (ratio
    inside the fit window and infidelity above the numerical floor).
    """

    rows: tuple
    fit: dict | None


def _sweep_item(item):
    label, ratio, run = item
    result = run_multi_qubit_transfer(run, window_only=True)
    eps = max(1.0 - result.peak_fidelity, 0.0)
    return label, ratio, eps, result.peak_time


def _fit_rows(rows):
    pts = [(ratio, eps) for _, ratio, eps, _, in_fit in rows if in_fit]
    if len(pts) < 3:
        return None
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return {"slope": float(slope), "intercept": float(intercept),
            "r_squared": r2, "n_points": len(pts)}


def error_scaling_sweep(runs, n_workers: int = None) -> SweepTable:
    """Run the protocol over a grid of J/lam ratios and fit the error law.

    ``runs`` is a list of ``(label, ratio, Transfer)`` entries, the
    ratio reported and fitted as given.  The infidelity of each run is 1
    minus the corrected-trace peak inside the readout window, and its
    transfer time that peak's time; nothing else is written, so each run
    samples that window alone (``run_multi_qubit_transfer(run,
    window_only=True)``), computes no sigma_z, uncorrected trace or
    decoded payload, and still checks Bob's register at the readout, so
    that a ratio that leaves it empty raises ``EmptyReadout``.  The
    log-log fit uses only ratios inside [8, 40] with infidelity above
    the numerical floor; rows outside the window are kept in the table
    but flagged.  Results are assembled by (label, ratio) key, so worker
    count and completion order never change the output.  ``n_workers``,
    if given, is at least 1; the pool starts at most one process per
    run, as it starts all of them at once.
    """
    if n_workers is not None and n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    n_workers = min(n_workers or 1, len(runs))
    if n_workers > 1:
        # imported here: it loads multiprocessing, which no other run needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            outcomes = list(pool.map(_sweep_item, runs))
    else:
        outcomes = [_sweep_item(item) for item in runs]
    rows = tuple(
        (label, ratio, eps, t_peak,
         FIT_RATIO_MIN <= ratio <= FIT_RATIO_MAX and eps > EPS_FLOOR)
        for label, ratio, eps, t_peak in sorted(outcomes,
                                                key=lambda o: o[:2]))
    return SweepTable(rows, _fit_rows(rows))


def closed_form_consistency(N_range, lam: float, samples: int = 20) -> float:
    """Max deviation of the numerical XY transfer amplitude from closed form.

    For each chain length the end-to-end amplitude
    <0...01| exp(-i H t) |10...0> is compared against
    [-i sin(lam t / 2)]^(N-1) on `samples` times in [0, 2 pi / lam],
    using the dense reference propagator, in blocks of `trace_rows(N)`
    times, each propagated from the initial state under the whole
    chain's H.  The dense path diagonalizes only the component of H the
    state occupies (``Operator.components``), the N one-excitation
    states.  `N_range` must hold at least one chain and no N below 2.
    Both amplitudes vanish at t = 0 and 2 pi / lam, so `samples` must be
    at least 3.
    """
    if not N_range or min(N_range) < 2:
        raise ValueError(f"N_range must hold chain lengths >= 2, got "
                         f"{N_range!r}")
    if samples < 3:
        raise ValueError(f"samples must be >= 3, got {samples}")
    cfg = PropagatorConfig(method="exact-eigendecomposition")
    worst = 0.0
    for N in N_range:
        if N > CONSISTENCY_N_MAX:
            raise ValueError(
                f"exact path limited to N <= {CONSISTENCY_N_MAX}")
        h = realize(heisenberg_xy(N, lam))
        src = np.zeros(2**N, dtype=complex)
        src[2 ** (N - 1)] = 1.0  # |10...0>
        times = np.linspace(0.0, 2 * math.pi / lam, samples)
        rows = trace_rows(N)
        for start in range(0, samples, rows):
            chunk = times[start:start + rows]
            nums = evolve(src, h, chunk, cfg)[:, 1]  # <0...01|
            for t, num in zip(chunk, nums):
                ref = transfer_amplitude_closed_form(N, lam, float(t))
                worst = max(worst, abs(num - ref))
    return worst
