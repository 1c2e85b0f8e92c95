"""Random small runs on the fast path, the dense path and the window.

Seed s draws the fields of one run: an XY ``Baseline`` when s is 3 mod
4 (N from 2 to 13), else a ``Transfer`` of a k-qubit payload (k from 1
to 3, N from 2k to 9, the phase correction on or off).  Each takes lam
0.7, 1 or 2, J/lam 22, -15, 9 or 40 (a transfer), 2, 7 or 40 samples
per stage, and a random payload with some amplitudes zero.  Two checks
hold:

* the run on ``"krylov"`` (free fermions or the Chebyshev series, as
  ``protocol.path_class`` picks) against the dense reference: every
  trace, sigma_z, both fidelities, the peak time and the decoded
  payload within ``TOLERANCE``;
* a transfer's window-only run against its full run, on both
  propagators: the peak fidelity, the peak time and the readout
  fidelity within ``WINDOW_TOLERANCE``.

    PYTHONPATH=src python3 tests/random_manifests.py COUNT

checks seeds 0 to COUNT - 1 and exits 1 beyond either tolerance.
"""

import sys
from dataclasses import replace

import numpy as np

from dwtransfer.core import PropagatorConfig
from dwtransfer.encoding import LogicalState
from dwtransfer.protocol import (
    Baseline,
    Transfer,
    run_heisenberg_baseline,
    run_multi_qubit_transfer,
)

TOLERANCE = 1e-10  # the fast path against the dense path
WINDOW_TOLERANCE = 1e-12  # a window-only run against the full run
METHODS = ("krylov", "exact-eigendecomposition")
COMPARED = ("times", "fidelity_corrected", "fidelity_uncorrected",
            "sigma_z_trace", "final_fidelity", "peak_fidelity", "peak_time")
WINDOW_COMPARED = ("peak_fidelity", "peak_time", "final_fidelity")


def draw(seed: int):
    """The run of ``seed`` on ``"krylov"``."""
    rng = np.random.default_rng(seed)
    baseline = seed % 4 == 3
    k = 1 if baseline else int(rng.integers(1, 4))
    n_spins = int(rng.integers(2, 14) if baseline
                  else rng.integers(2 * k, 10))
    amplitudes = rng.normal(size=2**k) + 1j * rng.normal(size=2**k)
    amplitudes[rng.random(2**k) < 0.3] = 0
    if not amplitudes.any():
        amplitudes[rng.integers(2**k)] = 1
    state = LogicalState(k, amplitudes / np.linalg.norm(amplitudes))
    lam = float(rng.choice([0.7, 1.0, 2.0]))
    samples = int(rng.choice([2, 7, 40]))
    if baseline:
        return Baseline(n_spins, lam, state, n_time_samples=samples)
    ratio = float(rng.choice([22.0, -15.0, 9.0, 40.0]))
    return Transfer(n_spins, lam, ratio * lam, state,
                    apply_phase_correction=bool(rng.integers(2)),
                    n_time_samples=samples)


def _largest(a, b, names) -> float:
    """The largest difference of the ``names`` of two results."""
    return max(float(np.abs(np.asarray(getattr(a, name))
                            - getattr(b, name)).max()) for name in names)


def deviations(run) -> tuple:
    """The largest difference of ``run``'s fast path from its dense
    path, and of a window-only run from the full run on either
    propagator (0 for a baseline, which has no window-only run)."""
    runs = [replace(run, propagator=PropagatorConfig(m)) for m in METHODS]
    if isinstance(run, Baseline):
        fast, dense = map(run_heisenberg_baseline, runs)
        window = 0.0
    else:
        fast, dense = map(run_multi_qubit_transfer, runs)
        window = max(_largest(run_multi_qubit_transfer(r, window_only=True),
                              full, WINDOW_COMPARED)
                     for r, full in zip(runs, (fast, dense)))
    paths = max(_largest(fast, dense, COMPARED),
                float(np.abs(fast.final_logical.amplitudes
                             - dense.final_logical.amplitudes).max()))
    return paths, window


if __name__ == "__main__":
    count = int(sys.argv[1])
    worst = [(0.0, None), (0.0, None)]
    for seed in range(count):
        for i, deviation in enumerate(deviations(draw(seed))):
            worst[i] = max(worst[i], (deviation, seed),
                           key=lambda pair: pair[0])
    (paths, p_seed), (window, w_seed) = worst
    print(f"{count} random runs: the fast path differs from the dense path "
          f"by {paths:.3g} (seed {p_seed}, tolerance {TOLERANCE:g}), a "
          f"window-only run from the full run by {window:.3g} (seed "
          f"{w_seed}, tolerance {WINDOW_TOLERANCE:g})")
    sys.exit(int(not (paths <= TOLERANCE and window <= WINDOW_TOLERANCE)))
