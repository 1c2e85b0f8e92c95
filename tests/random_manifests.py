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
  propagators: the corrected trace over the window, the peak fidelity,
  the peak time and the readout fidelity within ``WINDOW_TOLERANCE`` on
  the state vector, and bit for bit on free fermions, which take each
  sample from its stage's start.

Run as a script, it also checks one seed in ``SERIES_EVERY`` on the
Chebyshev series against free fermions (``series_vs_fermions``): a
random 1- or 2-qubit payload, Gaussian on the wall fermions, at N from
10 to 13 with 2 to 40 samples per stage, within
``series_vs_fermions.TOLERANCE``.

    PYTHONPATH=src python3 tests/random_manifests.py COUNT

checks seeds 0 to COUNT - 1 and exits 1 beyond any tolerance.
"""

import sys
from dataclasses import replace

import numpy as np

import series_vs_fermions
from dwtransfer.core import PropagatorConfig
from dwtransfer.encoding import LogicalState
from dwtransfer.protocol import (
    Baseline,
    Transfer,
    _Covariances,
    path_class,
    run_heisenberg_baseline,
    run_multi_qubit_transfer,
)

TOLERANCE = 1e-10  # the fast path against the dense path
# a window-only run against the full run on the state vector; on free
# fermions the two are equal
WINDOW_TOLERANCE = 1e-12
SERIES_EVERY = 8  # seeds per Chebyshev series check, run as a script
METHODS = ("krylov", "exact-eigendecomposition")
COMPARED = ("times", "fidelity_corrected", "fidelity_uncorrected",
            "sigma_z_trace", "final_fidelity", "peak_fidelity", "peak_time")
WINDOW_COMPARED = ("peak_fidelity", "peak_time", "final_fidelity")


def _payload(rng, k: int) -> np.ndarray:
    """Random normalized amplitudes of k qubits, some of them zero."""
    amplitudes = rng.normal(size=2**k) + 1j * rng.normal(size=2**k)
    amplitudes[rng.random(2**k) < 0.3] = 0
    if not amplitudes.any():
        amplitudes[rng.integers(2**k)] = 1
    return amplitudes / np.linalg.norm(amplitudes)


def draw(seed: int):
    """The run of ``seed`` on ``"krylov"``."""
    rng = np.random.default_rng(seed)
    baseline = seed % 4 == 3
    k = 1 if baseline else int(rng.integers(1, 4))
    n_spins = int(rng.integers(2, 14) if baseline
                  else rng.integers(2 * k, 10))
    state = LogicalState(k, _payload(rng, k))
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


def draw_series(seed: int) -> tuple:
    """``(n_spins, amplitudes, samples)`` of ``seed``'s Chebyshev series
    check (``series_vs_fermions.deviation``)."""
    rng = np.random.default_rng([seed, SERIES_EVERY])
    k = int(rng.integers(1, 3))
    return (int(rng.integers(10, 14)), _payload(rng, k),
            int(rng.integers(2, 41)))


def _window(point, full) -> float:
    """The largest difference of a window-only run from its full run:
    the corrected trace over the window and ``WINDOW_COMPARED``."""
    first = full.times.size - point.times.size
    return max(_largest(point, full, WINDOW_COMPARED),
               float(np.abs(point.fidelity_corrected
                            - full.fidelity_corrected[first:]).max()))


def deviations(run) -> tuple:
    """The largest difference of ``run``'s fast path from its dense
    path, of a window-only run from the full run on the state vector,
    and on free fermions (0 for a baseline, which has no window-only
    run, and for a path the run does not take)."""
    runs = [replace(run, propagator=PropagatorConfig(m)) for m in METHODS]
    window = [0.0, 0.0]
    if isinstance(run, Baseline):
        fast, dense = map(run_heisenberg_baseline, runs)
    else:
        fast, dense = map(run_multi_qubit_transfer, runs)
        for r, full in zip(runs, (fast, dense)):
            fermionic = issubclass(path_class(r), _Covariances)
            window[fermionic] = max(window[fermionic], _window(
                run_multi_qubit_transfer(r, window_only=True), full))
    paths = max(_largest(fast, dense, COMPARED),
                float(np.abs(fast.final_logical.amplitudes
                             - dense.final_logical.amplitudes).max()))
    return paths, *window


if __name__ == "__main__":
    count = int(sys.argv[1])
    worst = [(-1.0, None)] * 4
    for seed in range(count):
        found = deviations(draw(seed))
        if seed % SERIES_EVERY == 0:
            found += (series_vs_fermions.deviation(*draw_series(seed)),)
        for i, deviation in enumerate(found):
            worst[i] = max(worst[i], (deviation, seed),
                           key=lambda pair: pair[0])
    (paths, p_seed), (window, w_seed), (exact, e_seed), (series, s_seed) = (
        worst)
    print(f"{count} random runs: the fast path differs from the dense path "
          f"by {paths:.3g} (seed {p_seed}, tolerance {TOLERANCE:g}), a "
          f"window-only run from the full run by {window:.3g} on the state "
          f"vector (seed {w_seed}, tolerance {WINDOW_TOLERANCE:g}) and by "
          f"{exact:.3g} on free fermions (seed {e_seed}, tolerance 0), the "
          f"Chebyshev series from free fermions by {series:.3g} (seed "
          f"{s_seed}, tolerance {series_vs_fermions.TOLERANCE:g})")
    sys.exit(int(not (paths <= TOLERANCE and window <= WINDOW_TOLERANCE
                      and exact == 0
                      and series <= series_vs_fermions.TOLERANCE)))
