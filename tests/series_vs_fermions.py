"""Two computations of a Gaussian payload's transfer where the dense path
stops.

A payload that is Gaussian on the wall fermions (every 1- and 2-qubit
payload, not GHZ) runs on either path ``protocol._run`` takes: the 2^N
amplitudes, propagated by the Chebyshev series (``_Amplitudes`` on
``"krylov"``), and the Majorana covariance of free fermions
(``_Covariances``).  From N = 15 on the dense reference is refused, so
this is the series' only second computation there.  Both paths run the
same branches and stages at J/lam = 22.007 N/13, and the largest
difference over both fidelity traces, sigma_z, the readout fidelity and
the decoded payload stays within ``TOLERANCE``, which was set before
either was measured.

    PYTHONPATH=src python3 tests/series_vs_fermions.py N PAYLOAD SAMPLES

checks ``PAYLOAD`` (a key of ``PAYLOADS``) on N spins with ``SAMPLES``
samples per stage and exits 1 beyond ``TOLERANCE``.
"""

import math
import sys

import numpy as np

from dwtransfer import protocol
from dwtransfer.encoding import LogicalState

TOLERANCE = 1e-12
S2 = 1 / math.sqrt(2)
PAYLOADS = {
    "one": [0, 1],
    "alpha_beta": [S2, S2],
    "bell": [S2, 0, 0, S2],
}
# compared sample by sample, then as one number each
TRACES = ("fidelity_corrected", "fidelity_uncorrected", "sigma_z_trace")


def deviation(n_spins: int, amplitudes, samples: int) -> float:
    """The largest difference between the series and free fermions over
    ``TRACES``, the readout fidelity and the decoded payload of the
    payload ``amplitudes`` on ``n_spins`` spins, ``samples`` samples per
    stage."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    k = amplitudes.size.bit_length() - 1
    run = protocol.Transfer(n_spins, 1.0, 22.007 * n_spins / 13,
                            LogicalState(k, amplitudes),
                            n_time_samples=samples)
    assert protocol.path_class(run) is protocol._Covariances
    branches = protocol._build_branches(run)
    stages = protocol.transfer_stages(run)
    series, fermions = (protocol._run(path(run, branches), stages)
                        for path in (protocol._Amplitudes,
                                     protocol._Covariances))
    assert np.array_equal(series.times, fermions.times)
    return max(
        *(float(np.abs(getattr(series, name) - getattr(fermions, name)).max())
          for name in TRACES),
        abs(series.final_fidelity - fermions.final_fidelity),
        float(np.abs(series.final_logical.amplitudes
                     - fermions.final_logical.amplitudes).max()))


if __name__ == "__main__":
    n, name, samples = int(sys.argv[1]), sys.argv[2], int(sys.argv[3])
    worst = deviation(n, PAYLOADS[name], samples)
    print(f"{name} at N = {n}, {samples} samples per stage: the Chebyshev "
          f"series and free fermions differ by {worst:.3g} (tolerance "
          f"{TOLERANCE:g})")
    sys.exit(int(not worst <= TOLERANCE))
