"""sigma_z's elimination against the pivoted path on a long chain.

``fermions.sigma_z`` reads every ``<Z_n>`` of a covariance from one
unpivoted elimination from both chain ends, and redoes a row whose
growth exceeds ``fermions.GROWTH_MAX`` with ``_sigma_z_pivoted``.  This
checks it against ``_sigma_z_pivoted`` on float64 and on long double
copies of the covariances a transfer's trace samples, both stages and
the start, within ``TOLERANCE``, the bound ``TestSigmaZ`` holds at
N = 13 and 101:

    PYTHONPATH=src python3 tests/sigma_z_rows.py N [PAYLOAD ...]

checks each ``PAYLOAD`` (keys of ``PAYLOADS``, all of them by default)
on N spins, two samples per stage, and exits 1 beyond ``TOLERANCE``.
"""

import math
import sys

import numpy as np

from dwtransfer import fermions, protocol
from dwtransfer.core import evolve, realize
from dwtransfer.encoding import LogicalState

TOLERANCE = 1e-12
S2 = 1 / math.sqrt(2)
PAYLOADS = {
    "one": [0, 1],
    "alpha=beta": [S2, S2],
    "bell": [S2, 0, 0, S2],
}


def trace_covariances(n_spins, state, n_samp, j=22.007):
    """The covariance at every trace sample of a transfer of ``state``,
    both stages, the start included: ``(2 n_samp + 1, 2N + 2, 2N +
    2)``."""
    run = protocol.Transfer(n_spins, 1.0, j, state, n_time_samples=n_samp)
    m = protocol._Covariances(run, protocol._build_branches(run)).start()
    steps = np.arange(1, n_samp + 1) * math.pi / n_samp
    rows = [m[None]]
    for stage in protocol.transfer_stages(run):
        rows.append(evolve(rows[-1][-1], realize(stage, majorana=True),
                           steps))
    return np.concatenate(rows)


def deviations(n_spins: int, amplitudes, n_samp: int = 2) -> tuple:
    """The largest ``|<Z_n>|`` difference of ``fermions.sigma_z`` from
    ``_sigma_z_pivoted`` on float64 and on long double copies of the
    trace covariances of the payload ``amplitudes`` on ``n_spins``
    spins."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    k = amplitudes.size.bit_length() - 1
    ms = trace_covariances(n_spins, LogicalState(k, amplitudes), n_samp)
    got = fermions.sigma_z(ms)
    return tuple(float(np.abs(got - fermions._sigma_z_pivoted(m)).max())
                 for m in (ms, ms.astype(np.longdouble)))


if __name__ == "__main__":
    n, names = int(sys.argv[1]), sys.argv[2:] or list(PAYLOADS)
    worst = 0.0
    for name in names:
        double, extended = deviations(n, PAYLOADS[name])
        print(f"{name} at N = {n}: the elimination differs from the "
              f"pivoted path by {double:.3g} on float64 and {extended:.3g} "
              f"on long double (tolerance {TOLERANCE:g})")
        worst = max(worst, double, extended)
    sys.exit(int(not worst <= TOLERANCE))
