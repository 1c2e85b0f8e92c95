"""Two computations of a long free-fermion transfer's readout.

The corrected trace's last sample is read from the final covariance:
the probability ``p`` that the chain outside Bob's register is empty
(``fermions.rest_empty``) times Bob's target overlap on the covariance
conditioned on that (``fermions.Window``).  The rest-all-down row that
the readout decodes holds the amplitudes of Bob's patterns, computed as
Pfaffians of the stages' propagators (``fermions.amplitudes``).  Two
checks hold within ``TOLERANCE``, which was set before either was
measured:

* the sample equals ``|<target|row>|^2``, ``target`` Bob's corrected
  target at the readout time;
* each ``|row_j|^2`` equals ``p`` times Bob's conditioned population
  of pattern j, ``Window``'s overlap with that basis state.

    PYTHONPATH=src python3 tests/readout_row.py N [PAYLOAD]

checks the transfer of ``PAYLOAD`` (a key of ``PAYLOADS``, ``one`` by
default) on N spins and exits 1 beyond ``TOLERANCE``.
"""

import math
import sys

import numpy as np

from dwtransfer import fermions, protocol
from dwtransfer.encoding import LogicalState

TOLERANCE = 1e-12
S2, S3 = 1 / math.sqrt(2), 1 / math.sqrt(3)
PAYLOADS = {
    "one": [0, 1],
    "bell": [S2, 0, 0, S2],
    "w": [0, S3, S3, 0, S3, 0, 0, 0],
}


class _Recording(protocol._Covariances):
    """The free-fermion path, keeping the final covariance and the row
    its readout returns."""

    def readout(self, m, target):
        f, self.row = super().readout(m, target)
        self.final = m
        return f, self.row


def deviations(n_spins: int, amplitudes) -> tuple:
    """``|F_corrected(2 tau) - |<target|row>|^2|`` and the largest
    ``||row_j|^2 - p rho_jj|`` of the payload ``amplitudes`` on
    ``n_spins`` spins, at J/lam = 22.007 N/13 with 20 samples per
    stage."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    k = amplitudes.size.bit_length() - 1
    run = protocol.Transfer(n_spins, 1.0, 22.007 * n_spins / 13,
                            LogicalState(k, amplitudes), n_time_samples=20)
    assert issubclass(protocol.path_class(run), protocol._Covariances)
    path = _Recording(run, protocol._build_branches(run))
    res = protocol._run(path, protocol.transfer_stages(run))
    target = path.plain * path.phases(np.array([2 * res.tau]))[0]
    trace = abs(res.fidelity_corrected[-1]
                - abs(np.vdot(target, path.row)) ** 2)
    p, _, cond = fermions.rest_empty(path.final[None], n_spins - k)
    rho = path.window.overlaps(path.window.pfaffians(cond[:, 1:, 1:]),
                               np.eye(2**k))
    return trace, float(np.abs(np.abs(path.row) ** 2 - p[0] * rho).max())


if __name__ == "__main__":
    n, name = int(sys.argv[1]), (sys.argv[2:] or ["one"])[0]
    trace, populations = deviations(n, PAYLOADS[name])
    print(f"{name} at N = {n}: the trace and the readout row differ by "
          f"{trace:.3g}, the populations and the row by {populations:.3g} "
          f"(tolerance {TOLERANCE:g})")
    sys.exit(int(not max(trace, populations) <= TOLERANCE))
