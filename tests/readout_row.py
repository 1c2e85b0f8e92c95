"""Two computations of a long free-fermion transfer's readout.

The corrected trace's last sample is read from the final covariance:
the probability that the chain outside Bob's register is empty
(``fermions.rest_empty``) times Bob's target overlap on the covariance
conditioned on that (``fermions.Window``).  The rest-all-down row that
the readout decodes holds the amplitudes of Bob's patterns, computed as
Pfaffians of the stages' propagators (``fermions.amplitudes``).  The
sample must equal ``|<target|row>|^2``, ``target`` Bob's corrected
target at the readout time, within ``TOLERANCE``, which was set before
either was measured.

    PYTHONPATH=src python3 tests/readout_row.py N

checks a |1> transfer on N spins and exits 1 beyond ``TOLERANCE``.
"""

import sys

import numpy as np

from dwtransfer import protocol
from dwtransfer.encoding import LogicalState

TOLERANCE = 1e-12


class _Recording(protocol._Covariances):
    """The free-fermion path, keeping the row its readout returns."""

    def readout(self, m, target, tau):
        f, self.row = super().readout(m, target, tau)
        return f, self.row


def deviation(n_spins: int, amplitudes) -> float:
    """``|F_corrected(2 tau) - |<target|row>|^2|`` of the payload
    ``amplitudes`` on ``n_spins`` spins, at J/lam = 22.007 N/13 with 20
    samples per stage."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    k = amplitudes.size.bit_length() - 1
    run = protocol.Transfer(n_spins, 1.0, 22.007 * n_spins / 13,
                            LogicalState(k, amplitudes), n_time_samples=20)
    assert protocol.free_fermion(run)
    path = _Recording(run, k, protocol._build_branches(run))
    res = protocol._run(run, path, protocol.transfer_stages(run),
                        run.j_coupling)
    target, _ = protocol._bob_target(k, path.branches, res.tau, 2 * res.tau,
                                     True)
    return abs(res.fidelity_corrected[-1]
               - abs(np.vdot(target, path.row)) ** 2)


if __name__ == "__main__":
    n = int(sys.argv[1])
    gap = deviation(n, [0.0, 1.0])
    print(f"|1> at N = {n}: the trace and the readout row differ by "
          f"{gap:.3g} (tolerance {TOLERANCE:g})")
    sys.exit(int(not gap <= TOLERANCE))
