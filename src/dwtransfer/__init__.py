"""Quantum state transfer on transverse-field Ising chains via domain-wall encoding.

The package simulates a two-step transfer protocol: a mirror-symmetric
transverse-field profile carries a domain wall from one end of an Ising
chain to the other (transport stage), then a reconfigured field profile
resets the wire and leaves the payload on the receiving register (reset
stage).  The exact XY-chain protocol with engineered couplings is included
as the reference baseline.
"""

from .core import (
    Operator,
    PauliSum,
    PropagatorConfig,
    evolve,
    realize,
)
from .hamiltonians import (
    coupling_profile,
    energy_offset,
    heisenberg_xy,
    multiqubit_reset_hamiltonian,
    transfer_amplitude_closed_form,
    transport_hamiltonian,
)
from .encoding import (
    LogicalState,
    dw_encode_bits,
)
from .protocol import (
    Baseline,
    ProtocolResult,
    Transfer,
    run_heisenberg_baseline,
    run_multi_qubit_transfer,
    run_single_qubit_transfer,
)
from .analysis import (
    SweepTable,
    closed_form_consistency,
    error_scaling_sweep,
)

__version__ = "0.1.0"
