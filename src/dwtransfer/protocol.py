"""Two-stage domain-wall transfer protocol and the XY-chain baseline.

The protocol pipeline is:

1. encode the logical payload into Alice's register (domain-wall codec),
   wire and Bob's register all-down;
2. evolve under the transport Hamiltonian for tau = pi/lam, which mirrors
   every domain wall to the opposite end of the chain;
3. switch instantaneously to the reset Hamiltonian (fields removed from
   Bob's register, profile reconfigured) and evolve for another tau,
   returning the wire to all-down;
4. undo the deterministic stage phases and decode Bob's register.

Deterministic phases are tracked per logical branch: a branch is a set of
domain walls, the mirror dynamics of walls is free-fermion hopping on the
interface lattice, and the branch amplitude is a Slater determinant of
the single-particle mirror propagator times the diagonal sector phase
exp(-i E_M tau).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    PauliSum,
    PropagatorConfig,
    StateVector,
    basis_index,
    evolve,
    index_bits,
    realize,
)
from .encoding import (
    BoundaryContext,
    LogicalState,
    PhaseLedger,
    dw_encode_bits,
    phase_ledger,
)
from .hamiltonians import (
    ChainSpec,
    RegisterLayout,
    coupling_profile,
    energy_offset,
    heisenberg_xy,
    multiqubit_reset_hamiltonian,
    transfer_amplitude_closed_form,
    transport_hamiltonian,
)

PEAK_WINDOW = 0.05  # peak search window before the readout time, fractional
FIDELITY_ROUNDOFF = 1e-9  # largest excursion outside [0, 1] clamped silently
TRACE_CHUNK = 10  # trace samples propagated by one evolve call

_CTX = BoundaryContext(left_value=0, right_context=0)


@dataclass(frozen=True)
class ProtocolConfig:
    """Run parameters shared by all protocol drivers.

    ``n_time_samples`` counts trace samples per stage.
    ``pin_first_spin_field`` optionally replaces the hard constraint on
    spin 1 during transport by a strong local -B Z_1 field (restoring the
    t_1 X_1 term the constraint suppresses); ``None`` keeps the exact
    field-free construction.
    """

    spec: ChainSpec = None
    propagator: PropagatorConfig = field(default_factory=PropagatorConfig)
    n_time_samples: int = 200
    apply_phase_correction: bool = True
    pin_first_spin_field: float = None

    def __post_init__(self):
        if self.n_time_samples < 2:
            raise ValueError("n_time_samples must be >= 2")


@dataclass(frozen=True)
class ProtocolResult:
    """Time-resolved traces and the decoded outcome of one protocol run.

    ``final_fidelity`` is the readout fidelity of the logical payload
    Bob receives at the end of the run: the weight of the final state
    on Bob's target (each branch's coefficient and, when corrected, its
    protocol phase, at its final pattern in Bob's register), summed
    over the rest of the chain.  It equals the overlap of the input
    state with Bob's decoded, phase-corrected reduced density matrix.
    The full-chain traces (corrected and uncorrected against the branch
    targets) are reported alongside; ``peak_fidelity`` is the best
    corrected full-chain value within the readout window.
    """

    times: np.ndarray
    fidelity_corrected: np.ndarray
    fidelity_uncorrected: np.ndarray
    sigma_z_trace: np.ndarray  # shape (n_sites, n_times)
    final_logical: LogicalState
    final_fidelity: float
    phases: PhaseLedger
    tau: float
    peak_fidelity: float
    peak_time: float
    final_state: StateVector


@dataclass(frozen=True)
class _Branch:
    """One logical basis branch with its deterministic protocol phase."""

    coefficient: complex
    initial_bits: tuple
    final_bits: tuple
    mirror_phase: complex
    energy_stage1: float
    energy_stage2: float

    def phase_at(self, t: float, tau: float) -> complex:
        t1 = min(t, tau)
        t2 = max(t - tau, 0.0)
        return self.mirror_phase * np.exp(
            -1j * (self.energy_stage1 * t1 + self.energy_stage2 * t2)
        )


def _wall_positions(seq):
    """1-based interface positions carrying a wall in ``seq``: interface
    i lies between its entries i and i + 1."""
    return [i + 1 for i in range(len(seq) - 1) if seq[i] != seq[i + 1]]


def _mirror_propagator(length: int, lam: float, tau: float) -> np.ndarray:
    """Single-particle propagator of walls hopping with bond strengths t_k,
    ``V diag(exp(-i w tau)) V^T`` from the eigensystem of the real
    symmetric hopping matrix."""
    prof = coupling_profile(length, lam)
    w, v = np.linalg.eigh(np.diag(prof.t, 1) + np.diag(prof.t, -1))
    return (v * np.exp(-1j * w * tau)) @ v.T


def _slater_phase(G: np.ndarray, s_in, s_out) -> complex:
    """Transition amplitude between wall configurations (free fermions)."""
    if len(s_in) != len(s_out):
        return 0.0
    if not s_in:
        return 1.0 + 0.0j
    rows = [s - 1 for s in sorted(s_out)]
    cols = [s - 1 for s in sorted(s_in)]
    return complex(np.linalg.det(G[np.ix_(rows, cols)]))


def _from_walls(n: int, walls, right: bool) -> list:
    """Spin pattern of ``n`` spins whose interfaces carry walls exactly at
    ``walls``, read from a down boundary spin: from the left, with
    interface p left of spin p, or, if ``right``, from the right, with
    interface p right of spin p."""
    bits = [0] * n
    acc = 0
    for p in (range(n, 0, -1) if right else range(1, n + 1)):
        if p in walls:
            acc ^= 1
        bits[p - 1] = acc
    return bits


def _build_branches(logical_in: LogicalState, layout: RegisterLayout,
                    spec: ChainSpec):
    """Branch table: initial/final chain patterns and deterministic phases."""
    k = logical_in.n_logical
    N, J, tau = spec.n_spins, spec.j_coupling, spec.tau
    L2 = layout.n_alice + layout.n_wire + 1
    G1 = _mirror_propagator(N, spec.lam, tau)
    G2 = _mirror_propagator(L2, spec.lam, tau)
    branches = []
    for idx in range(2**k):
        c = logical_in.amplitudes[idx]
        if c == 0:
            continue
        b = index_bits(idx, k)
        chain0 = list(dw_encode_bits(b, _CTX)) + [0] * (N - k)
        # stage 1: interface p lies between spins p and p+1, the virtual
        # down spin sits at position N+1; mirror sends p -> N+1-p
        s1 = _wall_positions(chain0 + [0])
        s1_out = {N + 1 - p for p in s1}
        phi1 = _slater_phase(G1, s1, s1_out)
        chain1 = _from_walls(N, s1_out, right=True)
        # stage 2: interface p lies between spins p-1 and p, the virtual
        # down spin sits at position 0; walls at p <= L2 are mobile,
        # walls inside Bob's register are frozen
        s2 = _wall_positions([0] + chain1)
        mobile = [p for p in s2 if p <= L2]
        frozen = [p for p in s2 if p > L2]
        s2_out = [L2 + 1 - p for p in mobile]
        phi2 = _slater_phase(G2, mobile, s2_out)
        chain2 = _from_walls(N, set(s2_out) | set(frozen), right=False)
        branches.append(_Branch(
            coefficient=complex(c),
            initial_bits=tuple(chain0),
            final_bits=tuple(chain2),
            mirror_phase=phi1 * phi2,
            energy_stage1=energy_offset(N, len(s1), J),
            energy_stage2=energy_offset(N, len(s2), J),
        ))
    return branches


def _sigma_z_all(probs: np.ndarray, n: int) -> np.ndarray:
    """``<sigma_z>`` of every spin, spin 1 first, from the basis
    probabilities of one state, shape ``(2^n,)``, or of several, shape
    ``(rows, 2^n)``; the result has shape ``(n,)`` or ``(n, rows)``.

    Spin 1 is the leading bit, so halving the probability vector gives
    its two marginals; summing the halves leaves the distribution of
    the remaining spins.  The sums are folded into ``probs`` in place,
    which allocates no second array of its size and overwrites it.
    """
    lead = probs.shape[:-1]
    out = np.empty((n,) + lead)
    for s in range(n):
        halves = probs.reshape(lead + (2, -1))
        up, down = halves[..., 0, :], halves[..., 1, :]
        out[s] = up.sum(axis=-1) - down.sum(axis=-1)
        probs = np.add(up, down, out=up)
    return out


def _decode_permutation(k: int) -> np.ndarray:
    """perm[logical index] = the physical Bob index decoding to it.

    Transport delivers the payload in mirrored qubit order; the decode
    step reads the interfaces of Bob's register and reverses the result.
    """
    return np.array([
        basis_index(dw_encode_bits(index_bits(idx, k)[::-1], _CTX))
        for idx in range(2**k)
    ])


def _readout(psi: StateVector, layout: RegisterLayout, branches, tau,
             t_read: float, corrected: bool):
    """Decode Bob's register from the final chain state at ``t_read``.

    Every branch ends all down outside Bob's register, so Bob's target
    holds each branch's coefficient, times its phase at ``t_read`` if
    ``corrected``, at the index of its last k spins.  The readout
    fidelity ``||M conj(target)||^2`` sums the target's overlaps with
    the rows of ``M``, one per pattern of the rest of the chain; it is
    the payload's overlap with Bob's decoded, phase-corrected reduced
    density matrix.  Nothing is post-selected, so leakage lowers it.
    The decoded state is the all-down row of ``M``, phases undone, in
    logical order, normalized.
    """
    k = layout.n_bob
    M = psi.amplitudes.reshape(-1, 2**k)
    target = np.zeros(2**k, dtype=complex)
    undo = np.ones(2**k, dtype=complex)
    for br in branches:
        phase = br.phase_at(t_read, tau) if corrected else 1.0
        j = basis_index(br.final_bits[-k:])
        target[j] = br.coefficient * phase
        undo[j] = np.conj(phase)
    f = float(np.linalg.norm(M @ target.conj()) ** 2)
    logical_vec = (undo * M[0])[_decode_permutation(k)]
    nrm = np.linalg.norm(logical_vec)
    if nrm < 1e-12:
        raise RuntimeError("no weight on the decoded register; run diverged")
    return LogicalState(k, logical_vec / nrm), _unit_interval(
        f, "readout fidelity")


def _unit_interval(f: float, what: str) -> float:
    """Clamp a fidelity's round-off into [0, 1]; raise beyond round-off."""
    if not -FIDELITY_ROUNDOFF <= f <= 1.0 + FIDELITY_ROUNDOFF:
        raise RuntimeError(f"{what} {f!r} lies outside [0, 1]")
    return min(max(f, 0.0), 1.0)


def _trace_run(state, stages, branches, N, tau, n_samp, prop):
    """Sample both fidelity traces and the sigma_z trace over all stages.

    ``stages`` holds one function per stage that builds its Hamiltonian.
    Each operator is built when its stage starts and released before the
    next one is built.  A stage is propagated in chunks of
    ``TRACE_CHUNK`` samples; each chunk starts from the last state of the
    one before, and its sigma_z entries come from one ``_sigma_z_all``
    call.  The fidelity targets are the branches' final patterns, each
    weighted by its coefficient and, in the corrected trace, by its
    protocol phase, so both overlaps are read from the state's
    amplitudes at the branches' ``final_bits`` indices alone.
    """
    times = np.linspace(0.0, len(stages) * tau, len(stages) * n_samp + 1)
    dt = times[1] - times[0]
    corrected = np.empty(times.shape)
    uncorrected = np.empty(times.shape)
    sigma_z = np.empty((N, times.shape[0]))
    final = np.array([basis_index(br.final_bits) for br in branches],
                     dtype=np.int64)
    coefficient = np.array([br.coefficient for br in branches], dtype=complex)

    def record(first, states):
        """Trace entries ``first``, ``first + 1``, ... from consecutive
        states; returns the last state."""
        # probabilities row by row: no second complex copy of the states
        probs = np.empty((len(states), 2**N))
        for i, (psi, row) in enumerate(zip(states, probs), first):
            at = psi.amplitudes[final]
            target = [br.coefficient * br.phase_at(times[i], tau)
                      for br in branches]
            corrected[i] = _unit_interval(abs(np.vdot(target, at)) ** 2,
                                          "corrected fidelity")
            uncorrected[i] = _unit_interval(
                abs(np.vdot(coefficient, at)) ** 2, "uncorrected fidelity")
            np.abs(psi.amplitudes, out=row)
        probs **= 2
        sigma_z[:, first:first + len(states)] = _sigma_z_all(probs, N)
        return states[-1]

    record(0, [state])
    i = 1
    for build in stages:
        h = build()
        for start in range(0, n_samp, TRACE_CHUNK):
            steps = np.arange(1, min(TRACE_CHUNK, n_samp - start) + 1) * dt
            # the chunk's states are released before the next evolve
            state = record(i, evolve(state, h, steps, prop))
            i += steps.size
        del h
    return times, corrected, uncorrected, sigma_z, state


def _peak_in_window(times, trace, t_read):
    # the window ends at the readout time, the last sample
    sel = np.nonzero(times >= t_read * (1 - PEAK_WINDOW))[0]
    best = sel[np.argmax(trace[sel])]
    return float(trace[best]), float(times[best])


def _run(layout: RegisterLayout, branches, stages, J: float, tau: float,
         cfg: ProtocolConfig) -> ProtocolResult:
    """Trace and read out one run of the branches in ``branches``.

    ``stages`` holds one function per stage, each run for ``tau``, that
    builds its Hamiltonian; the peak is searched around, and Bob read
    out at, the end of the last stage.
    """
    N = layout.total
    psi0 = np.zeros(2**N, dtype=complex)
    for br in branches:
        psi0[basis_index(br.initial_bits)] += br.coefficient
    times, corr, uncorr, sigma_z, final_state = _trace_run(
        StateVector(N, psi0), stages, branches, N, tau, cfg.n_time_samples,
        cfg.propagator,
    )
    t_read = len(stages) * tau
    peak_f, peak_t = _peak_in_window(times, corr, t_read)
    final_logical, final_f = _readout(
        final_state, layout, branches, tau, t_read,
        corrected=cfg.apply_phase_correction,
    )
    return ProtocolResult(
        times=times,
        fidelity_corrected=corr,
        fidelity_uncorrected=uncorr,
        sigma_z_trace=sigma_z,
        final_logical=final_logical,
        final_fidelity=final_f,
        phases=phase_ledger(N, J, tau, stages=len(stages)),
        tau=tau,
        peak_fidelity=peak_f,
        peak_time=peak_t,
        final_state=final_state,
    )


def run_multi_qubit_transfer(
    logical_in: LogicalState, layout: RegisterLayout, cfg: ProtocolConfig
) -> ProtocolResult:
    """Full two-stage transfer of a multi-qubit payload.

    The payload is encoded into Alice's register, carried to Bob's
    register (in mirrored qubit order, undone by the decode step), and
    the wire reset.  Traces are sampled on a uniform grid over
    [0, 2 tau] with the Hamiltonian switch exactly at tau.
    """
    spec = cfg.spec
    if spec is None:
        raise ValueError("cfg.spec is required for the transfer protocol")
    if spec.layout is None:
        spec = replace(spec, layout=layout)
    elif spec.layout != layout:
        raise ValueError("layout disagrees with cfg.spec.layout")
    if logical_in.n_logical != layout.n_alice:
        raise ValueError(
            f"payload has {logical_in.n_logical} qubits, Alice's register "
            f"has {layout.n_alice}"
        )
    N, tau = spec.n_spins, spec.tau
    branches = _build_branches(logical_in, layout, spec)

    B = cfg.pin_first_spin_field

    def transport():
        h = transport_hamiltonian(spec)
        if B is not None:
            t1 = coupling_profile(N, spec.lam).t[0]
            h = PauliSum(N, h.terms + ((t1, {1: "X"}), (-B, {1: "Z"})))
        return realize(h)

    if B is not None:
        # the pinning energy -B z_1 adds a stage-1 phase per branch
        branches = [
            replace(br, energy_stage1=br.energy_stage1
                    - B * (1.0 - 2.0 * br.initial_bits[0]))
            for br in branches
        ]

    return _run(
        layout, branches,
        (transport, lambda: realize(multiqubit_reset_hamiltonian(spec))),
        spec.j_coupling, tau, cfg,
    )


def run_single_qubit_transfer(
    alpha: complex, beta: complex, cfg: ProtocolConfig
) -> ProtocolResult:
    """Two-stage transfer of alpha|1> + beta|0| stored in spin 1.

    Degenerate case of the multi-qubit protocol with single-spin
    registers: the logical value is the first physical spin itself and
    the stage-2 Hamiltonian reduces to the full-chain reset form.
    """
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-9:
        raise ValueError("|alpha|^2 + |beta|^2 must equal 1")
    spec = cfg.spec
    if spec is None:
        raise ValueError("cfg.spec is required for the transfer protocol")
    layout = spec.layout or RegisterLayout(1, spec.n_spins - 2, 1)
    if layout.n_alice != 1:
        raise ValueError("single-qubit transfer needs single-spin registers")
    if spec.layout is None:
        cfg = replace(cfg, spec=replace(spec, layout=layout))
    logical_in = LogicalState(1, np.array([beta, alpha], dtype=complex))
    return run_multi_qubit_transfer(logical_in, layout, cfg)


def run_heisenberg_baseline(
    N: int, lam: float, logical_in: LogicalState, cfg: ProtocolConfig
) -> ProtocolResult:
    """Perfect-transfer reference: XY chain with engineered couplings.

    The excitation branch arrives at the far end at tau with the known
    mirror phase (-i)^(N-1); the corrected trace and readout include it,
    the uncorrected trace targets the phase-free state.
    """
    if logical_in.n_logical != 1:
        raise ValueError("baseline transfers a single logical qubit")
    tau = np.pi / lam
    beta, alpha = logical_in.amplitudes
    mirror = transfer_amplitude_closed_form(N, lam, tau)
    branches = []
    if beta != 0:
        branches.append(_Branch(complex(beta), (0,) * N, (0,) * N,
                                1.0 + 0j, 0.0, 0.0))
    if alpha != 0:
        branches.append(_Branch(complex(alpha), (1,) + (0,) * (N - 1),
                                (0,) * (N - 1) + (1,), complex(mirror),
                                0.0, 0.0))
    return _run(
        RegisterLayout(1, N - 2, 1), branches,
        (lambda: realize(heisenberg_xy(N, lam)),), 0.0, tau, cfg,
    )
