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

Deterministic phases are tracked per logical branch, in closed form from
its bits: a branch is a set of domain walls, and at tau = pi/lam the
engineered profile mirrors every wall with the perfect-transfer amplitude
(-i)^(L-1) on L interfaces, times a fermionic sign for the walls' reversed
order.  Each stage adds the diagonal sector phase exp(-i E_M tau) of its
wall count M.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
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
    energy_offset,
    heisenberg_xy,
    multiqubit_reset_hamiltonian,
    transport_hamiltonian,
)

PEAK_WINDOW = 0.05  # peak search window before the readout time, fractional
FIDELITY_ROUNDOFF = 1e-9  # largest excursion outside [0, 1] clamped silently
# bytes of the states one evolve call returns: ten at N = 13, where
# twenty add 6.5 MB to the peak RSS of a transfer
TRACE_BYTES = 10 * 16 * 2**13
TRACE_ROWS_MAX = 40  # longer blocks lengthen every row's series product

_CTX = BoundaryContext(left_value=0, right_context=0)


@dataclass(frozen=True)
class ProtocolConfig:
    """Run parameters shared by all protocol drivers.

    ``n_time_samples`` counts trace samples per stage.
    """

    spec: ChainSpec = None
    propagator: PropagatorConfig = field(default_factory=PropagatorConfig)
    n_time_samples: int = 200
    apply_phase_correction: bool = True

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

    def phase_at(self, t, tau: float):
        """The phase at one time, or at each of an array of times."""
        t1 = np.minimum(t, tau)
        t2 = np.maximum(t - tau, 0.0)
        return self.mirror_phase * np.exp(
            -1j * (self.energy_stage1 * t1 + self.energy_stage2 * t2)
        )


def _mirror_phase(L: int, m: int) -> complex:
    """Amplitude P(L, m) = (-i)^((L-1) m) (-1)^(m(m-1)/2) with which one
    mirror time carries ``m`` walls on ``L`` interfaces to their mirror
    images.

    At tau = pi/lam the engineered hopping is a spin-(L-1)/2 rotated by
    pi, so each wall picks up the perfect-transfer amplitude (-i)^(L-1);
    the mirror reverses the walls' order, a fermionic sign.  The
    exponent of -i, m (L + m - 2), is taken mod 4 so the value is exact.
    """
    return (1 + 0j, -1j, -1 + 0j, 1j)[m * (L + m - 2) % 4]


def _bob_pattern(bits) -> tuple:
    """Bob's register pattern of the logical ``bits``: transport delivers
    them in mirrored order, so it is the codec pattern of ``bits``
    reversed, and the decode step reverses them back."""
    return dw_encode_bits(bits[::-1], _CTX)


def _build_branches(logical_in: LogicalState, spec: ChainSpec):
    """Branch table of a payload carried between registers as wide as
    itself, in closed form.

    Branch b starts on its codec pattern in Alice's register and ends on
    its Bob pattern, all down elsewhere.  Stage 1 mirrors its m1 = |b|
    walls across N interfaces (interface p right of spin p, a virtual
    down spin right of spin N).  That leaves spins 1..N-k at m1 mod 2,
    so stage 2 (interface p left of spin p, a virtual down spin left of
    spin 1) mirrors m2 = m1 mod 2 walls across its N - k + 1 interfaces;
    the walls in Bob's register stay.  The wall right of spin N, b's
    first bit, is no wall in stage 2.
    """
    k = logical_in.n_logical
    N, J = spec.n_spins, spec.j_coupling
    branches = []
    for idx in range(2**k):
        c = logical_in.amplitudes[idx]
        if c == 0:
            continue
        b = index_bits(idx, k)
        m1 = sum(b)
        m2 = m1 % 2
        branches.append(_Branch(
            coefficient=complex(c),
            initial_bits=dw_encode_bits(b, _CTX) + (0,) * (N - k),
            final_bits=(0,) * (N - k) + _bob_pattern(b),
            mirror_phase=_mirror_phase(N, m1) * _mirror_phase(N - k + 1, m2),
            energy_stage1=energy_offset(N, m1, J),
            energy_stage2=energy_offset(N, m1 - b[0] + m2, J),
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
    """perm[logical index] = the physical Bob index decoding to it, the
    index of its Bob pattern."""
    return np.array([basis_index(_bob_pattern(index_bits(idx, k)))
                     for idx in range(2**k)])


def _readout(psi: StateVector, k: int, branches, tau, t_read: float,
             corrected: bool):
    """Decode Bob's register, the last ``k`` spins, from the final chain
    state at ``t_read``.

    Every branch ends all down outside Bob's register, so Bob's target
    holds each branch's coefficient, times its phase at ``t_read`` if
    ``corrected``, at the index of its last ``k`` spins.  The readout
    fidelity ``||M conj(target)||^2`` sums the target's overlaps with
    the rows of ``M``, one per pattern of the rest of the chain; it is
    the payload's overlap with Bob's decoded, phase-corrected reduced
    density matrix.  Nothing is post-selected, so leakage lowers it.
    The decoded state is the all-down row of ``M``, phases undone, in
    logical order, normalized.
    """
    M = psi.amplitudes.reshape(-1, 2**k)
    target = np.zeros(2**k, dtype=complex)
    undo = np.ones(2**k, dtype=complex)
    for br in branches:
        phase = br.phase_at(t_read, tau) if corrected else 1.0
        j = basis_index(br.final_bits[-k:])
        target[j] = br.coefficient * phase
        undo[j] = np.conj(phase)
    overlaps = M @ target.conj()
    f = float(np.vdot(overlaps, overlaps).real)
    logical_vec = (undo * M[0])[_decode_permutation(k)]
    nrm = np.sqrt(np.vdot(logical_vec, logical_vec).real)
    if nrm < 1e-12:
        raise RuntimeError("no weight on the decoded register; run diverged")
    return LogicalState(k, logical_vec / nrm), _unit_interval(
        f, "readout fidelity")


def _unit_interval(f, what: str):
    """Clamp the round-off of a fidelity, or of an array of them, into
    [0, 1]; raise, naming the first offender, beyond round-off."""
    f = np.asarray(f, dtype=float)
    bad = np.flatnonzero(~((f >= -FIDELITY_ROUNDOFF)
                           & (f <= 1.0 + FIDELITY_ROUNDOFF)))
    if bad.size:
        raise RuntimeError(
            f"{what} {float(f.flat[bad[0]])!r} lies outside [0, 1]")
    f = np.clip(f, 0.0, 1.0)
    return float(f) if f.ndim == 0 else f


def trace_rows(n_spins: int) -> int:
    """Trace samples propagated by one ``evolve`` call on ``n_spins``
    spins: as many as fit ``TRACE_BYTES``, between 1 and
    ``TRACE_ROWS_MAX``."""
    return min(max(TRACE_BYTES // (16 * 2**n_spins), 1), TRACE_ROWS_MAX)


def _trace_run(state, stages, branches, N, tau, n_samp, prop):
    """Sample both fidelity traces and the sigma_z trace over all stages.

    ``stages`` holds one function per stage that builds its Hamiltonian.
    Each operator is built when its stage starts and released before the
    next one is built.  A stage is propagated in blocks of
    ``trace_rows(N)`` samples; each block starts from the last state of
    the one before and is recorded as a whole.  The fidelity targets are
    the branches' final patterns, each weighted by its coefficient and,
    in the corrected trace, by its protocol phase, so both overlaps are
    read from the states' amplitudes at the branches' ``final_bits``
    indices alone.
    """
    times = np.linspace(0.0, len(stages) * tau, len(stages) * n_samp + 1)
    dt = times[1] - times[0]
    block = trace_rows(N)
    corrected = np.empty(times.shape)
    uncorrected = np.empty(times.shape)
    sigma_z = np.empty((N, times.shape[0]))
    final = np.array([basis_index(br.final_bits) for br in branches],
                     dtype=np.int64)
    coefficient = np.array([br.coefficient for br in branches], dtype=complex)

    def record(first, rows):
        """Trace entries ``first``, ``first + 1``, ... from consecutive
        state rows."""
        span = slice(first, first + len(rows))
        at = rows[:, final]
        target = np.empty(at.shape, dtype=complex)
        for b, br in enumerate(branches):
            target[:, b] = br.coefficient * br.phase_at(times[span], tau)
        corrected[span] = _unit_interval(
            np.abs((target.conj() * at).sum(axis=1)) ** 2,
            "corrected fidelity")
        uncorrected[span] = _unit_interval(
            np.abs(at @ coefficient.conj()) ** 2, "uncorrected fidelity")
        # squared in place: one real array of the rows' size, alive only
        # while the block is recorded, not through the next evolve
        probs = np.abs(rows)
        probs **= 2
        sigma_z[:, span] = _sigma_z_all(probs, N)

    record(0, state.amplitudes[None])
    i = 1
    for build in stages:
        h = build()
        for start in range(0, n_samp, block):
            steps = np.arange(1, min(block, n_samp - start) + 1) * dt
            # the block's rows are released before the next evolve
            rows = evolve(state, h, steps, prop)
            record(i, rows)
            state = StateVector(N, rows[-1])
            i += steps.size
            del rows
        del h
    return times, corrected, uncorrected, sigma_z, state


def _peak_in_window(times, trace, t_read):
    # the window ends at the readout time, the last sample
    sel = np.nonzero(times >= t_read * (1 - PEAK_WINDOW))[0]
    best = sel[np.argmax(trace[sel])]
    return float(trace[best]), float(times[best])


def _run(N: int, k: int, branches, stages, J: float, tau: float,
         cfg: ProtocolConfig) -> ProtocolResult:
    """Trace and read out one run of the branches in ``branches`` on
    ``N`` spins, with Bob's register the last ``k``.

    ``stages`` holds one function per stage, each run for ``tau``, that
    builds its Hamiltonian; the peak is searched around, and Bob read
    out at, the end of the last stage.
    """
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
        final_state, k, branches, tau, t_read,
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
    logical_in: LogicalState, cfg: ProtocolConfig
) -> ProtocolResult:
    """Full two-stage transfer of a k-qubit payload.

    Alice's and Bob's registers are the first and the last k spins of
    the chain, k the payload's width; the chain needs at least 2k spins.
    The payload is encoded into Alice's register, carried to Bob's
    register (in mirrored qubit order, undone by the decode step), and
    the wire reset.  Traces are sampled on a uniform grid over
    [0, 2 tau] with the Hamiltonian switch exactly at tau.
    """
    spec = cfg.spec
    if spec is None:
        raise ValueError("cfg.spec is required for the transfer protocol")
    k = logical_in.n_logical
    reset = multiqubit_reset_hamiltonian(spec, k)  # raises unless 2k <= N
    return _run(
        spec.n_spins, k, _build_branches(logical_in, spec),
        (lambda: realize(transport_hamiltonian(spec)),
         lambda: realize(reset)),
        spec.j_coupling, spec.tau, cfg,
    )


def run_single_qubit_transfer(
    alpha: complex, beta: complex, cfg: ProtocolConfig
) -> ProtocolResult:
    """Two-stage transfer of alpha|1> + beta|0> stored in spin 1: the
    multi-qubit protocol with single-spin registers, on the same payload
    check as every other, :class:`LogicalState`'s."""
    logical_in = LogicalState(1, np.array([beta, alpha], dtype=complex))
    return run_multi_qubit_transfer(logical_in, cfg)


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
    branches = []
    if beta != 0:
        branches.append(_Branch(complex(beta), (0,) * N, (0,) * N,
                                1.0 + 0j, 0.0, 0.0))
    if alpha != 0:
        branches.append(_Branch(complex(alpha), (1,) + (0,) * (N - 1),
                                (0,) * (N - 1) + (1,), _mirror_phase(N, 1),
                                0.0, 0.0))
    return _run(
        N, 1, branches, (lambda: realize(heisenberg_xy(N, lam)),), 0.0,
        tau, cfg,
    )
