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

A transfer whose payload is Gaussian on the wall fermions (every 1- and
2-qubit payload, W and cluster3, not GHZ) runs on free fermions by
default: its state is the (2N + 2)^2 Majorana covariance of
``fermions``.  So does the XY baseline, by the paper's construction
run in reverse: the reset stage of one-spin registers at J = 0, with
its pair-creation terms dropped, hops one wall along the N interfaces
left of spin N with the XY chain's profile and sign, so XY spin n up is
a wall on interface n - 1.  Any other payload and the dense reference
propagator run on the 2^N amplitudes; ``free_fermion`` makes the
choice.

Deterministic phases are tracked per logical branch, in closed form from
its bits: a branch is a set of domain walls, and at tau = pi/lam the
engineered profile mirrors every wall with the perfect-transfer amplitude
(-i)^(L-1) on L interfaces, times a fermionic sign for the walls' reversed
order.  Each stage adds the diagonal sector phase exp(-i E_M tau) of its
wall count M.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import fermions
from .core import (
    MajoranaOperator,
    PropagatorConfig,
    basis_index,
    evolve,
    index_bits,
    majorana_form,
    realize,
    reflect,
)
from .encoding import LogicalState, dw_encode_bits
from .hamiltonians import (
    energy_offset,
    heisenberg_xy,
    multiqubit_reset_hamiltonian,
    transport_hamiltonian,
)

PEAK_WINDOW = 0.05  # peak search window before the readout time, fractional
# largest excursion outside [0, 1] clamped silently, and the spread within
# which samples of the peak window tie for the peak
FIDELITY_ROUNDOFF = 1e-9
# bytes of the states one evolve call returns: ten at N = 13, where
# twenty add 6.5 MB to the peak RSS of a transfer
TRACE_BYTES = 10 * 16 * 2**13
TRACE_ROWS_MAX = 40  # longer blocks lengthen every row's series product
RATIO_WARN_THRESHOLD = 8.0  # |J|/lam below which the error law breaks down
# widest payload on free fermions, whose readout sums 4^k Wick terms.
# A product payload, 200 samples per stage, J/lam = 22 N/13, in-process:
# k = 4 takes 0.14 s on free fermions against 0.89 s on the state
# vector at N = 13; k = 5 0.64 against 0.81 s at N = 13 but 0.58
# against 0.14 s at N = 11; k = 6 8.5 against 0.54 s at N = 13
FREE_FERMION_QUBITS = 4


def _check_chain(run) -> None:
    """Refuse a chain, a lam or a time grid no run can use; each
    message names its field."""
    if run.n_spins < 2:
        raise ValueError(f"field 'n_spins' must be >= 2, got {run.n_spins}")
    if not run.lam > 0:
        raise ValueError(f"field 'lam' must be positive, got {run.lam}")
    if run.n_time_samples < 2:
        raise ValueError(
            f"field 'n_time_samples' must be >= 2, got {run.n_time_samples}")


@dataclass(frozen=True)
class Baseline:
    """XY-chain perfect transfer reference"""

    n_spins: int
    lam: float
    state: LogicalState
    n_time_samples: int = 200  # trace samples per stage
    propagator: PropagatorConfig = PropagatorConfig()

    def __post_init__(self):
        _check_chain(self)
        if self.state.n_logical != 1:
            raise ValueError("field 'state' must be a single qubit")


@dataclass(frozen=True)
class Transfer:
    """two-stage domain-wall transfer between registers as wide as the
    payload"""

    n_spins: int
    lam: float
    j_coupling: float
    state: LogicalState
    apply_phase_correction: bool = True
    n_time_samples: int = 200  # trace samples per stage
    propagator: PropagatorConfig = PropagatorConfig()

    def __post_init__(self):
        _check_chain(self)
        k = self.state.n_logical
        if 2 * k > self.n_spins:
            raise ValueError(
                f"field 'state' has {k} qubits: registers of {k} spins at "
                f"both ends need n_spins >= {2 * k}, got {self.n_spins}"
            )
        if abs(self.j_coupling) < RATIO_WARN_THRESHOLD * self.lam:
            warnings.warn(
                f"|J|/lam = {abs(self.j_coupling) / self.lam:.2f} < "
                f"{RATIO_WARN_THRESHOLD:g}: the quadratic error law breaks "
                "down and transfer fidelity degrades",
                stacklevel=3,
            )


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
    targets) are reported alongside, at every sample;
    ``peak_fidelity`` is the best corrected full-chain value within the
    readout window.

    A ``window_only`` run holds the corrected trace at the readout
    window's samples alone, and None for ``fidelity_uncorrected``,
    ``sigma_z_trace`` and ``final_logical``, which it never computes.

    ``phases`` is the ``phases`` block of ``summary.json``: ``stages``
    stages of tau add ``stages tau E_M`` to the M-wall sector, E_M its
    diagonal energy ``energy_offset(N, M, J)``, the one the branch table
    applies.  That is the global phase at M = 0 and, relative to the
    zero-wall branch, ``stages tau (E_M - E_0)``, keyed by ``str(M)``.
    """

    times: np.ndarray
    fidelity_corrected: np.ndarray
    fidelity_uncorrected: np.ndarray | None
    sigma_z_trace: np.ndarray | None  # shape (n_sites, n_times)
    final_logical: LogicalState | None
    final_fidelity: float
    phases: dict
    tau: float
    peak_fidelity: float
    peak_time: float


@dataclass(frozen=True)
class _Branch:
    """One logical basis branch with its deterministic protocol phase;
    it ends on Bob's pattern of basis index ``bob``, all down outside."""

    coefficient: complex
    initial_bits: tuple
    bob: int
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


def _decode_permutation(k: int) -> np.ndarray:
    """perm[logical index] = the basis index of its pattern in Bob's
    register.  Transport delivers the logical bits in mirrored order, so
    that is the codec pattern of the bits reversed; the decode step
    reverses them back."""
    return np.array([basis_index(dw_encode_bits(index_bits(idx, k)[::-1]))
                     for idx in range(2**k)])


def _build_branches(run: Transfer):
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
    k = run.state.n_logical
    N, J = run.n_spins, run.j_coupling
    perm = _decode_permutation(k)
    branches = []
    for idx in range(2**k):
        c = run.state.amplitudes[idx]
        if c == 0:
            continue
        b = index_bits(idx, k)
        m1 = sum(b)
        m2 = m1 % 2
        branches.append(_Branch(
            coefficient=complex(c),
            initial_bits=dw_encode_bits(b) + (0,) * (N - k),
            bob=int(perm[idx]),
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


class EmptyReadout(ValueError):
    """A J/lam that leaves no weight on Bob's decoded register."""

    def __init__(self, ratio: float):
        super().__init__(ratio)
        self.ratio = ratio

    def __str__(self):
        return (f"fields 'j_coupling' and 'lam': J/lam = {self.ratio:.6g} "
                "leaves no weight on Bob's decoded register")


def _bob_target(k: int, branches, tau, t_read: float, corrected: bool):
    """Bob's target at ``t_read`` and the phases that undo it, by the
    basis index of Bob's ``k`` spins: each branch's coefficient, times
    its phase if ``corrected``, at its ``bob``."""
    target = np.zeros(2**k, dtype=complex)
    undo = np.ones(2**k, dtype=complex)
    for br in branches:
        phase = br.phase_at(t_read, tau) if corrected else 1.0
        target[br.bob] = br.coefficient * phase
        undo[br.bob] = np.conj(phase)
    return target, undo


def _decoded(row, undo, k: int, ratio: float, decode: bool):
    """The payload decoded from the rest-all-down ``row``, phases undone,
    in logical order, normalized; None without ``decode``.  A ``row``
    without weight raises ``EmptyReadout(ratio)``, ``ratio`` J/lam."""
    nrm = np.sqrt(np.vdot(row, row).real)
    if nrm < 1e-12:
        raise EmptyReadout(ratio)
    if decode:
        return LogicalState(k, (undo * row)[_decode_permutation(k)] / nrm)
    return None


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


def free_fermion(run) -> bool:
    """Whether ``run`` propagates on free fermions: on the default
    ``"krylov"`` propagator, the XY baseline and a ``Transfer`` whose
    payload, of at most ``FREE_FERMION_QUBITS`` qubits, is Gaussian on
    the wall fermions.  Every other run propagates its 2^N
    amplitudes."""
    return run.propagator.method == "krylov" and (
        isinstance(run, Baseline)
        or (run.state.n_logical <= FREE_FERMION_QUBITS
            and fermions.is_gaussian(_start_window(_build_branches(run))[1])))


def _start_window(branches):
    """The Majoranas of the interfaces that some branch's walls occupy
    at the start, and the covariance there of the branches' Fock
    states, superposed with their coefficients.  Every other interface
    is empty in every branch, so no Jordan-Wigner sign enters."""
    occupied = np.array([fermions.walls(br.initial_bits) for br in branches])
    modes = np.flatnonzero(occupied.any(axis=0))
    amp = np.zeros(2**modes.size, dtype=complex)
    for walls, br in zip(occupied, branches):
        amp[basis_index(walls[modes])] += br.coefficient
    majoranas = np.stack([2 * modes, 2 * modes + 1], axis=1).ravel()
    return majoranas, fermions.covariance(amp)


class _Path:
    """Both propagation paths: the branches, Bob's register of ``k``
    spins and ``plain``, the uncorrected target there, each branch's
    coefficient at its ``bob``.  No stage is restricted by default."""

    sectors = None  # the Bob sectors the last stage keeps, None for all

    def __init__(self, run, k: int, branches, window_only: bool = False):
        self.n_spins, self.k, self.branches = run.n_spins, k, branches
        self.window_only = window_only
        self.plain = np.zeros(2**k, dtype=complex)
        for br in branches:
            self.plain[br.bob] = br.coefficient

    @staticmethod
    def restrict(state):
        return state


class _Amplitudes(_Path):
    """The state-vector path: the chain's 2^N amplitudes, propagated by
    ``evolve`` on each stage's realized Hamiltonian in blocks of
    ``trace_rows(N)`` samples.  A stage whose Pauli sum is the chain
    reversal of the one realized before, as a k = 1 transfer's reset
    stage is its transport stage (``transport_hamiltonian``), is
    propagated through that operator (``build``), so its eigensystems
    serve both stages: the dense path's window-only |1> point takes two
    ``eigh`` at N = 9, a full run four.  Both fidelity overlaps are read
    on the rest-all-down row, the first 2^k amplitudes, and sigma_z from
    the probabilities of every basis state.  A ``window_only`` run reads
    the corrected overlap alone and propagates its last stage on the Bob
    sectors that hold a branch's final pattern alone (``restrict``).
    """

    def __init__(self, run, k: int, branches, window_only: bool = False):
        super().__init__(run, k, branches, window_only)
        self.propagator = run.propagator
        self.block = trace_rows(run.n_spins)
        if window_only:
            self.sectors = self.plain != 0
        self.scale = 1.0  # the norm the kept sectors held
        # the last operator realized, the chain reversal of its Pauli
        # sum, and the chain reversal of the basis indices when the
        # stage built last is that
        self.operator = self.mirror = self.flip = None

    def start(self) -> np.ndarray:
        psi0 = np.zeros(2**self.n_spins, dtype=complex)
        for br in self.branches:
            psi0[basis_index(br.initial_bits)] += br.coefficient
        return psi0

    def build(self, pauli_sum):
        """The operator of a stage: the one realized last when
        ``pauli_sum`` equals its Pauli sum reversed
        (``PauliSum.reversed``), which ``propagate`` then applies through
        the chain reversal ``flip``; else ``pauli_sum`` realized once the
        one before is released, so at most one is alive."""
        if pauli_sum == self.mirror:
            self.flip = reflect(np.arange(2**self.n_spins),
                                range(self.n_spins))
            return self.operator
        self.operator = self.flip = None
        self.operator = realize(pauli_sum)
        self.mirror = pauli_sum.reversed()
        return self.operator

    def restrict(self, psi):
        """The state the last stage starts from: with ``sectors``, its
        amplitudes there alone, renormalized, their norm in ``scale``
        (all of it if that is 0).  The reset stage puts no field on
        Bob's register, so each sector of Bob's spins evolves on its
        own; the traces and the readout fidelity read only the branch
        targets' sectors, scaled back by ``scale``."""
        self.scale = 1.0
        if self.sectors is None:
            return psi
        kept = (psi.reshape(-1, self.sectors.size) * self.sectors).ravel()
        norm = float(np.linalg.norm(kept))
        if not norm:
            return psi
        self.scale = norm
        return kept / norm

    def propagate(self, psi, h, steps):
        """Rows of ``psi`` at ``steps`` under ``h``, in the original
        basis: with the ``flip`` R of the last ``build``, ``exp(-i H t) =
        R exp(-i h t) R``, H the stage ``h`` is the reversal of."""
        if self.flip is None:
            rows = evolve(psi, h, steps, self.propagator)
        else:
            rows = evolve(psi[self.flip], h, steps,
                          self.propagator)[:, self.flip]
        # a copy: a view would keep the block's rows alive
        return rows, rows[-1].copy()

    def read(self, rows, target):
        """The corrected and uncorrected overlaps and sigma_z of
        consecutive states, ``target`` holding Bob's target of each; a
        window-only run reads the corrected overlap alone."""
        at = rows[:, :2**self.k] * self.scale
        corrected = np.abs((target.conj() * at).sum(axis=1)) ** 2
        if self.window_only:
            return corrected, None, None
        # squared in place: one real array of the rows' size, alive only
        # while the block is recorded, not through the next evolve
        probs = np.abs(rows)
        probs **= 2
        uncorrected = np.abs(at @ self.plain.conj()) ** 2
        return corrected, uncorrected, _sigma_z_all(probs, self.n_spins)

    def readout(self, psi, target, tau):
        """The readout fidelity ``||M conj(target)||^2`` of the final
        amplitudes ``psi`` and ``M``'s rest-all-down row, M's rows one
        per pattern of the rest of the chain.  That fidelity is the
        payload's overlap with Bob's decoded, phase-corrected reduced
        density matrix; nothing is post-selected, so leakage lowers it.
        ``einsum`` calls no BLAS: a product this thin would start a
        second BLAS thread, whose wake-up costs more than the sums."""
        M = (psi * self.scale).reshape(-1, 2**self.k)
        overlaps = np.einsum("ij,j->i", M, target.conj())
        return float(np.vdot(overlaps, overlaps).real), M[0]


class _Covariances(_Path):
    """The free-fermion path: the (2N + 2)^2 Majorana covariance,
    propagated by ``evolve`` under each stage's ``MajoranaOperator`` in
    stacks of ``fermions.stack_rows`` samples, each sample from the
    stack's start.

    A full-chain fidelity is the probability that the chain outside
    Bob's register is all down, times Bob's target overlap on the
    covariance conditioned on that; the readout fidelity is the same
    overlap unconditioned.  The rest-all-down row comes from the
    amplitudes of ``fermions.amplitudes``.  A ``window_only`` run reads
    the corrected fidelity alone, and at the readout the readout
    fidelity and whether Bob's register is empty.
    """

    sigma_z = staticmethod(fermions.sigma_z)  # <Z_n> of a covariance stack

    def __init__(self, run, k: int, branches, window_only: bool = False):
        super().__init__(run, k, branches, window_only)
        self.block = fermions.stack_rows(8 * (2 * run.n_spins + 2) ** 2)
        self.window = fermions.Window(k)
        self.stages = []  # each stage's operator, once built

    def start(self) -> np.ndarray:
        """The empty chain with the payload's walls (``_start_window``)."""
        majoranas, window = _start_window(self.branches)
        m = fermions.fock_covariance((0,) * (self.n_spins + 1))
        m[np.ix_(majoranas, majoranas)] = window
        return m

    def build(self, pauli_sum):
        h = realize(pauli_sum, majorana=True)
        self.stages.append(h)
        return h

    @staticmethod
    def propagate(m, h, steps):
        rows = evolve(m, h, steps)
        return rows, rows[-1]

    def read(self, rows, target):
        p, kept, cond = fermions.rest_empty(rows, self.n_spins - self.k)
        pf = self.window.pfaffians(cond[:, 1:, 1:])
        corrected = np.zeros(len(rows))
        corrected[kept] = p[kept] * self.window.overlaps(pf, target[kept])
        if self.window_only:
            return corrected, None, None
        uncorrected = np.zeros(len(rows))
        uncorrected[kept] = p[kept] * self.window.overlaps(pf, self.plain)
        return corrected, uncorrected, self.sigma_z(rows)

    def readout(self, m, target, tau):
        """The readout fidelity and the rest-all-down row, whose squared
        norm is the probability ``fermions.rest_empty`` reads from ``m``.
        A window-only run returns None for the row when that exceeds
        ``EMPTY_FLOOR``; at or below it, where its round-off can exceed
        it, the row itself decides."""
        N, k = self.n_spins, self.k
        majoranas = slice(2 * (N - k) + 1, None)  # Bob's 2k + 1
        f = self.window.overlaps(
            self.window.pfaffians(m[None, majoranas, majoranas]), target)[0]
        if self.window_only and (fermions.rest_empty(m[None], N - k)[0][0]
                                 > fermions.EMPTY_FLOOR):
            return f, None
        final = [fermions.walls((0,) * (N - k) + tuple(index_bits(j, k)))
                 for j in range(2**k)]
        initial = [fermions.walls(br.initial_bits) for br in self.branches]
        return f, fermions.amplitudes(self.stages, tau, final, initial) @ [
            br.coefficient for br in self.branches]


class _XYWalls(_Covariances):
    """The XY baseline on free fermions: XY spin n up is a wall on
    interface n - 1, and the one stage is the reset stage of one-spin
    registers at J = 0 without its pair-creation terms, which hops that
    wall along interfaces 0..N-1 with the XY chain's profile and sign.
    The payload's excitation comes with a static partner wall on
    interface N, so that it is even.  As spin patterns of the Ising
    chain, its branch runs from all up (walls on interfaces 0 and N) to
    spin N alone up (walls on N - 1 and N), and all down stays all
    down.  Bob's register, the trace overlaps and the readout are the
    transfer's with k = 1.
    """

    def build(self, pauli_sum):
        """The stage without its pair-creation terms: ``(A + W A W^T) /
        2``, W the rotation by pi/2 in each mode's Majorana pair, which
        keeps the hopping terms of A and flips the sign of its pair
        terms."""
        a = majorana_form(pauli_sum)
        w = np.kron(np.eye(self.n_spins + 1), [[0.0, -1.0], [1.0, 0.0]])
        h = MajoranaOperator((a + w @ a @ w.T) / 2)
        self.stages.append(h)
        return h

    @staticmethod
    def sigma_z(rows: np.ndarray) -> np.ndarray:
        """XY ``<Z_n> = -M_2n-2,2n-1 = 1 - 2 <n_q>``, q = n - 1 the
        interface of spin n's wall, n = 1..N, of each covariance of a
        stack; shape ``(N, rows)``."""
        q = np.arange(rows.shape[-1] // 2 - 1)
        return -rows[:, 2 * q, 2 * q + 1].T


def _window_start(times) -> int:
    """Index of the first sample of the peak window, which ends at the
    readout time, the last sample."""
    return int(np.searchsorted(times, times[-1] * (1 - PEAK_WINDOW)))


def _trace_run(path, state, stages, tau, n_samp):
    """Sample both fidelity traces and the sigma_z trace over all stages.

    ``stages`` holds each stage's Hamiltonian as a Pauli sum; ``path``,
    a ``_Path``, realizes it, propagates ``state`` and reads the
    samples.  ``path.build`` makes each stage's operator when its stage
    starts.  On the state vector it holds one operator at a time: it
    releases the one before, or, for a stage whose Pauli sum is the
    chain reversal of the one before (a k = 1 transfer's reset stage),
    propagates through it again (``_Amplitudes.build``), so such a
    transfer realizes and diagonalizes one operator.  Free fermions keep
    every stage's normal modes for the readout.  A stage is propagated
    in blocks of ``path.block`` samples; each block starts from the last
    state of the one before and is recorded as a whole, against Bob's
    target of each sample: the branches' coefficients times their
    protocol phases, each at its ``bob``.

    On a ``path.window_only`` path only the corrected trace at the
    samples of the peak window, at the end of the last stage, is
    recorded and returned, with None for the uncorrected and the sigma_z
    trace: a stage that ends before the window is propagated to its end
    in one ``evolve`` call, and the last stage jumps in one call to the
    sample before the window, then records the window in blocks.  The
    last stage starts from ``path.restrict(state)``.
    """
    times = np.linspace(0.0, len(stages) * tau, len(stages) * n_samp + 1)
    dt = times[1] - times[0]
    first = _window_start(times) if path.window_only else 0
    corrected = np.empty(times.size - first)
    uncorrected = sigma_z = None
    if not path.window_only:
        uncorrected = np.empty(corrected.shape)
        sigma_z = np.empty((path.n_spins, corrected.size))

    def record(i, rows):
        """Trace entries of samples ``i``, ``i + 1``, ... from
        consecutive states."""
        at = times[i:i + len(rows)]
        span = slice(i - first, i - first + len(rows))
        target = np.zeros((len(rows), 2**path.k), dtype=complex)
        for br in path.branches:
            target[:, br.bob] = br.coefficient * br.phase_at(at, tau)
        corr, uncorr, sz = path.read(rows, target)
        corrected[span] = _unit_interval(corr, "corrected fidelity")
        if sigma_z is not None:
            uncorrected[span] = _unit_interval(uncorr,
                                               "uncorrected fidelity")
            sigma_z[:, span] = sz

    if not first:
        record(0, state[None])
    i = 1  # the next sample
    for s, pauli_sum in enumerate(stages):
        h = path.build(pauli_sum)
        if s == len(stages) - 1:
            state = path.restrict(state)
        end = i + n_samp
        skip = min(max(first - i, 0), n_samp)  # samples before the window
        if skip:
            _, state = path.propagate(state, h, np.array([skip * dt]))
            i += skip
        while i < end:
            steps = np.arange(1, min(path.block, end - i) + 1) * dt
            # the block's rows are released before the next one
            rows, state = path.propagate(state, h, steps)
            record(i, rows)
            i += steps.size
            del rows
        del h  # the path alone decides what outlives the stage
    return times[first:], corrected, uncorrected, sigma_z, state


def _peak_in_window(times, trace):
    """The peak of ``trace`` in the peak window and its time: the latest
    sample within ``FIDELITY_ROUNDOFF`` of the window's maximum, so that
    round-off does not pick the sample of a flat trace."""
    start = _window_start(times)
    window = trace[start:]
    best = start + int(np.flatnonzero(
        window >= window.max() - FIDELITY_ROUNDOFF)[-1])
    return float(trace[best]), float(times[best])


def _run(run, path, stages, J: float = 0.0,
         corrected: bool = True) -> ProtocolResult:
    """Trace and read out one run on the chain and time grid of ``run``
    along ``path``, which holds the branches and Bob's register.

    ``stages`` holds each stage's Hamiltonian as a Pauli sum, each run
    for pi/lam; the peak is searched around, and Bob read out at, the
    end of the last stage, where ``path.readout`` gives the readout
    fidelity and the rest-all-down row that is decoded.  On a
    ``window_only`` path the run computes the peak, the readout fidelity
    and the empty-register refusal alone (see ``_trace_run``).
    """
    N, tau, n = run.n_spins, math.pi / run.lam, len(stages)
    offsets = [energy_offset(N, M, J) for M in range(N + 1)]
    times, corr, uncorr, sigma_z, final_state = _trace_run(
        path, path.start(), stages, tau, run.n_time_samples)
    peak_f, peak_t = _peak_in_window(times, corr)
    target, undo = _bob_target(path.k, path.branches, tau, n * tau,
                               corrected)
    final_f, row = path.readout(final_state, target, tau)
    final_logical = None
    if row is not None:
        final_logical = _decoded(row, undo, path.k, J / run.lam,
                                 not path.window_only)
    return ProtocolResult(
        times=times,
        fidelity_corrected=corr,
        fidelity_uncorrected=uncorr,
        sigma_z_trace=sigma_z,
        final_logical=final_logical,
        final_fidelity=_unit_interval(final_f, "readout fidelity"),
        phases={"global_phase": n * tau * offsets[0],
                "relative_phase_per_M": {
                    str(M): -n * tau * (offsets[0] - offsets[M])
                    for M in range(N + 1)}},
        tau=tau,
        peak_fidelity=peak_f,
        peak_time=peak_t,
    )


def run_multi_qubit_transfer(run: Transfer, *,
                             window_only: bool = False) -> ProtocolResult:
    """Full two-stage transfer of a k-qubit payload.

    Alice's and Bob's registers are the first and the last k spins of
    the chain, k the payload's width.  The payload is encoded into
    Alice's register, carried to Bob's register (in mirrored qubit
    order, undone by the decode step), and the wire reset.  Traces are
    sampled on a uniform grid over [0, 2 tau] with the Hamiltonian
    switch exactly at tau.  The run is on free fermions when
    ``free_fermion(run)``, else on the 2^N amplitudes.  A J/lam that
    leaves Bob's register empty at the readout raises ``EmptyReadout``,
    a ``ValueError``.

    ``window_only`` computes only what a sweep point reads: the peak,
    ``final_fidelity`` and the ``EmptyReadout`` refusal, equal to those
    of the full run to round-off.  It skips every sample outside the
    peak window, the last ``PEAK_WINDOW`` of the run, so ``times`` and
    the corrected trace hold the window's samples alone; the uncorrected
    trace, sigma_z and the decoded payload are None.  On the state
    vector the reset stage then propagates only the Bob sectors of the
    branches' final patterns (``_Amplitudes.restrict``); when those
    leave the rest-all-down row empty at the readout, the refusal needs
    the whole row, and the run is redone on every sector.
    """
    path = (_Covariances if free_fermion(run) else _Amplitudes)(
        run, run.state.n_logical, _build_branches(run), window_only)
    stages = transfer_stages(run)
    try:
        return _run(run, path, stages, run.j_coupling,
                    run.apply_phase_correction)
    except EmptyReadout:
        if path.sectors is None:
            raise
    path.sectors = None
    return _run(run, path, stages, run.j_coupling, run.apply_phase_correction)


def transfer_stages(run: Transfer) -> tuple:
    """The Pauli sums of a transfer's stages, each run for pi/lam:
    transport, then the reset of the wire."""
    N, J, lam, k = run.n_spins, run.j_coupling, run.lam, run.state.n_logical
    return (transport_hamiltonian(N, J, lam),
            multiqubit_reset_hamiltonian(N, J, lam, k))


def run_single_qubit_transfer(alpha: complex, beta: complex,
                              **fields) -> ProtocolResult:
    """Two-stage transfer of alpha|1> + beta|0> stored in spin 1: the
    multi-qubit protocol with single-spin registers, on the same payload
    check as every other, :class:`LogicalState`'s.  ``fields`` are the
    other fields of its :class:`Transfer`."""
    state = LogicalState(1, np.array([beta, alpha], dtype=complex))
    return run_multi_qubit_transfer(Transfer(state=state, **fields))


def run_heisenberg_baseline(run: Baseline) -> ProtocolResult:
    """Perfect-transfer reference: XY chain with engineered couplings.

    The excitation branch arrives at the far end at tau with the known
    mirror phase (-i)^(N-1); the corrected trace and readout include it,
    the uncorrected trace targets the phase-free state.  On
    ``"krylov"`` the chain runs on free fermions (``_XYWalls``), on
    ``"exact-eigendecomposition"`` on the 2^N amplitudes under
    ``heisenberg_xy``, the independent computation.
    """
    N, lam = run.n_spins, run.lam
    beta, alpha = run.state.amplitudes
    fermionic = free_fermion(run)
    branches = []
    if beta != 0:
        branches.append(_Branch(complex(beta), (0,) * N, 0, 1.0 + 0j,
                                0.0, 0.0))
    if alpha != 0:
        up = (1,) * N if fermionic else (1,) + (0,) * (N - 1)
        branches.append(_Branch(complex(alpha), up, 1, _mirror_phase(N, 1),
                                0.0, 0.0))
    path = (_XYWalls if fermionic else _Amplitudes)(run, 1, branches)
    stage = (multiqubit_reset_hamiltonian(N, 0.0, lam, 1) if fermionic
             else heisenberg_xy(N, lam))
    return _run(run, path, (stage,))
