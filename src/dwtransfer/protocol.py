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
run in reverse: the domain-wall approximation (``wall_conserving``) of
the reset stage of one-spin registers at J = 0 hops one wall along the
N interfaces left of spin N with the XY chain's profile and sign, so XY
spin n up is a wall on interface n - 1.  Any other payload and the
dense reference propagator run on the 2^N amplitudes; ``path_class``
makes the choice.

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
    PropagatorConfig,
    basis_index,
    evolve,
    index_bits,
    realize,
    reflect,
)
from .encoding import LogicalState, dw_encode_bits
from .hamiltonians import (
    energy_offset,
    heisenberg_xy,
    multiqubit_reset_hamiltonian,
    transport_hamiltonian,
    wall_conserving,
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
    """XY-chain perfect transfer reference: one J = 0 stage, its mirror
    phase always corrected (class attributes, no manifest fields)"""

    j_coupling = 0.0
    apply_phase_correction = True

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

    ``phases`` is the ``phases`` block of ``summary.json``: ``n tau E_M``
    for n stages of tau that all keep M walls, E_M the sector's diagonal
    energy ``energy_offset(N, M, J)``: the global phase at M = 0 and,
    relative to the zero-wall branch, ``n tau (E_M - E_0)``, keyed by
    ``str(M)``.  The branch table applies stage 2 at ``m1 - b0 + m2``
    walls instead (|11> has 2 walls in stage 1, 1 in stage 2); reporting
    the applied phases is ROADMAP item 3.
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


def _decoded(row, undo, path):
    """The payload decoded from the rest-all-down ``row``, phases undone,
    in logical order, normalized; None on a window-only ``path``.  A
    ``row`` without weight raises ``EmptyReadout`` of the run's J/lam."""
    nrm = np.sqrt(np.vdot(row, row).real)
    if nrm < 1e-12:
        raise EmptyReadout(path.run.j_coupling / path.run.lam)
    if path.window_only:
        return None
    return LogicalState(path.k, (undo * row)[_decode_permutation(path.k)]
                        / nrm)


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


def _start_window(pairs):
    """The Majoranas of the interfaces some pattern's walls occupy, and
    the covariance there of the Fock states of ``pairs`` (spin pattern,
    coefficient) superposed.  Every other interface is empty in every
    pattern, so no Jordan-Wigner sign enters."""
    occupied = np.array([fermions.walls(bits) for bits, _ in pairs])
    modes = np.flatnonzero(occupied.any(axis=0))
    amp = np.zeros(2**modes.size, dtype=complex)
    for walls, (_, c) in zip(occupied, pairs):
        amp[basis_index(walls[modes])] += c
    majoranas = np.stack([2 * modes, 2 * modes + 1], axis=1).ravel()
    return majoranas, fermions.covariance(amp)


class _Path:
    """Both propagation paths, each serving one ``Transfer`` or
    ``Baseline`` ``run``: Bob's register of ``k`` spins, the stage time
    ``tau``, the branches and ``plain``, each branch's coefficient at its
    ``bob``, which ``phases`` corrects.  No stage is restricted by default."""

    sectors = None  # the Bob sectors the last stage keeps, None for all

    def __init__(self, run, branches, window_only: bool = False):
        self.run, self.branches, self.window_only = run, branches, window_only
        self.n_spins, self.k = run.n_spins, run.state.n_logical
        self.tau = math.pi / run.lam
        self.plain = np.zeros(2**self.k, dtype=complex)
        for br in branches:
            self.plain[br.bob] = br.coefficient

    def phases(self, times) -> np.ndarray:
        """Each branch's protocol phase at each of ``times`` at its
        ``bob``, 1 elsewhere: shape ``(len(times), 2^k)``."""
        out = np.ones((len(times), 2**self.k), dtype=complex)
        for br in self.branches:
            out[:, br.bob] = br.phase_at(times, self.tau)
        return out

    @staticmethod
    def restrict(state):
        return state

    @staticmethod
    def series_footprint(run) -> float:  # no Chebyshev table to hold
        return -math.inf


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

    # 2^N-amplitude vectors a run holds at once: a trace block of outputs
    # (one row above N = 13), the probabilities and the Chebyshev ring;
    # the realized operator and its build add about 3 more per spin
    STATE_VECTORS = 48
    # bytes of the Jacobi-Anger table of one Chebyshev evolve call, per row
    # and per unit of a t + 64 (a the half-width of H's spectrum): up to 5.5
    # FFT points per unit (measured for a t up to 3e4), each of 32 bytes
    # while the exponentials and their FFT are alive
    SERIES_BYTES = 192

    def __init__(self, run, branches, window_only: bool = False):
        super().__init__(run, branches, window_only)
        self.propagator = run.propagator
        self.block = trace_rows(run.n_spins)
        self.sectors = self.plain != 0 if window_only else None
        self.scale = 1.0  # the norm the kept sectors held
        # the last operator realized, the chain reversal of its Pauli
        # sum, and the chain reversal of the basis indices when the
        # stage built last is that
        self.operator = self.mirror = self.flip = None

    @classmethod
    def footprint(cls, run) -> float:
        """log2 of the bytes of ``STATE_VECTORS`` + 3 N vectors of 2^N
        amplitudes, among them the stage's start ``_trace_run`` holds on
        top of the row ``propagate`` composes from and, under a ``flip``,
        that row's copy in the chain's order; and, on the dense path, the
        peak of ``Operator.components`` and ``_evolve_exact``.

        A payload occupies at most two components: the XY baseline's
        excitation sectors, of at most N states, or a transfer's two
        spin-1 sectors of 2^(N - 1) (transport keeps spin 1; the reset
        stage's are smaller).  Each is two real mirror halves, a
        transfer's of at most h = 2^(N - 2) + 2^(N//2 - 1) states with
        the mirror's fixed points.  The last ``eigh`` holds eight real
        h x h matrices: three halves done, and the fourth's block,
        LAPACK's copy of it, its 2 h^2 workspace and its eigenvectors.
        ``_evolve_exact`` holds an output block of ``trace_rows(N)``
        states and three blocks of a component's width."""
        N = run.n_spins
        log2_need = N + math.log2(16 * (cls.STATE_VECTORS + 3 * N))
        if run.propagator.method == "krylov":
            return log2_need
        if isinstance(run, Baseline):
            width = half = math.log2(N)
        else:
            width = N - 1
            half = N - 2 + math.log2(1 + 2.0 ** (N // 2 + 1 - N))
        # log2 of trace_rows(N), unrounded, with no 2^N formed
        rows = min(max(math.log2(TRACE_BYTES / 16) - N, 0),
                   math.log2(TRACE_ROWS_MAX))
        blocks = 4 + rows + np.logaddexp2(N, math.log2(3) + width)
        return np.logaddexp2(np.logaddexp2(log2_need, 6 + 2 * half), blocks)

    @classmethod
    def series_footprint(cls, run) -> float:
        """log2 of the bytes of the largest Jacobi-Anger table a Chebyshev
        transfer builds: ``SERIES_BYTES`` per row and per unit of ``a t +
        64``, over a block of ``trace_rows(N)`` samples or one jump across
        a stage of tau = pi/lam.  ``a``, the half-width of the spectrum,
        is bounded by each stage's coefficient 1-norm."""
        if run.propagator.method != "krylov":
            return -math.inf
        norm = max(sum(abs(c) for c, _ in stage.terms)
                   for stage in transfer_stages(run))
        at = norm * math.pi / run.lam  # inf beyond the float range, never nan
        rows = min(trace_rows(run.n_spins), run.n_time_samples)
        return math.log2(cls.SERIES_BYTES) + max(
            math.log2(rows) + math.log2(at * rows / run.n_time_samples + 64),
            math.log2(at + 64))

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
        self.reached = 0, None  # the stage's sample propagated last, its row
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

    def propagate(self, start, h, ks, dt):
        """The rows at samples ``ks`` (at ``ks dt``) of the stage that
        began at ``start``, and the last.  A Chebyshev series grows with t,
        so each call composes from the row the last reached (``start``
        after ``build``; reversed under a ``flip``), first jumping to the
        sample before a block past it, unless it is the stage's end alone."""
        flip = slice(None) if self.flip is None else self.flip
        at, psi = self.reached if self.reached[0] else (0, start[flip])
        if at + 1 < ks[0] < self.run.n_time_samples:
            psi = evolve(psi, h, np.array([(ks[0] - 1 - at) * dt]),
                         self.propagator)[0]
            at = ks[0] - 1
        rows = evolve(psi, h, (ks - at) * dt, self.propagator)
        # a copy: a view would keep the block's rows alive
        self.reached = ks[-1], rows[-1].copy()
        return rows[:, flip], self.reached[1][flip]

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

    def readout(self, psi, target):
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
    stacks of ``fermions.stack_rows`` samples, each sample from its
    stage's start, so the stacks bound memory alone.

    A full-chain fidelity is the probability that the chain outside
    Bob's register is all down, times Bob's target overlap on the
    covariance conditioned on that; the readout fidelity is the same
    overlap unconditioned.  The rest-all-down row comes from the
    amplitudes of ``fermions.amplitudes``.  A ``window_only`` run reads
    the corrected fidelity alone, and at the readout the readout
    fidelity and whether Bob's register is empty.
    """

    sigma_z = staticmethod(fermions.sigma_z)  # <Z_n> of a covariance stack
    # complex matrices of the size of the readout Pfaffians, 4N + 2k + 6, a
    # run holds at once besides its stacks of covariances
    PFAFFIAN_MATRICES = 8

    def __init__(self, run, branches, window_only: bool = False):
        super().__init__(run, branches, window_only)
        self.block = self._stack(run.n_spins)[0]
        self.window = fermions.Window(self.k)

    @staticmethod
    def _stack(n_spins: int) -> tuple:  # covariances per evolve, bytes of one
        item = 8 * (2 * n_spins + 2) ** 2
        return fermions.stack_rows(item), item

    @classmethod
    def footprint(cls, run) -> float:
        """log2 of the bytes of ``PFAFFIAN_MATRICES`` matrices and eight
        stacks of covariances, as many as a ``block``."""
        rows, item = cls._stack(run.n_spins)
        width = 4 * run.n_spins + 2 * run.state.n_logical + 6
        return np.logaddexp2(
            math.log2(16 * cls.PFAFFIAN_MATRICES) + 2 * math.log2(width),
            math.log2(8 * rows * item))

    def start(self) -> np.ndarray:
        """The empty chain with the payload's walls (``_start_window``)."""
        self.stages = []  # this run's stage operators, once built
        majoranas, window = _start_window(
            [(br.initial_bits, br.coefficient) for br in self.branches])
        m = fermions.fock_covariance((0,) * (self.n_spins + 1))
        m[np.ix_(majoranas, majoranas)] = window
        return m

    def build(self, pauli_sum):
        h = realize(pauli_sum, majorana=True)
        self.stages.append(h)
        return h

    @staticmethod
    def propagate(start, h, ks, dt):  # each row from the stage's start
        # a view, where _Amplitudes copies: it keeps one stack alive, and
        # a copy slowed the bundled |1> at N = 13 from 17.2-18.7 to
        # 19.5-20.6 ms (best of 30 runs, one BLAS thread, 2-core machine)
        rows = evolve(start, h, ks * dt)
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

    def readout(self, m, target):
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
        amps = fermions.amplitudes(self.stages, self.tau, final, initial)
        return f, amps @ [br.coefficient for br in self.branches]


class _XYWalls(_Covariances):
    """The XY baseline on free fermions: XY spin n up is a wall on
    interface n - 1, and the one stage, the domain-wall approximation of
    the reset stage of one-spin registers at J = 0 (``wall_conserving``),
    hops that wall along interfaces 0..N-1 with the XY chain's profile
    and sign.  The payload's excitation comes with a static partner wall
    on interface N, so that it is even.  As spin patterns of the Ising
    chain, its branch runs from all up (walls on interfaces 0 and N) to
    spin N alone up (walls on N - 1 and N), and all down stays all
    down.  Bob's register, the trace overlaps and the readout are the
    transfer's with k = 1."""

    @staticmethod
    def sigma_z(rows: np.ndarray) -> np.ndarray:
        """XY ``<Z_n> = -M_2n-2,2n-1 = 1 - 2 <n_q>``, q = n - 1 the
        interface of spin n's wall, n = 1..N, of each covariance of a
        stack; shape ``(N, rows)``."""
        q = np.arange(rows.shape[-1] // 2 - 1)
        return -rows[:, 2 * q, 2 * q + 1].T


def path_class(run) -> type:
    """The path ``run`` propagates on: on ``"krylov"``, free fermions for
    the XY baseline and for a payload of at most ``FREE_FERMION_QUBITS``
    qubits, Gaussian on the wall fermions; else the 2^N amplitudes.  Its
    walls start on interfaces 0..k alone, so this is O(1) in N."""
    k = run.state.n_logical  # 1 for the XY baseline
    if run.propagator.method != "krylov" or k > FREE_FERMION_QUBITS:
        return _Amplitudes
    if isinstance(run, Baseline):
        return _XYWalls
    _, window = _start_window([(dw_encode_bits(index_bits(idx, k)), c)
                               for idx, c in enumerate(run.state.amplitudes)
                               if c != 0])
    return _Covariances if fermions.is_gaussian(window) else _Amplitudes


def _window_start(times) -> int:
    """Index of the first sample of the peak window, which ends at the
    readout time, the last sample."""
    return int(np.searchsorted(times, times[-1] * (1 - PEAK_WINDOW)))


def _trace_run(path, state, stages):
    """Sample both fidelity traces and the sigma_z trace over all stages,
    each of ``path.tau`` in the run's ``n_time_samples`` steps.

    ``stages`` holds each stage's Hamiltonian as a Pauli sum; ``path``,
    a ``_Path``, realizes it when its stage starts (``path.build``,
    which decides what outlives the stage), propagates and reads the
    samples.  Each block of ``path.block`` samples is handed the state
    its stage started in (``path.propagate``) and recorded as a whole,
    against Bob's target of each sample: the branches' coefficients
    times their protocol phases, each at its ``bob``.

    On a ``path.window_only`` path only the corrected trace at the
    samples of the peak window, at the end of the last stage, is
    recorded and returned, with None for the uncorrected and the sigma_z
    trace; a stage that ends before the window asks for its end alone.
    The last stage starts from ``path.restrict(state)``.
    """
    n, n_samp = len(stages), path.run.n_time_samples
    times = np.linspace(0.0, n * path.tau, n * n_samp + 1)
    dt = times[1] - times[0]
    first = _window_start(times) if path.window_only else 0
    corrected = np.empty(times.size - first)
    uncorrected = sigma_z = None
    if not path.window_only:
        uncorrected = np.empty(corrected.shape)
        sigma_z = np.empty((path.n_spins, corrected.size))

    def record(i, rows):
        """Trace entries of samples i, i + 1, ... from consecutive rows."""
        span = slice(i - first, i - first + len(rows))
        target = path.plain * path.phases(times[i:i + len(rows)])
        corr, uncorr, sz = path.read(rows, target)
        corrected[span] = _unit_interval(corr, "corrected fidelity")
        if sigma_z is not None:
            uncorrected[span] = _unit_interval(uncorr,
                                               "uncorrected fidelity")
            sigma_z[:, span] = sz

    if not first:
        record(0, state[None])
    for s, pauli_sum in enumerate(stages):
        h = path.build(pauli_sum)
        start = path.restrict(state) if s == n - 1 else state
        lo = max(first - s * n_samp, 1)  # the stage's first sample kept
        # its blocks from lo on, or its end alone when it keeps none
        for a in range(min(lo, n_samp), n_samp + 1, path.block):
            rows, state = path.propagate(
                start, h, np.arange(a, min(a + path.block, n_samp + 1)), dt)
            if a >= lo:
                record(s * n_samp + a, rows)
            del rows  # released before the next block
        del h, start  # the path alone decides what outlives the stage
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


def _run(path, stages) -> ProtocolResult:
    """Trace and read out the run ``path`` serves (``path.run``: chain,
    time grid, J and phase correction), from ``path.start()``.

    ``stages`` holds each stage's Hamiltonian as a Pauli sum, each run
    for tau = pi/lam; the peak is searched around, and Bob read out at,
    the end of the last stage, where ``path.readout`` gives the readout
    fidelity and the rest-all-down row that is decoded.  On a
    ``window_only`` path the run computes the peak, the readout fidelity
    and the empty-register refusal alone (see ``_trace_run``).
    """
    N, tau, n = path.n_spins, path.tau, len(stages)
    offsets = [energy_offset(N, M, path.run.j_coupling) for M in range(N + 1)]
    times, corr, uncorr, sigma_z, final_state = _trace_run(
        path, path.start(), stages)
    peak_f, peak_t = _peak_in_window(times, corr)
    phases = (path.phases(np.array([n * tau]))[0]
              if path.run.apply_phase_correction
              else np.ones(2**path.k, dtype=complex))
    final_f, row = path.readout(final_state, path.plain * phases)
    final_logical = (None if row is None
                     else _decoded(row, phases.conj(), path))
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
    switch exactly at tau.  The run takes the path of
    ``path_class(run)``: free fermions or the 2^N amplitudes.  A J/lam that
    leaves Bob's register empty at the readout raises ``EmptyReadout``,
    a ``ValueError``.

    ``window_only`` computes only what a sweep point reads: the peak,
    ``final_fidelity`` and the ``EmptyReadout`` refusal, equal to those
    of the full run bit for bit on free fermions, which take each
    sample from its stage's start, and to round-off on the state
    vector.  It skips every sample outside the
    peak window, the last ``PEAK_WINDOW`` of the run, so ``times`` and
    the corrected trace hold the window's samples alone; the uncorrected
    trace, sigma_z and the decoded payload are None.  On the state
    vector the reset stage then propagates only the Bob sectors of the
    branches' final patterns (``_Amplitudes.restrict``), and a point that
    leaves them empty is redone on a window-only path of every sector.
    """
    path_type, branches = path_class(run), _build_branches(run)
    path = path_type(run, branches, window_only)
    stages = transfer_stages(run)
    try:
        return _run(path, stages)
    except EmptyReadout:
        if path.sectors is None:
            raise
        path = path_type(run, branches, window_only)
        path.sectors = None
    return _run(path, stages)


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
    path_type = path_class(run)
    fermionic = path_type is _XYWalls
    branches = []
    if beta != 0:
        branches.append(_Branch(complex(beta), (0,) * N, 0, 1.0 + 0j,
                                0.0, 0.0))
    if alpha != 0:
        up = (1,) * N if fermionic else (1,) + (0,) * (N - 1)
        branches.append(_Branch(complex(alpha), up, 1, _mirror_phase(N, 1),
                                0.0, 0.0))
    stage = (wall_conserving(multiqubit_reset_hamiltonian(N, 0.0, lam, 1))
             if fermionic else heisenberg_xy(N, lam))
    return _run(path_type(run, branches), (stage,))
