"""Spans and counters for the benchmark's traced run.

The tracer wraps the calls each dwtransfer layer receives, at the names
the calling module imported, so the program itself is unchanged.  Spans
are kept in memory as ``[id, parent_id, name, start, end]`` lists and
written out once the CLI call has returned.

Span names are the layer names of the per-layer metrics: ``cli``,
``analysis``, ``protocol``, ``hamiltonians``, ``core.realize``,
``core.evolve`` and ``core.eigensystem``.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import time

HAMILTONIAN_BUILDERS = (
    "heisenberg_xy",
    "transport_hamiltonian",
    "multiqubit_reset_hamiltonian",
)


class Tracer:
    """Span stack and named counters of one traced process."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._open = []

    def wrap(self, fn, name, on_result=None):
        """Return ``fn`` recording one span per call.

        ``on_result(bound_arguments, result)`` runs after the span has
        closed, so counting costs nothing inside the measured interval.
        """
        signature = inspect.signature(fn) if on_result else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(self.spans), self._open[-1] if self._open else None,
                      name, time.perf_counter(), None]
            self.spans.append(record)
            self._open.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                self._open.pop()
            if on_result is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_result(bound.arguments, result)
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def install(tracer: Tracer):
    """Wrap every layer boundary of dwtransfer.

    Returns ``cli.main`` wrapped in the top-level ``cli`` span.
    """
    import scipy.sparse as sp
    from dwtransfer import analysis, cli, core, protocol

    counts = tracer.counts

    class CountingCsr(sp.csr_matrix):
        """CSR matrix that counts its products with vectors."""

        def __matmul__(self, other):
            counts["core.evolve.matvecs"] += 1
            counts["core.evolve.matvec_nnz"] += self.nnz
            return super().__matmul__(other)

    def realized(args, op):
        # swap the class in place: same arrays and flags, no copy
        op.matrix.__class__ = CountingCsr
        counts["core.realize.nnz"] += op.matrix.nnz

    def built(args, pauli_sum):
        counts["hamiltonians.terms"] += len(pauli_sum.terms)

    def ran(args, result):
        counts["protocol.runs"] += 1
        counts["protocol.samples"] += len(result.times)

    def swept(args, table):
        counts["analysis.points"] += len(table.rows)

    def checked(args, deviation):
        counts["analysis.points"] += len(args["N_range"]) * args["samples"]

    original_evolve = core.evolve
    original_eigensystem = core.Operator.eigensystem

    @functools.wraps(original_evolve)
    def evolve(*args, **kwargs):
        try:
            return original_evolve(*args, **kwargs)
        except core.KrylovBreakdown:
            counts["core.evolve.breakdowns"] += 1
            raise

    def eigensystem(op):
        if op._eig is None:
            counts["core.eigensystem.computed"] += 1
        return original_eigensystem(op)

    core.Operator.eigensystem = tracer.wrap(eigensystem, "core.eigensystem")

    for module in (protocol, analysis):
        module.realize = tracer.wrap(module.realize, "core.realize", realized)
        module.evolve = tracer.wrap(evolve, "core.evolve")
        for builder in HAMILTONIAN_BUILDERS:
            if hasattr(module, builder):
                setattr(module, builder, tracer.wrap(
                    getattr(module, builder), "hamiltonians", built))
    analysis.run_multi_qubit_transfer = tracer.wrap(
        analysis.run_multi_qubit_transfer, "protocol", ran)
    for runner in ("run_heisenberg_baseline", "run_single_qubit_transfer",
                   "run_multi_qubit_transfer"):
        setattr(cli, runner,
                tracer.wrap(getattr(cli, runner), "protocol", ran))
    cli.error_scaling_sweep = tracer.wrap(
        cli.error_scaling_sweep, "analysis", swept)
    cli.closed_form_consistency = tracer.wrap(
        cli.closed_form_consistency, "analysis", checked)
    return tracer.wrap(cli.main, "cli")


def self_times(spans):
    """Per-name ``(self seconds, span count)`` from a list of spans.

    A span's self time is its duration minus the durations of its direct
    children; the children of one span never overlap because the program
    is single-threaded.
    """
    child_time = collections.defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = collections.defaultdict(lambda: [0.0, 0])
    for span_id, _, name, start, end in spans:
        totals[name][0] += end - start - child_time[span_id]
        totals[name][1] += 1
    return {name: tuple(v) for name, v in totals.items()}
