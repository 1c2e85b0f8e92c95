"""Command-line entry point: run experiments from JSON manifests.

Subcommands ``baseline``, ``transfer``, ``sweep``, ``consistency`` each
read a flat JSON manifest (``--config``) and write CSV/JSON files into
``--out``.  The fields of each manifest are declared once, as the
dataclass of its experiment (``protocol.Baseline`` and
``protocol.Transfer``, the library's own run records, and ``Sweep`` and
``Consistency``): the annotation of each field is its kind, and a field
with a default may be left out.  Every CSV starts with the manifest, as
read, in a ``#`` comment line, so any data file is reproducible on its
own.  Floats are printed with 17 significant digits; identical manifests
produce byte-identical outputs.

Exit codes: 0 on success, 1 on invalid input, 2 when an ``--assert-*``
check fails.
"""

import argparse
import csv
import io
import itertools
import json
import math
import sys
import typing
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .analysis import (
    CONSISTENCY_N_MAX,
    closed_form_consistency,
    error_scaling_sweep,
)
from .core import PropagatorConfig
from .encoding import LogicalState
from .protocol import (
    Baseline,
    EmptyReadout,
    ProtocolResult,
    Transfer,
    _Covariances,
    _check_chain,
    path_class,
    run_heisenberg_baseline,
    run_multi_qubit_transfer,
    run_single_qubit_transfer,  # not called here: perfbench/spans.py wraps it
)

SLOPE_TARGET = -2.0
SLOPE_BAND_DEFAULT = 0.3
MEMORY_LIMIT_GIB = 4  # largest estimated footprint a run may start with
# longest chain a free-fermion run may take.  At N = 200 a |1> transfer
# takes 16.0 s in-process at 200 samples per stage, led by sigma_z and
# the covariances, and 3.1-3.4 s at 20, led by the readout's two complex
# Pfaffians (2.1 s); raising the cap is ROADMAP item 10
FREE_FERMION_SPINS_MAX = 200
# bytes per sampled trace value: 8 in its array, and a share of the few
# MB the rest of the run and _write_run's blocks of at most 2^14 values
# add.  tracemalloc peak of a whole transfer run through main(), writer
# included, per trace value: 17.4 at N = 5 with 20 000 samples per stage
# and 8.6 with 300 000 (free fermions), 9.5 for GHZ at N = 7 with
# 100 000 (state vector); rounded up
TRACE_VALUE_BYTES = 32
# bytes a run adds whatever its size: its first calls' modules and
# caches, and BLAS's packing buffers.  Peak RSS above an import-only
# process less the path's estimate, two BLAS threads: 1.9 MB for dense
# |1> at N = 5, up to 5.5 MB for dense GHZ at N = 12 (a 1056-row eigh)
RUN_FIXED_BYTES = 5.5 * 2**20
# largest |J| N/lam a transfer may take: its stage phases J N pi/lam
# then hold about 3e6 radians, and free fermions match the dense path
# within 1.7e-9 over every output (N = 5, 9, 13; 40 samples per stage,
# payload alpha|1> + beta|0>), against 8.9e-9 at 1e7 and 1.9e-7 at 1e8
PHASE_RATIO_MAX = 1e6


class ManifestError(ValueError):
    """Invalid or missing manifest field; message names the field."""


@dataclass(frozen=True)
class Sweep:
    """infidelity vs J/lambda sweep and log-log fit"""

    n_spins: int
    lam: float
    ratios: list
    states: list  # of payloads, each with an optional label
    n_time_samples: int = 200
    propagator: PropagatorConfig = PropagatorConfig()

    def __post_init__(self):
        _check_chain(self)  # the chain every Transfer of the sweep shares


@dataclass(frozen=True)
class Consistency:
    """closed-form amplitude consistency check"""

    lam: float
    n_min: int = 2
    n_max: int = 10
    samples: int = 20


_TYPE_NAMES = {bool: "true or false", str: "a string", list: "a list",
               dict: "an object"}


def _load(schema, manifest: dict):
    """The ``schema`` dataclass filled from ``manifest``.

    Each field present is checked by the kind its annotation declares;
    an absent one takes its default, and is an error if it has none.
    Fields the schema does not declare are ignored.
    """
    kinds = typing.get_type_hints(schema)
    values = {}
    for f in fields(schema):
        if f.name in manifest:
            values[f.name] = _value(kinds[f.name], manifest[f.name], f.name)
        elif f.default is MISSING:
            raise ManifestError(f"manifest field '{f.name}' is missing")
    return schema(**values)


def _value(kind, raw, field: str):
    """One manifest value of the given kind.

    A ``float`` or ``int`` is a finite JSON number, not a boolean; an
    ``int`` has an integral value, e.g. ``5`` or ``5.0``.
    """
    if kind in (float, int):
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ManifestError(
                f"manifest field '{field}' must be a number, got "
                f"{type(raw).__name__}"
            )
        try:
            finite = math.isfinite(raw)
        except OverflowError:  # an integer beyond the float range
            raise ManifestError(
                f"manifest field '{field}' must be finite, got an integer "
                "too large for a float") from None
        if not finite:
            raise ManifestError(
                f"manifest field '{field}' must be finite, got {raw}"
            )
        if kind is int and not float(raw).is_integer():
            raise ManifestError(
                f"manifest field '{field}' must be an integer, got {raw}"
            )
        return kind(raw)
    if kind is LogicalState:
        return _payload(raw, field)
    if kind is PropagatorConfig:
        try:
            return PropagatorConfig(method=raw)
        except ValueError as exc:
            raise ManifestError(f"manifest field '{field}': {exc}") from exc
    # a JSON boolean, string, list or object, used as read
    if not isinstance(raw, kind):
        raise ManifestError(
            f"manifest field '{field}' must be {_TYPE_NAMES[kind]}, got "
            f"{type(raw).__name__}"
        )
    return raw


def _amplitude(item, field: str) -> complex:
    """One amplitude: a finite number or a finite ``[re, im]`` pair."""
    if isinstance(item, list) and len(item) == 2:
        return complex(_value(float, item[0], field),
                       _value(float, item[1], field))
    return complex(_value(float, item, field))


def _amplitudes(raw, field: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise ManifestError(f"manifest field '{field}' must be a non-empty list")
    out = [_amplitude(item, field) for item in raw]
    n = len(out)
    if n & (n - 1):
        raise ManifestError(f"manifest field '{field}' length must be a power of 2")
    return np.asarray(out, dtype=complex)


def _payload(raw, field: str) -> LogicalState:
    """The payload: ``alpha``/``beta`` of one qubit (``alpha|1> +
    beta|0>``), or the ``amplitudes`` of any number of qubits, not
    both."""
    if not isinstance(raw, dict):
        raise ManifestError(f"manifest field '{field}' must be an object")
    if "alpha" in raw or "beta" in raw:
        if "amplitudes" in raw:
            raise ManifestError(
                f"manifest field '{field}.amplitudes' cannot be given with "
                f"'{field}.alpha'/'{field}.beta'")
        alpha = _amplitude(raw.get("alpha", 0.0), f"{field}.alpha")
        beta = _amplitude(raw.get("beta", 0.0), f"{field}.beta")
        amps = np.array([beta, alpha], dtype=complex)
    elif "amplitudes" in raw:
        amps = _amplitudes(raw["amplitudes"], f"{field}.amplitudes")
    else:
        raise ManifestError(f"manifest field '{field}.amplitudes' is missing")
    try:
        return LogicalState(int(np.log2(amps.size)), amps)
    except ValueError as exc:
        raise ManifestError(
            f"manifest field '{field}' is invalid: {exc}") from exc


def _check_memory(field: str, value, log2_need: float, hint: str = ""):
    """Refuse a run whose estimated memory per process, 2^``log2_need``
    bytes, exceeds ``MEMORY_LIMIT_GIB``; the message names ``field``."""
    if log2_need > math.log2(MEMORY_LIMIT_GIB * 2**30):
        raise ManifestError(
            f"manifest field '{field}' is {value:.6g}: the run needs about "
            f"2^{log2_need:.4g} bytes, above the {MEMORY_LIMIT_GIB} GiB "
            f"limit{hint}"
        )


def _check_footprint(run,
                     ratio_field: str = "fields 'j_coupling' and 'lam'"
                     ) -> float:
    """Refuse a run (a ``Baseline`` or a ``Transfer``) too large for
    ``MEMORY_LIMIT_GIB`` or too slow, naming the field to change, or
    ``ratio_field`` for J/lam; else return log2 of its bytes: those of
    the path ``protocol.path_class`` picks, ``TRACE_VALUE_BYTES`` per
    trace value and ``RUN_FIXED_BYTES``, all compared by log2."""
    N, path = run.n_spins, path_class(run)
    fermionic = issubclass(path, _Covariances)
    if fermionic and N > FREE_FERMION_SPINS_MAX:
        raise ManifestError(
            f"manifest field 'n_spins' is {N}: free-fermion runs take "
            f"at most {FREE_FERMION_SPINS_MAX} spins, as their time "
            "grows about as N^3 per sample (ROADMAP item 2a)")
    log2_need = np.logaddexp2(path.footprint(run), math.log2(RUN_FIXED_BYTES))
    _check_memory("n_spins", N, log2_need, "" if fermionic else
                  "; chains this long need the free-fermion backend "
                  "(ROADMAP item 2)")
    log2_need = np.logaddexp2(log2_need, path.series_footprint(run))
    if log2_need > math.log2(MEMORY_LIMIT_GIB * 2**30):
        raise ManifestError(
            f"manifest {ratio_field}: J/lam = "
            f"{run.j_coupling / run.lam:.6g} needs a Chebyshev series "
            f"table of about 2^{log2_need:.4g} bytes, above the "
            f"{MEMORY_LIMIT_GIB} GiB limit")
    phase_ratio = abs(run.j_coupling) * N / run.lam  # 0 for a baseline
    if phase_ratio > PHASE_RATIO_MAX:
        raise ManifestError(
            f"manifest {ratio_field}: |J| N/lam = {phase_ratio:.6g} is "
            f"above {PHASE_RATIO_MAX:g}, where double precision no "
            "longer resolves the stage phases J N pi/lam")
    log2_need = np.logaddexp2(log2_need, math.log2(TRACE_VALUE_BYTES * (
        N + 3)) + math.log2(2 * run.n_time_samples + 1))
    _check_memory("n_time_samples", run.n_time_samples, log2_need)
    return log2_need


def _read_manifest(path: str, experiment: str) -> dict:
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise ManifestError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ManifestError("manifest must be a JSON object")
    declared = manifest.get("experiment")
    if declared is not None and declared != experiment:
        raise ManifestError(
            f"manifest field 'experiment' is '{declared}', expected "
            f"'{experiment}'"
        )
    manifest.setdefault("experiment", experiment)
    manifest.setdefault("unit", "dimensionless")
    return manifest


def _write_csv(path: Path, manifest: dict, chunks):
    """The ``#`` manifest line, then each string of ``chunks`` in turn."""
    blob = json.dumps(manifest, sort_keys=True, separators=(", ", ": "))
    with open(path, "w", newline="") as fh:
        fh.write(f"# manifest: {blob}\n")
        fh.writelines(chunks)


def _write_json(path: Path, manifest: dict, payload: dict):
    doc = {"manifest": manifest, **payload}
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_run(out: Path, manifest: dict, result: ProtocolResult):
    """The traces and the summary of one protocol run.

    Each trace file is formatted in blocks of samples, each block one
    %-format on Python floats: the same text as format(x, ".17g") value
    by value.  In sigma_z.csv each time is formatted once, into the
    template of its sample's lines, whose site numbers are literal
    text.  A value takes about 185 bytes while it is formatted, so a
    block of at most 2^14 sigma_z values bounds that to a few MB.
    """
    times, sigma_z = result.times, result.sigma_z_trace
    n_sites = sigma_z.shape[0]
    step = max(2**14 // n_sites, 1)  # samples per block
    spans = [slice(i, i + step) for i in range(0, times.size, step)]

    def fidelity(span):
        block = np.column_stack([times[span],
                                 result.fidelity_corrected[span],
                                 result.fidelity_uncorrected[span]])
        return ("%.17g,%.17g,%.17g\n" * len(block)
                % tuple(block.ravel().tolist()))

    lines = [f",{n},%.17g\n" for n in range(1, n_sites + 1)]

    def sites(span):
        t = times[span]
        stamps = ("%.17g\n" * t.size % tuple(t.tolist())).split("\n")[:-1]
        template = "".join([stamp + line for stamp in stamps
                            for line in lines])
        return template % tuple(sigma_z[:, span].T.ravel().tolist())

    _write_csv(out / "fidelity_trace.csv", manifest, itertools.chain(
        ["t,fidelity_corrected,fidelity_uncorrected\n"],
        map(fidelity, spans)))
    _write_csv(out / "sigma_z.csv", manifest, itertools.chain(
        ["t,site,sigma_z\n"], map(sites, spans)))
    _write_json(out / "summary.json", manifest, {
        "final_fidelity": result.final_fidelity,
        "peak_fidelity": result.peak_fidelity,
        "peak_time": result.peak_time,
        "tau": result.tau,
        "phases": result.phases,
        "final_logical": [
            [float(a.real), float(a.imag)]
            for a in result.final_logical.amplitudes
        ],
    })


def cmd_run(run: Baseline | Transfer, manifest: dict, out: Path,
            args) -> int:
    _check_footprint(run)
    runner = (run_heisenberg_baseline if isinstance(run, Baseline)
              else run_multi_qubit_transfer)
    _write_run(out, manifest, runner(run))
    return 0


def cmd_sweep(run: Sweep, manifest: dict, out: Path, args) -> int:
    if args.workers < 1:
        raise ValueError(
            f"option '--workers' must be >= 1, got {args.workers}")
    band = args.assert_slope
    if band is not None and not 0 <= band < math.inf:
        raise ValueError(f"option '--assert-slope' must be a finite number "
                         f">= 0, got {band}")
    ratios = [_value(float, r, "ratios") for r in run.ratios]
    # the rows are keyed by (label, ratio): a repeated key would write
    # rows no reader can tell apart, and fit them all
    if not (ratios and all(r > 0 for r in ratios)
            and len(set(ratios)) == len(ratios)):
        raise ManifestError(
            "manifest field 'ratios' must be a non-empty list of distinct "
            "positive numbers"
        )
    if not run.states:
        raise ManifestError("manifest field 'states' must be a non-empty list")
    runs, labels = [], set()
    for i, raw in enumerate(run.states):
        field = f"states[{i}]"
        logical = _payload(raw, field)
        label = _value(str, raw.get("label", f"state{i}"), f"{field}.label")
        if label in labels:  # a repeated key, as above
            raise ManifestError(
                f"manifest field '{field}.label' repeats {label!r}")
        labels.add(label)
        try:
            runs.extend(
                (label, ratio, Transfer(
                    run.n_spins, run.lam, ratio * run.lam, logical,
                    n_time_samples=run.n_time_samples,
                    propagator=run.propagator))
                for ratio in ratios)
        except ValueError as exc:
            raise ManifestError(
                f"manifest field '{field}' is invalid: {exc}") from exc
    for _, _, transfer in runs:
        _check_footprint(transfer, "field 'ratios'")
    try:
        table = error_scaling_sweep(runs, args.workers)
    except EmptyReadout as exc:
        raise ManifestError(
            f"manifest field 'ratios' holds J/lam = {exc.ratio:.6g}, which "
            "leaves no weight on Bob's decoded register") from exc
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["state", "ratio", "infidelity", "transfer_time"])
    writer.writerows([label, *(format(x, ".17g") for x in values)]
                     for label, *values, _ in table.rows)
    _write_csv(out / "sweep.csv", manifest, [text.getvalue()])
    _write_json(out / "fit.json", manifest, {
        "n_rows": len(table.rows),
        "excluded_from_fit": sorted(
            {ratio for _, ratio, *_, in_fit in table.rows if not in_fit}),
        "fit": table.fit})
    if band is not None:
        if table.fit is None:
            print("slope assertion failed: fit unavailable", file=sys.stderr)
            return 2
        if abs(table.fit["slope"] - SLOPE_TARGET) > band:
            print(
                f"slope assertion failed: {table.fit['slope']:.4f} outside "
                f"{SLOPE_TARGET} +/- {band}",
                file=sys.stderr,
            )
            return 2
    return 0


def cmd_consistency(run: Consistency, manifest: dict, out: Path,
                    args) -> int:
    if not run.lam > 0:
        raise ManifestError(
            f"manifest field 'lam' must be positive, got {run.lam}")
    if run.n_min < 2 or run.n_max < run.n_min:
        raise ManifestError(
            "manifest fields 'n_min'/'n_max' must satisfy 2 <= n_min <= n_max"
        )
    if run.samples < 3:
        raise ManifestError(
            f"manifest field 'samples' is {run.samples}: at least 3 times "
            "are needed, as the amplitudes vanish at t = 0 and 2 pi / lam"
        )
    if run.n_max > CONSISTENCY_N_MAX:
        raise ManifestError(
            f"manifest field 'n_max' is {run.n_max}: the dense reference "
            f"path runs chains of at most {CONSISTENCY_N_MAX} spins"
        )
    _check_memory("samples", run.samples, math.log2(8 * run.samples))
    deviation = closed_form_consistency(
        range(run.n_min, run.n_max + 1), run.lam, run.samples
    )
    _write_json(
        out / "summary.json",
        manifest,
        {"max_abs_deviation": deviation, "tolerance": 1e-8,
         "within_tolerance": bool(deviation <= 1e-8)},
    )
    return 0


# subcommand -> (manifest schema, command); the schema's docstring is
# the subcommand's help
COMMANDS = {
    "baseline": (Baseline, cmd_run),
    "transfer": (Transfer, cmd_run),
    "sweep": (Sweep, cmd_sweep),
    "consistency": (Consistency, cmd_consistency),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # invalid input exits 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dwtransfer",
        description="Spin-chain state transfer experiments (domain-wall "
        "encoding and XY baseline).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (schema, _) in COMMANDS.items():
        p = sub.add_parser(name, help=schema.__doc__)
        p.add_argument("--config", required=True, help="JSON manifest path")
        p.add_argument("--out", required=True, help="output directory")
        if name == "sweep":
            p.add_argument(
                "--workers", type=int, default=1,
                help="worker processes for the sweep, at most one per run "
                "(default 1)",
            )
            p.add_argument(
                "--assert-slope", nargs="?", type=float,
                const=SLOPE_BAND_DEFAULT, default=None, metavar="BAND",
                help="exit 2 unless the fitted slope is within -2 +/- BAND "
                f"(default band {SLOPE_BAND_DEFAULT})",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    schema, command = COMMANDS[args.command]
    try:
        manifest = _read_manifest(args.config, args.command)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return command(_load(schema, manifest), manifest, out, args)
    except ValueError as exc:
        print(f"dwtransfer: invalid input: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"dwtransfer: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
