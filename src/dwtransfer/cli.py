"""Command-line entry point: run experiments from JSON manifests.

Subcommands ``baseline``, ``transfer``, ``sweep``, ``consistency`` each
read a flat JSON manifest (``--config``) and write CSV/JSON files into
``--out``.  The fields of each manifest are declared once, as the
dataclass of its experiment (``Baseline``, ``Transfer``, ``Sweep``,
``Consistency``): the annotation of each field is its kind, and a field
with a default may be left out.  Every CSV starts with the manifest, as
read, in a ``#`` comment line, so any data file is reproducible on its
own.  Floats are printed with 17 significant digits; identical manifests
produce byte-identical outputs.

Exit codes: 0 on success, 1 on invalid input, 2 when an ``--assert-*``
check fails.
"""

import argparse
import json
import math
import sys
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
from .hamiltonians import ChainSpec
from .protocol import (
    ProtocolConfig,
    ProtocolResult,
    run_heisenberg_baseline,
    run_multi_qubit_transfer,
    run_single_qubit_transfer,  # not called here: perfbench/spans.py wraps it
)

SLOPE_TARGET = -2.0
SLOPE_BAND_DEFAULT = 0.3
MEMORY_LIMIT_GIB = 4  # largest estimated footprint a run may start with
# 2^N-amplitude vectors a state-vector run holds at once: a trace block
# of outputs (one row above N = 13), their scatter, the probabilities
# and the Chebyshev ring; the realized operator and its build add about
# 3 more per spin
STATE_VECTORS = 48


class ManifestError(ValueError):
    """Invalid or missing manifest field; message names the field."""


@dataclass(frozen=True)
class Baseline:
    """XY-chain perfect transfer reference"""

    n_spins: int
    lam: float
    state: LogicalState
    n_time_samples: int = 200
    propagator: PropagatorConfig = PropagatorConfig()


@dataclass(frozen=True)
class Transfer:
    """two-stage domain-wall transfer between registers as wide as the
    payload"""

    n_spins: int
    lam: float
    j_coupling: float
    state: LogicalState
    apply_phase_correction: bool = True
    n_time_samples: int = 200
    propagator: PropagatorConfig = PropagatorConfig()


@dataclass(frozen=True)
class Sweep:
    """infidelity vs J/lambda sweep and log-log fit"""

    n_spins: int
    lam: float
    ratios: list
    states: list  # of SweepState objects
    n_time_samples: int = 200
    propagator: PropagatorConfig = PropagatorConfig()


@dataclass(frozen=True)
class SweepState:
    """One entry of a sweep's ``states``."""

    amplitudes: list
    label: str = None  # default: state<i>


@dataclass(frozen=True)
class Consistency:
    """closed-form amplitude consistency check"""

    lam: float
    n_min: int = 2
    n_max: int = 10
    samples: int = 20


_TYPE_NAMES = {bool: "true or false", str: "a string", list: "a list",
               dict: "an object"}


def _load(schema, manifest: dict, prefix: str = ""):
    """The ``schema`` dataclass filled from ``manifest``.

    Each field present is checked by the kind its annotation declares;
    an absent one takes its default, and is an error if it has none.
    Fields the schema does not declare are ignored.
    """
    values = {}
    for f in fields(schema):
        name = prefix + f.name
        if f.name in manifest:
            values[f.name] = _value(f.type, manifest[f.name], name)
        elif f.default is MISSING:
            raise ManifestError(f"manifest field '{name}' is missing")
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
        if not math.isfinite(raw):
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


def _logical_state(amps: np.ndarray, field: str) -> LogicalState:
    try:
        return LogicalState(int(np.log2(amps.size)), amps)
    except ValueError as exc:
        raise ManifestError(
            f"manifest field '{field}' is invalid: {exc}"
        ) from exc


def _payload(raw, field: str) -> LogicalState:
    """The payload: ``alpha``/``beta`` of one qubit (``alpha|1> +
    beta|0>``), or the ``amplitudes`` of any number of qubits."""
    if not isinstance(raw, dict):
        raise ManifestError(f"manifest field '{field}' must be an object")
    if "alpha" in raw or "beta" in raw:
        alpha = _amplitude(raw.get("alpha", 0.0), f"{field}.alpha")
        beta = _amplitude(raw.get("beta", 0.0), f"{field}.beta")
        amps = np.array([beta, alpha], dtype=complex)
    elif "amplitudes" in raw:
        amps = _amplitudes(raw["amplitudes"], f"{field}.amplitudes")
    else:
        raise ManifestError(f"manifest field '{field}.amplitudes' is missing")
    return _logical_state(amps, field)


def _check_registers(state: LogicalState, n_spins: int, field: str) -> None:
    """Refuse a payload whose registers, as wide as itself at both ends
    of the chain, do not fit in ``n_spins``."""
    k = state.n_logical
    if 2 * k > n_spins:
        raise ManifestError(
            f"manifest field '{field}' has {k} qubits: registers of {k} "
            f"spins at both ends need n_spins >= {2 * k}, got {n_spins}"
        )


def _check_footprint(n_spins: int, propagator: PropagatorConfig,
                     dense_log2: float) -> None:
    """Refuse a run whose estimated memory per process exceeds
    ``MEMORY_LIMIT_GIB``.

    The estimate counts complex vectors of 2^N amplitudes and, on the
    dense path, three complex matrices of the largest component H is
    diagonalized on, of dimension 2^``dense_log2``.  It is compared by
    its log2, so no 2^N is formed for a chain of any length.
    """
    log2_need = n_spins + math.log2(16 * (STATE_VECTORS + 3 * n_spins))
    if propagator.method == "exact-eigendecomposition":
        log2_need = np.logaddexp2(log2_need,
                                  math.log2(16 * 3) + 2 * dense_log2)
    if log2_need > math.log2(MEMORY_LIMIT_GIB * 2**30):
        raise ManifestError(
            f"manifest field 'n_spins' is {n_spins}: the state-vector run "
            f"needs about 2^{log2_need:.4g} bytes, above the "
            f"{MEMORY_LIMIT_GIB} GiB limit; chains this long need the "
            f"free-fermion backend (ROADMAP item 2)"
        )


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


def _write_csv(path: Path, manifest: dict, text: str):
    blob = json.dumps(manifest, sort_keys=True, separators=(", ", ": "))
    with open(path, "w", newline="") as fh:
        fh.write(f"# manifest: {blob}\n{text}")


def _write_json(path: Path, manifest: dict, payload: dict):
    doc = {"manifest": manifest, **payload}
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_run(out: Path, manifest: dict, result: ProtocolResult):
    """The traces and the summary of one protocol run."""
    times, sigma_z = result.times, result.sigma_z_trace
    n_sites = sigma_z.shape[0]
    # one %-format per file, on Python floats: the same text as
    # format(x, ".17g") value by value
    trace = np.column_stack([times, result.fidelity_corrected,
                             result.fidelity_uncorrected])
    _write_csv(out / "fidelity_trace.csv", manifest,
               "t,fidelity_corrected,fidelity_uncorrected\n"
               + "%.17g,%.17g,%.17g\n" * len(trace)
               % tuple(trace.ravel().tolist()))
    sites = np.column_stack([np.repeat(times, n_sites),
                             np.tile(np.arange(1, n_sites + 1), times.size),
                             sigma_z.T.ravel()])
    _write_csv(out / "sigma_z.csv", manifest, "t,site,sigma_z\n"
               + "%.17g,%d,%.17g\n" * len(sites)
               % tuple(sites.ravel().tolist()))
    _write_json(out / "summary.json", manifest, {
        "final_fidelity": result.final_fidelity,
        "peak_fidelity": result.peak_fidelity,
        "peak_time": result.peak_time,
        "tau": result.tau,
        "phases": {
            "global_phase": result.phases.global_phase,
            "relative_phase_per_M": {
                str(m): p
                for m, p in result.phases.relative_phase_per_M.items()
            },
        },
        "final_logical": [
            [float(a.real), float(a.imag)]
            for a in result.final_logical.amplitudes
        ],
    })


def cmd_baseline(run: Baseline, manifest: dict, out: Path, args) -> int:
    N = run.n_spins
    if N < 2:
        raise ManifestError(f"manifest field 'n_spins' must be >= 2, got {N}")
    if run.lam <= 0:
        raise ManifestError(
            f"manifest field 'lam' must be positive, got {run.lam}")
    # the XY chain keeps the payload in its 0- and 1-excitation sectors
    _check_footprint(N, run.propagator, math.log2(N))
    if run.state.n_logical != 1:
        raise ManifestError("manifest field 'state' must be a single qubit")
    cfg = ProtocolConfig(
        spec=None,  # the baseline has no Ising coupling
        propagator=run.propagator,
        n_time_samples=run.n_time_samples,
    )
    _write_run(out, manifest,
               run_heisenberg_baseline(N, run.lam, run.state, cfg))
    return 0


def cmd_transfer(run: Transfer, manifest: dict, out: Path, args) -> int:
    N = run.n_spins
    # transport conserves spin 1 and the reset stage Bob's spins
    _check_footprint(N, run.propagator, N - 1)
    _check_registers(run.state, N, "state")
    cfg = ProtocolConfig(
        spec=ChainSpec(N, run.j_coupling, run.lam),
        propagator=run.propagator,
        n_time_samples=run.n_time_samples,
        apply_phase_correction=run.apply_phase_correction,
    )
    _write_run(out, manifest, run_multi_qubit_transfer(run.state, cfg))
    return 0


def cmd_sweep(run: Sweep, manifest: dict, out: Path, args) -> int:
    N = run.n_spins
    _check_footprint(N, run.propagator, N - 1)
    ratios = [_value(float, r, "ratios") for r in run.ratios]
    if not ratios or not all(r > 0 for r in ratios):
        raise ManifestError(
            "manifest field 'ratios' must be a non-empty list of positive "
            "numbers"
        )
    states = []
    for i, raw in enumerate(run.states):
        field = f"states[{i}]"
        if not isinstance(raw, dict):
            raise ManifestError(f"manifest field '{field}' must be an object")
        item = _load(SweepState, raw, f"{field}.")
        logical = _logical_state(
            _amplitudes(item.amplitudes, f"{field}.amplitudes"), field)
        _check_registers(logical, N, field)
        states.append(
            (f"state{i}" if item.label is None else item.label, logical))
    base_cfg = ProtocolConfig(
        spec=ChainSpec(N, max(ratios) * run.lam, run.lam),
        propagator=run.propagator,
        n_time_samples=run.n_time_samples,
    )
    table = error_scaling_sweep(states, ratios, base_cfg, args.workers)
    _write_csv(out / "sweep.csv", manifest, table.to_csv())
    _write_json(out / "fit.json", manifest, table.summary())
    band = args.assert_slope
    if band is not None:
        if table.fit is None:
            print("slope assertion failed: fit unavailable", file=sys.stderr)
            return 2
        if abs(table.fit.slope - SLOPE_TARGET) > band:
            print(
                f"slope assertion failed: {table.fit.slope:.4f} outside "
                f"{SLOPE_TARGET} +/- {band}",
                file=sys.stderr,
            )
            return 2
    return 0


def cmd_consistency(run: Consistency, manifest: dict, out: Path,
                    args) -> int:
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
    "baseline": (Baseline, cmd_baseline),
    "transfer": (Transfer, cmd_transfer),
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
                help="worker processes for the sweep (default 1)",
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
