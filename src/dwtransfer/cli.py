"""Command-line entry point: run experiments from JSON manifests.

Subcommands ``baseline``, ``transfer``, ``sweep``, ``consistency`` each
read a flat JSON manifest (``--config``) and write CSV/JSON files into
``--out``.  Every CSV embeds the fully resolved manifest as ``#``
comment lines, so any data file is reproducible on its own.  Floats are
printed with 17 significant digits; identical manifests produce
byte-identical outputs.

Exit codes: 0 on success, 1 on invalid input, 2 when an ``--assert-*``
check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import SweepTable, closed_form_consistency, error_scaling_sweep
from .core import PropagatorConfig
from .encoding import LogicalState
from .hamiltonians import ChainSpec, RegisterLayout
from .protocol import (
    ProtocolConfig,
    ProtocolResult,
    run_heisenberg_baseline,
    run_multi_qubit_transfer,
    run_single_qubit_transfer,
)

SLOPE_TARGET = -2.0
SLOPE_BAND_DEFAULT = 0.3
MEMORY_LIMIT_GIB = 4  # largest estimated footprint a run may start with
# 2^N-amplitude vectors a state-vector run holds at once: a trace chunk
# of outputs, their copies and scatter, and the Chebyshev ring; the
# realized operator and its build add about 3 more per spin
STATE_VECTORS = 48


class ManifestError(ValueError):
    """Invalid or missing manifest field; message names the field."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _require(manifest: dict, field: str, kind=None):
    if field not in manifest:
        raise ManifestError(f"manifest field '{field}' is missing")
    value = manifest[field]
    if kind is not None and not isinstance(value, kind):
        raise ManifestError(
            f"manifest field '{field}' has the wrong type: "
            f"expected {getattr(kind, '__name__', kind)}, got "
            f"{type(value).__name__}"
        )
    return value


def _number(value, field: str) -> float:
    """A finite JSON number; booleans and NaN/Infinity are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ManifestError(
            f"manifest field '{field}' must be a number, got "
            f"{type(value).__name__}"
        )
    if not math.isfinite(value):
        raise ManifestError(
            f"manifest field '{field}' must be finite, got {value}"
        )
    return float(value)


def _integer(value, field: str) -> int:
    """A JSON number with an integral value, e.g. ``5`` or ``5.0``."""
    x = _number(value, field)
    if not x.is_integer():
        raise ManifestError(
            f"manifest field '{field}' must be an integer, got {value}"
        )
    return int(x)


def _boolean(value, field: str) -> bool:
    """A JSON ``true`` or ``false``; strings and numbers are rejected."""
    if not isinstance(value, bool):
        raise ManifestError(
            f"manifest field '{field}' must be true or false, got "
            f"{type(value).__name__}"
        )
    return value


def _load_manifest(path: str, experiment: str) -> dict:
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


def _amplitude(item, field: str) -> complex:
    """One amplitude: a finite number or a finite ``[re, im]`` pair."""
    if isinstance(item, list) and len(item) == 2:
        return complex(_number(item[0], field), _number(item[1], field))
    return complex(_number(item, field))


def _logical_state(amps: np.ndarray, field: str) -> LogicalState:
    try:
        return LogicalState(int(np.log2(amps.size)), amps)
    except ValueError as exc:
        raise ManifestError(
            f"manifest field '{field}' is invalid: {exc}"
        ) from exc


def _parse_amplitudes(raw, field: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise ManifestError(f"manifest field '{field}' must be a non-empty list")
    out = [_amplitude(item, field) for item in raw]
    n = len(out)
    if n & (n - 1):
        raise ManifestError(f"manifest field '{field}' length must be a power of 2")
    return np.asarray(out, dtype=complex)


def _parse_single_state(manifest: dict) -> LogicalState:
    state = _require(manifest, "state", dict)
    if "alpha" in state or "beta" in state:
        alpha = _amplitude(state.get("alpha", 0.0), "state.alpha")
        beta = _amplitude(state.get("beta", 0.0), "state.beta")
        amps = np.array([beta, alpha], dtype=complex)
    else:
        amps = _parse_amplitudes(
            _require(state, "amplitudes"), "state.amplitudes"
        )
    return _logical_state(amps, "state")


def _parse_layout(raw, n_spins: int) -> RegisterLayout:
    if not isinstance(raw, dict):
        raise ManifestError("manifest field 'layout' must be an object")
    try:
        layout = RegisterLayout(
            _integer(raw.get("n_alice", 1), "layout.n_alice"),
            _integer(raw.get("n_wire", n_spins - 2), "layout.n_wire"),
            _integer(raw.get("n_bob", 1), "layout.n_bob"),
        )
    except ValueError as exc:
        raise ManifestError(f"manifest field 'layout' is invalid: {exc}") from exc
    if layout.total != n_spins:
        raise ManifestError(
            f"manifest field 'layout' totals {layout.total} spins but "
            f"'n_spins' is {n_spins}"
        )
    return layout


def _time_samples(manifest: dict) -> int:
    return _integer(manifest.get("n_time_samples", 200), "n_time_samples")


def _parse_propagator(manifest: dict) -> PropagatorConfig:
    method = manifest.get("propagator", "krylov")
    try:
        return PropagatorConfig(method=method)
    except ValueError as exc:
        raise ManifestError(f"manifest field 'propagator': {exc}") from exc


def _check_footprint(n_spins: int, propagator: PropagatorConfig,
                     dense_dim: int) -> None:
    """Refuse a run whose estimated memory per process exceeds
    ``MEMORY_LIMIT_GIB``.

    The estimate counts complex vectors of 2^N amplitudes and, on the
    dense path, three complex matrices of the largest component H is
    diagonalized on (``dense_dim``).
    """
    need = 16 * (STATE_VECTORS + 3 * n_spins) * 2**n_spins
    if propagator.method == "exact-eigendecomposition":
        need += 16 * 3 * dense_dim**2
    if need > MEMORY_LIMIT_GIB * 2**30:
        raise ManifestError(
            f"manifest field 'n_spins' is {n_spins}: the state-vector run "
            f"needs about {need / 2**30:.3g} GiB, above the "
            f"{MEMORY_LIMIT_GIB} GiB limit; chains this long need the "
            f"free-fermion backend (ROADMAP item 2)"
        )


def _manifest_header(manifest: dict) -> str:
    blob = json.dumps(manifest, sort_keys=True, separators=(", ", ": "))
    return f"# manifest: {blob}\n"


def _write_csv(path: Path, manifest: dict, header_cols, rows):
    with open(path, "w", newline="") as fh:
        fh.write(_manifest_header(manifest))
        fh.write(",".join(header_cols) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_json(path: Path, manifest: dict, payload: dict):
    doc = {"manifest": manifest, **payload}
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_traces(out: Path, manifest: dict, result: ProtocolResult):
    _write_csv(
        out / "fidelity_trace.csv",
        manifest,
        ["t", "fidelity_corrected", "fidelity_uncorrected"],
        (
            [_fmt(t), _fmt(fc), _fmt(fu)]
            for t, fc, fu in zip(
                result.times,
                result.fidelity_corrected,
                result.fidelity_uncorrected,
            )
        ),
    )
    n_sites = result.sigma_z_trace.shape[0]
    _write_csv(
        out / "sigma_z.csv",
        manifest,
        ["t", "site", "sigma_z"],
        (
            [_fmt(result.times[i]), str(site + 1),
             _fmt(result.sigma_z_trace[site, i])]
            for i in range(result.times.shape[0])
            for site in range(n_sites)
        ),
    )


def _summary_payload(result: ProtocolResult) -> dict:
    return {
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
    }


def cmd_baseline(manifest: dict, out: Path) -> int:
    N = _integer(_require(manifest, "n_spins"), "n_spins")
    propagator = _parse_propagator(manifest)
    # the XY chain keeps the payload in its 0- and 1-excitation sectors
    _check_footprint(N, propagator, N)
    lam = _number(_require(manifest, "lam"), "lam")
    logical = _parse_single_state(manifest)
    if logical.n_logical != 1:
        raise ManifestError("manifest field 'state' must be a single qubit")
    try:
        cfg = ProtocolConfig(
            spec=None,  # the baseline has no Ising coupling
            propagator=propagator,
            n_time_samples=_time_samples(manifest),
        )
        result = run_heisenberg_baseline(N, lam, logical, cfg)
    except ValueError as exc:
        raise ManifestError(str(exc)) from exc
    _write_traces(out, manifest, result)
    _write_json(out / "summary.json", manifest, _summary_payload(result))
    return 0


def cmd_transfer(manifest: dict, out: Path) -> int:
    mode = _require(manifest, "mode", str)
    if mode not in ("single", "multi"):
        raise ManifestError(
            f"manifest field 'mode' must be 'single' or 'multi', got '{mode}'"
        )
    N = _integer(_require(manifest, "n_spins"), "n_spins")
    propagator = _parse_propagator(manifest)
    # transport conserves spin 1 and the reset stage Bob's spins
    _check_footprint(N, propagator, 2 ** (N - 1))
    lam = _number(_require(manifest, "lam"), "lam")
    J = _number(_require(manifest, "j_coupling"), "j_coupling")
    logical = _parse_single_state(manifest)
    layout = _parse_layout(
        manifest.get(
            "layout",
            {"n_alice": 1, "n_wire": N - 2, "n_bob": 1},
        ),
        N,
    )
    correct_phases = _boolean(
        manifest.get("apply_phase_correction", True), "apply_phase_correction"
    )
    try:
        spec = ChainSpec(N, J, lam, layout)
        cfg = ProtocolConfig(
            spec=spec,
            propagator=propagator,
            n_time_samples=_time_samples(manifest),
            apply_phase_correction=correct_phases,
        )
        if mode == "single":
            beta, alpha = logical.amplitudes
            result = run_single_qubit_transfer(alpha, beta, cfg)
        else:
            result = run_multi_qubit_transfer(logical, layout, cfg)
    except ValueError as exc:
        raise ManifestError(str(exc)) from exc
    _write_traces(out, manifest, result)
    _write_json(out / "summary.json", manifest, _summary_payload(result))
    return 0


def cmd_sweep(manifest: dict, out: Path, workers: int,
              slope_band: float) -> int:
    N = _integer(_require(manifest, "n_spins"), "n_spins")
    propagator = _parse_propagator(manifest)
    _check_footprint(N, propagator, 2 ** (N - 1))
    lam = _number(_require(manifest, "lam"), "lam")
    ratios = [
        _number(r, "ratios") for r in _require(manifest, "ratios", list)
    ]
    if not all(r > 0 for r in ratios):
        raise ManifestError("manifest field 'ratios' must be positive numbers")
    raw_states = _require(manifest, "states", list)
    states = []
    for i, raw in enumerate(raw_states):
        if not isinstance(raw, dict):
            raise ManifestError(f"manifest field 'states[{i}]' must be an object")
        label = raw.get("label", f"state{i}")
        amps = _parse_amplitudes(
            _require(raw, "amplitudes"), f"states[{i}].amplitudes"
        )
        logical = _logical_state(amps, f"states[{i}]")
        layout = _parse_layout(
            raw.get(
                "layout",
                manifest.get(
                    "layout",
                    {"n_alice": logical.n_logical,
                     "n_wire": N - 2 * logical.n_logical,
                     "n_bob": logical.n_logical},
                ),
            ),
            N,
        )
        states.append((label, logical, layout))
    try:
        base_cfg = ProtocolConfig(
            spec=ChainSpec(N, max(ratios) * lam, lam),
            propagator=propagator,
            n_time_samples=_time_samples(manifest),
        )
        table = error_scaling_sweep(states, ratios, base_cfg, workers)
    except ValueError as exc:
        raise ManifestError(str(exc)) from exc
    with open(out / "sweep.csv", "w", newline="") as fh:
        fh.write(_manifest_header(manifest))
        fh.write(table.to_csv())
    _write_json(out / "fit.json", manifest, table.summary())
    if slope_band is not None:
        if table.fit is None:
            print("slope assertion failed: fit unavailable", file=sys.stderr)
            return 2
        if abs(table.fit.slope - SLOPE_TARGET) > slope_band:
            print(
                f"slope assertion failed: {table.fit.slope:.4f} outside "
                f"{SLOPE_TARGET} +/- {slope_band}",
                file=sys.stderr,
            )
            return 2
    return 0


def cmd_consistency(manifest: dict, out: Path) -> int:
    n_min = _integer(manifest.get("n_min", 2), "n_min")
    n_max = _integer(manifest.get("n_max", 10), "n_max")
    lam = _number(_require(manifest, "lam"), "lam")
    samples = _integer(manifest.get("samples", 20), "samples")
    if n_min < 2 or n_max < n_min:
        raise ManifestError(
            "manifest fields 'n_min'/'n_max' must satisfy 2 <= n_min <= n_max"
        )
    try:
        deviation = closed_form_consistency(
            range(n_min, n_max + 1), lam, samples
        )
    except ValueError as exc:
        raise ManifestError(str(exc)) from exc
    _write_json(
        out / "summary.json",
        manifest,
        {"max_abs_deviation": deviation, "tolerance": 1e-8,
         "within_tolerance": bool(deviation <= 1e-8)},
    )
    return 0


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
    for name, doc in (
        ("baseline", "XY-chain perfect transfer reference"),
        ("transfer", "two-stage domain-wall transfer (single or multi qubit)"),
        ("sweep", "infidelity vs J/lambda sweep and log-log fit"),
        ("consistency", "closed-form amplitude consistency check"),
    ):
        p = sub.add_parser(name, help=doc, parents=[])
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
    try:
        manifest = _load_manifest(args.config, args.command)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "baseline":
            code = cmd_baseline(manifest, out)
        elif args.command == "transfer":
            code = cmd_transfer(manifest, out)
        elif args.command == "sweep":
            code = cmd_sweep(
                manifest, out, args.workers, args.assert_slope
            )
        else:
            code = cmd_consistency(manifest, out)
    except ManifestError as exc:
        print(f"dwtransfer: invalid input: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"dwtransfer: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
