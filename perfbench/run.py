"""Benchmark of the dwtransfer command line, as users run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a fixed list of ``dwtransfer <command> --config
<manifest>`` invocations (see ``WORKLOADS`` and README.md).  Each
invocation runs in a child process started through ``launch.py``, one at
a time.  The workload is repeated at least twice, and then until the
next repetition would end after ``--seconds``.  Every invocation's
outputs go through the correctness gate (``gate.py``).

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median over
repetitions of the time spent in ``cli.main``, summed over the
workload), ``setup_s`` (median per process of the time from process
start until ``dwtransfer.cli`` is imported, over extra import-only
launches and every invocation) and ``peak_rss_mb`` (largest peak RSS of
any invocation).  ``--trace 1`` alternates untraced and traced
repetitions and prints the per-layer metrics of the traced ones plus the
tracing overhead.  The last line of standard output is the result
object; the line before it describes the machine.  A run record with
every repetition is written to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import gate
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference"
SETUP_LAUNCHES = 3
# A run's median never rests on one process: the N = 13 transfer is
# bimodal per process (see README.md), and the median of two is their mean.
MIN_REPETITIONS = 2
HARD_LIMIT_S = 170.0  # every child is killed once the run is this old
HEADLINE_FIDELITY = 0.99


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a workload and how its outputs are checked."""

    label: str
    command: str
    manifest: str
    extra: tuple = ()
    check: Optional[Callable[[dict], Optional[str]]] = None
    # manifest of the dense-path run whose outputs are the reference;
    # None means the recorded reference under REFERENCE / label
    exact_manifest: Optional[str] = None

    def argv(self, manifest: str, out: Path) -> list:
        return [self.command, "--config", manifest, "--out", str(out),
                *self.extra]


def _headline_fidelity(outputs: dict) -> Optional[str]:
    f = json.loads(outputs["summary.json"])["final_fidelity"]
    if f >= HEADLINE_FIDELITY:
        return None
    return f"final_fidelity {f} < {HEADLINE_FIDELITY}"


def _within_tolerance(outputs: dict) -> Optional[str]:
    if json.loads(outputs["summary.json"])["within_tolerance"] is True:
        return None
    return "closed-form consistency is not within tolerance"


def _bundled(command, stem, extra=(), check=None) -> Invocation:
    return Invocation(stem, command, f"manifests/{stem}.json", extra, check)


SEED_CHAINS = {
    2: (7, {"n_alice": 2, "n_wire": 3, "n_bob": 2}),
    3: (9, {"n_alice": 3, "n_wire": 3, "n_bob": 3}),
}


def seed_amplitudes(seed: int, k: int) -> list:
    """Dense random complex ``k``-qubit payload as ``[re, im]`` pairs.

    Gaussian amplitudes are never exactly zero, so every logical branch
    of the protocol is populated.
    """
    rng = random.Random(f"payload:{seed}:{k}")
    amps = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
            for _ in range(2**k)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return [[a.real / norm, a.imag / norm] for a in amps]


def seed_manifest(seed: int, k: int, propagator: str) -> dict:
    n_spins, layout = SEED_CHAINS[k]
    return {
        "experiment": "transfer",
        "mode": "multi",
        "unit": "dimensionless",
        "n_spins": n_spins,
        "j_coupling": 22.0,
        "lam": 1.0,
        "layout": layout,
        "state": {"label": f"seed{seed}_k{k}",
                  "amplitudes": seed_amplitudes(seed, k)},
        "n_time_samples": 200,
        "propagator": propagator,
    }


def _seed_payload(seed: int, k: int, work: Path) -> Invocation:
    paths = {}
    for propagator in ("krylov", "exact-eigendecomposition"):
        path = work / f"payload_k{k}_{propagator}.json"
        path.write_text(json.dumps(seed_manifest(seed, k, propagator)))
        paths[propagator] = str(path)
    return Invocation(f"payload_k{k}", "transfer", paths["krylov"],
                      exact_manifest=paths["exact-eigendecomposition"])


REGISTER_MANIFESTS = (
    "bell_pair_2x3x2",
    "product_11_2x3x2",
    "superposition_c2_2x3x2",
    "ghz_3x3x3",
    "w_state_3x3x3",
    "cluster3_3x3x3",
)

WORKLOADS = {
    # headline N = 13 run: the only Krylov propagation at dimension 8192
    "transfer_n13": lambda seed, work: [
        _bundled("transfer", "single_qubit_n13", check=_headline_fidelity),
    ],
    # dense exact-eigendecomposition path only: no Krylov work at all
    "sweep_n9": lambda seed, work: [
        _bundled("sweep", "error_sweep_n9",
                 ("--workers", "1", "--assert-slope")),
    ],
    # many small Krylov propagations (dimension 128 and 512), multi-branch
    # targets and readout, eight set-ups
    "registers_n9": lambda seed, work: [
        *(_bundled("transfer", stem) for stem in REGISTER_MANIFESTS),
        *(_seed_payload(seed, k, work) for k in (2, 3)),
    ],
    # XY builder, Krylov early stopping, dense eigensystems up to 1024
    "xy_reference": lambda seed, work: [
        _bundled("baseline", "baseline_n13"),
        _bundled("consistency", "closed_form_consistency",
                 check=_within_tolerance),
    ],
}


@dataclass
class Child:
    exit_code: Optional[int]
    stamps: Optional[dict]
    spawned: float
    peak_rss_mb: float

    @property
    def setup_s(self) -> float:
        return self.stamps["imported"] - self.spawned


def launch(cli_args: list, run_dir: Path, deadline: float,
           traced: bool = False, setup_only: bool = False) -> Child:
    """Run ``launch.py`` once and wait for it, killing it at ``deadline``.

    Peak RSS is taken from the rusage ``os.wait4`` returns for this one
    child; ``RUSAGE_CHILDREN`` would keep the largest of all children.
    """
    run_dir.mkdir(parents=True, exist_ok=True)
    timing = run_dir / "timing.json"
    cmd = [sys.executable, str(BENCH / "launch.py"), "--timing", str(timing)]
    if traced:
        cmd += ["--spans", str(run_dir / "spans.json")]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--", *cli_args]
    with open(run_dir / "log.txt", "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        pid = 0
        try:
            while True:
                pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                time.sleep(0.01)
        finally:
            if not pid:
                proc.kill()
                _, status, rusage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    stamps = json.loads(timing.read_text()) if timing.exists() else None
    return Child(proc.returncode, stamps, spawned, rusage.ru_maxrss / 1024.0)


@dataclass
class Rep:
    traced: bool
    wall_s: float = 0.0
    invocations: int = 0
    peak_rss_mb: float = 0.0
    problems: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    layer_s: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)


def run_rep(invocations, references, rep_dir: Path, traced: bool,
            deadline: float) -> Rep:
    rep = Rep(traced)
    for i, inv in enumerate(invocations):
        inv_dir = rep_dir / f"{i}-{inv.label}"
        out = inv_dir / "out"
        child = launch(inv.argv(inv.manifest, out), inv_dir, deadline,
                       traced=traced)
        rep.invocations += 1
        rep.peak_rss_mb = max(rep.peak_rss_mb, child.peak_rss_mb)
        problems = _check(inv, child, out, references[inv.label])
        if problems:
            rep.problems.append({"invocation": inv.label,
                                 "problems": problems})
        if child.stamps is None or "end" not in child.stamps:
            continue
        rep.setups.append(child.setup_s)
        rep.wall_s += child.stamps["end"] - child.stamps["start"]
        if traced:
            rep.counts["cli.bytes_written"] += sum(
                p.stat().st_size for p in out.glob("*"))
            trace = json.loads((inv_dir / "spans.json").read_text())
            rep.counts.update(trace["counts"])
            for name, (self_s, calls) in spans.self_times(
                    trace["spans"]).items():
                rep.layer_s[name] += self_s
                rep.counts[f"{name}.calls"] += calls
    return rep


def _check(inv: Invocation, child: Child, out: Path, reference) -> list:
    if child.exit_code != 0:
        return [f"exit code {child.exit_code}"]
    if child.stamps is None:
        return ["launcher wrote no timing"]
    if reference is None:
        return ["no reference outputs to compare with"]
    outputs = gate.read_outputs(out)
    problems = gate.compare(outputs, reference)
    if not problems and inv.check is not None:
        problem = inv.check(outputs)
        problems = [problem] if problem else []
    return problems


def _references(invocations, work: Path, deadline: float) -> dict:
    """Reference outputs per invocation; the dense runs are not timed."""
    refs = {}
    for inv in invocations:
        if inv.exact_manifest is None:
            ref_dir = REFERENCE / inv.label
            refs[inv.label] = (gate.read_reference(ref_dir)
                               if ref_dir.is_dir() else None)
            continue
        ref_dir = work / "exact" / inv.label
        child = launch(inv.argv(inv.exact_manifest, ref_dir / "out"),
                       ref_dir, deadline)
        refs[inv.label] = (gate.read_outputs(ref_dir / "out")
                           if child.exit_code == 0 else None)
    return refs


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True)
    return result.stdout.strip() or "unknown"


def _machine(described: dict, seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        **described,
        "blas_thread_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "commit": _git_commit(),
        "seed": seed,
    }


END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "core.evolve.s": "s",
    "core.evolve.calls": "count",
    "core.evolve.matvecs": "count",
    "core.evolve.matvec_nnz": "count",
    "core.evolve.breakdowns": "count",
    "core.eigensystem.s": "s",
    "core.eigensystem.computed": "count",
    "core.eigensystem.hit_ratio": "ratio",
    "core.realize.s": "s",
    "core.realize.calls": "count",
    "core.realize.nnz": "count",
    "hamiltonians.s": "s",
    "hamiltonians.terms": "count",
    "protocol.s": "s",
    "protocol.runs": "count",
    "protocol.samples": "count",
    "analysis.s": "s",
    "analysis.points": "count",
    "cli.s": "s",
    "cli.bytes_written": "B",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def _layer_values(rep: Rep) -> dict:
    values = {f"{name}.s": rep.layer_s[name] for name in (
        "core.evolve", "core.eigensystem", "core.realize", "hamiltonians",
        "protocol", "analysis", "cli")}
    values.update({name: rep.counts[name] for name, unit in PER_LAYER.items()
                   if unit in ("count", "B")})
    calls = rep.counts["core.eigensystem.calls"]
    values["core.eigensystem.hit_ratio"] = (
        (calls - rep.counts["core.eigensystem.computed"]) / calls
        if calls else 0.0)
    return values


def metrics(reps: list, setups: list, trace: bool) -> dict:
    untraced = [r for r in reps if not r.traced]
    wall = statistics.median(r.wall_s for r in untraced)
    if not trace:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r.peak_rss_mb for r in reps),
        }
        units = END_TO_END
    else:
        per_rep = [_layer_values(r) for r in reps if r.traced]
        values = {name: statistics.median(v[name] for v in per_rep)
                  for name in per_rep[0]}
        values["trace.wall_s"] = statistics.median(
            r.wall_s for r in reps if r.traced)
        values["trace.untraced_wall_s"] = wall
        values["trace.overhead_s"] = values["trace.wall_s"] - wall
        units = PER_LAYER
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S

    if not (ROOT / "src" / "dwtransfer" / "cli.py").is_file():
        return _fail(f"no dwtransfer sources under {ROOT / 'src'}")
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        invocations = WORKLOADS[args.workload](args.seed, work)
        missing = [inv.manifest for inv in invocations
                   if not (ROOT / inv.manifest).is_file()]
        if missing:
            return _fail(f"missing manifests: {missing}")

        setups, described = [], None
        for i in range(SETUP_LAUNCHES):
            child = launch([], work / f"setup{i}", deadline, setup_only=True)
            if child.exit_code != 0 or child.stamps is None:
                log = (work / f"setup{i}" / "log.txt").read_text()
                return _fail(f"cannot import dwtransfer:\n{log}")
            setups.append(child.setup_s)
            described = described or child.stamps["describe"]
        machine = _machine(described, args.seed)
        references = _references(invocations, work, deadline)

        # traced and untraced repetitions alternate; which goes first
        # changes with the seed and with every round
        modes = (False, True) if args.trace else (False,)
        reps = []
        timed_from = time.monotonic()
        while True:
            rounds = len(reps) // len(modes)
            for traced in (modes if (rounds + args.seed) % 2 == 0
                           else modes[::-1]):
                reps.append(run_rep(invocations, references,
                                    work / f"rep{len(reps)}", traced,
                                    deadline))
            elapsed = time.monotonic() - timed_from
            if (len(reps) >= MIN_REPETITIONS
                    and elapsed * (rounds + 2) / (rounds + 1) > args.seconds):
                break

        for rep in reps:
            setups.extend(rep.setups)
        failed = sum(len(r.problems) for r in reps)
        attempted = sum(r.invocations for r in reps)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics(reps, setups, bool(args.trace)),
        }
        record = {
            "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace, "machine": machine,
            "repetitions": [
                {"traced": r.traced, "wall_s": r.wall_s,
                 "peak_rss_mb": r.peak_rss_mb, "problems": r.problems}
                for r in reps],
            "setup_samples_s": setups, "result": result,
            "elapsed_s": time.monotonic() - started,
        }
        (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(record, indent=2))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for rep in reps:
        for problem in rep.problems:
            print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({"machine": machine}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
