"""Fast checks of the benchmark itself.

    python3 -m pytest perfbench/tests -q

These live outside the package's test suite so that they add nothing to
its run time.
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import gate
import run
import spans

TINY_TRANSFER = {
    "experiment": "transfer", "mode": "multi", "n_spins": 5,
    "j_coupling": 22.0, "lam": 1.0,
    "layout": {"n_alice": 1, "n_wire": 3, "n_bob": 1},
    "state": {"amplitudes": [[0.6, 0.0], [0.0, 0.8]]},
    "n_time_samples": 20,
}
TINY_SWEEP = {
    "experiment": "sweep", "n_spins": 5, "lam": 1.0, "ratios": [8, 16, 32],
    "propagator": "exact-eigendecomposition", "n_time_samples": 20,
    "states": [{"label": "one", "amplitudes": [[0, 0], [1, 0]]}],
}


@pytest.mark.parametrize("manifest,layers", [
    (TINY_TRANSFER, {"protocol", "hamiltonians", "core.realize",
                     "core.evolve"}),
    (TINY_SWEEP, {"analysis", "protocol", "core.eigensystem"}),
])
def test_traced_outputs_are_byte_identical(tmp_path, manifest, layers):
    config = tmp_path / "manifest.json"
    config.write_text(json.dumps(manifest))
    deadline = time.monotonic() + 120
    outputs = {}
    for traced in (False, True):
        inv_dir = tmp_path / f"traced{int(traced)}"
        child = run.launch(
            [manifest["experiment"], "--config", str(config),
             "--out", str(inv_dir / "out")],
            inv_dir, deadline, traced=traced)
        assert child.exit_code == 0
        outputs[traced] = {p.name: p.read_bytes()
                           for p in (inv_dir / "out").iterdir()}
    assert outputs[True] == outputs[False]
    trace = json.loads((tmp_path / "traced1" / "spans.json").read_text())
    names = {span[2] for span in trace["spans"]}
    assert {"cli"} | layers <= names


def test_self_time_subtracts_direct_children():
    trace = [
        [0, None, "cli", 0.0, 10.0],
        [1, 0, "protocol", 1.0, 9.0],
        [2, 1, "core.evolve", 2.0, 5.0],
        [3, 2, "core.eigensystem", 2.0, 4.0],
        [4, 1, "core.evolve", 5.0, 6.0],
    ]
    assert spans.self_times(trace) == {
        "cli": (2.0, 1), "protocol": (4.0, 1),
        "core.evolve": (2.0, 2), "core.eigensystem": (2.0, 1),
    }


def _perturb_csv(text, delta):
    lines = text.splitlines(keepends=True)
    fields = lines[-1].rstrip("\n").split(",")
    fields[-1] = repr(float(fields[-1]) + delta)
    lines[-1] = ",".join(fields) + "\n"
    return "".join(lines)


def _perturb_json(key, text, delta):
    doc = json.loads(text)
    node = doc
    for part in key[:-1]:
        node = node[part]
    node[key[-1]] += delta
    return json.dumps(doc)


PERTURBATIONS = [
    ("single_qubit_n13", "summary.json",
     lambda t, d: _perturb_json(("final_fidelity",), t, d)),
    ("single_qubit_n13", "sigma_z.csv", _perturb_csv),
    ("error_sweep_n9", "fit.json",
     lambda t, d: _perturb_json(("fit", "slope"), t, d)),
    ("error_sweep_n9", "sweep.csv", _perturb_csv),
]


@pytest.mark.parametrize("label,name,perturb", PERTURBATIONS)
def test_gate_counts_perturbed_output_as_failed(tmp_path, label, name,
                                                perturb):
    reference = gate.read_reference(run.REFERENCE / label)
    inv = next(inv for make in run.WORKLOADS.values()
               for inv in make(0, tmp_path) if inv.label == label)
    child = run.Child(0, {"imported": 0.0}, 0.0, 0.0)

    def problems(delta):
        out = tmp_path / f"out{delta}"
        out.mkdir()
        for file_name, text in reference.items():
            if file_name == name:
                text = perturb(text, delta)
            (out / file_name).write_text(text)
        return run._check(inv, child, out, reference)

    assert problems(0.0) == []
    assert problems(1e-12) == []
    assert problems(1e-6)


def test_headline_check_fails_below_floor():
    summary = json.loads(gate.read_reference(
        run.REFERENCE / "single_qubit_n13")["summary.json"])
    assert run._headline_fidelity({"summary.json": json.dumps(summary)}) \
        is None
    summary["final_fidelity"] = 0.98
    assert run._headline_fidelity({"summary.json": json.dumps(summary)})


@pytest.mark.parametrize("k", [2, 3])
def test_seed_payloads_are_deterministic_and_normalized(k):
    amps = run.seed_amplitudes(7, k)
    assert amps == run.seed_amplitudes(7, k)
    assert amps != run.seed_amplitudes(8, k)
    assert len(amps) == 2**k
    assert abs(sum(re * re + im * im for re, im in amps) - 1.0) < 1e-12
    assert all(re != 0.0 and im != 0.0 for re, im in amps)
    assert (json.dumps(run.seed_manifest(7, k, "krylov"))
            == json.dumps(run.seed_manifest(7, k, "krylov")))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_n9",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
