import json
import math
import os
import subprocess
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest

import dwtransfer
from dwtransfer.cli import (
    COMMANDS,
    ManifestError,
    SweepState,
    _check_footprint,
    _write_run,
    main,
)
from dwtransfer.core import PropagatorConfig
from dwtransfer.hamiltonians import ChainSpec
from dwtransfer.protocol import ProtocolConfig, run_single_qubit_transfer

S2 = 1 / math.sqrt(2)


def write_manifest(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run(args):
    return main([str(a) for a in args])


def with_fields(path, tmp_path, **fields):
    """Copy of the manifest at ``path`` with ``fields`` overwritten."""
    manifest = json.loads(Path(path).read_text())
    manifest.update(fields)
    return write_manifest(tmp_path / "bad.json", manifest)


@pytest.fixture
def baseline_manifest(tmp_path):
    return write_manifest(tmp_path / "baseline.json", {
        "experiment": "baseline",
        "n_spins": 5,
        "lam": 1.0,
        "state": {"alpha": 1.0, "beta": 0.0},
        "n_time_samples": 40,
    })


@pytest.fixture
def transfer_manifest(tmp_path):
    return write_manifest(tmp_path / "transfer.json", {
        "experiment": "transfer",
        "n_spins": 5,
        "lam": 1.0,
        "j_coupling": 22.0,
        "state": {"alpha": S2, "beta": S2},
        "n_time_samples": 40,
    })


@pytest.fixture
def sweep_manifest(tmp_path):
    return write_manifest(tmp_path / "sweep.json", {
        "experiment": "sweep",
        "n_spins": 5,
        "lam": 1.0,
        "ratios": [8.0, 12.0, 16.0, 24.0, 32.0],
        "states": [{"label": "one", "amplitudes": [0.0, 1.0]}],
        "propagator": "exact-eigendecomposition",
        "n_time_samples": 40,
    })


@pytest.fixture
def consistency_manifest(tmp_path):
    return write_manifest(tmp_path / "consistency.json", {
        "experiment": "consistency",
        "lam": 1.0,
        "n_min": 2,
        "n_max": 4,
        "samples": 10,
    })


class TestBaseline:
    def test_outputs_and_values(self, baseline_manifest, tmp_path):
        out = tmp_path / "out"
        assert run(["baseline", "--config", baseline_manifest,
                    "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_fidelity"] == pytest.approx(1.0, abs=1e-8)
        assert summary["tau"] == pytest.approx(math.pi)
        assert summary["manifest"]["n_spins"] == 5
        trace = (out / "fidelity_trace.csv").read_text().splitlines()
        assert trace[0].startswith("# manifest:")
        assert trace[1] == "t,fidelity_corrected,fidelity_uncorrected"
        last = trace[-1].split(",")
        assert float(last[0]) == pytest.approx(math.pi)
        assert float(last[1]) == pytest.approx(1.0, abs=1e-8)
        sigma = (out / "sigma_z.csv").read_text().splitlines()
        assert sigma[1] == "t,site,sigma_z"
        first = sigma[2].split(",")
        assert first[1] == "1"
        assert float(first[2]) == pytest.approx(-1.0)

    def test_malformed_state_exits_1(self, tmp_path, capsys):
        cfg = write_manifest(tmp_path / "bad.json", {
            "n_spins": 5, "lam": 1.0,
            "state": {"amplitudes": [1.0, 0.0, 0.0]},
        })
        assert run(["baseline", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert "state.amplitudes" in capsys.readouterr().err

    def test_missing_field_exits_1(self, tmp_path, capsys):
        cfg = write_manifest(tmp_path / "bad.json", {"n_spins": 5})
        assert run(["baseline", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert "'lam'" in capsys.readouterr().err

    def test_wrong_experiment_tag(self, tmp_path, capsys):
        cfg = write_manifest(tmp_path / "bad.json", {
            "experiment": "sweep", "n_spins": 5, "lam": 1.0,
            "state": {"alpha": 1.0},
        })
        assert run(["baseline", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert "experiment" in capsys.readouterr().err


class TestTransfer:
    def test_single_qubit_summary(self, transfer_manifest, tmp_path):
        out = tmp_path / "out"
        assert run(["transfer", "--config", transfer_manifest,
                    "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_fidelity"] > 0.99
        assert summary["tau"] == pytest.approx(math.pi)
        assert summary["phases"]["global_phase"] == pytest.approx(
            2 * 22.0 * 5 * math.pi
        )
        amps = summary["final_logical"]
        assert len(amps) == 2
        norm = sum(re * re + im * im for re, im in amps)
        assert norm == pytest.approx(1.0, abs=1e-9)

    def test_multi_mode(self, tmp_path):
        # a two-qubit payload runs between registers of two spins
        cfg = write_manifest(tmp_path / "multi.json", {
            "n_spins": 7,
            "lam": 1.0,
            "j_coupling": 22.0,
            "state": {"amplitudes": [[S2, 0], 0, 0, [S2, 0]]},
            "n_time_samples": 30,
        })
        out = tmp_path / "out"
        assert run(["transfer", "--config", cfg, "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_fidelity"] > 0.9

    def test_byte_identical_reruns(self, transfer_manifest, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["transfer", "--config", transfer_manifest,
                    "--out", out_a]) == 0
        assert run(["transfer", "--config", transfer_manifest,
                    "--out", out_b]) == 0
        for name in ("summary.json", "fidelity_trace.csv", "sigma_z.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @staticmethod
    def outputs(out):
        """Each output file without its echo of the manifest."""
        summary = json.loads((out / "summary.json").read_text())
        del summary["manifest"]
        return [summary] + [(out / name).read_text().split("\n", 1)[1]
                            for name in ("fidelity_trace.csv", "sigma_z.csv")]

    @pytest.mark.parametrize("n_spins, state, legacy", [
        (5, {"alpha": S2, "beta": S2},
         {"mode": "single", "layout": {"n_alice": 1, "n_wire": 3,
                                       "n_bob": 1}}),
        (7, {"amplitudes": [[S2, 0], 0, 0, [S2, 0]]},
         {"mode": "multi", "layout": {"n_alice": 2, "n_wire": 3,
                                      "n_bob": 2}}),
    ])
    def test_legacy_mode_and_layout_are_ignored(self, transfer_manifest,
                                                tmp_path, n_spins, state,
                                                legacy):
        # manifests written for the former single/multi switch and
        # explicit registers give the same outputs as without them
        plain = with_fields(transfer_manifest, tmp_path, n_spins=n_spins,
                            state=state)
        old = write_manifest(tmp_path / "legacy.json",
                             {**json.loads(Path(plain).read_text()), **legacy})
        out_plain, out_old = tmp_path / "plain", tmp_path / "legacy"
        assert run(["transfer", "--config", plain, "--out", out_plain]) == 0
        assert run(["transfer", "--config", old, "--out", out_old]) == 0
        assert self.outputs(out_old) == self.outputs(out_plain)


class TestWriter:
    @staticmethod
    def write_with_format(out, result):
        """Reference: the traces written one ``format(x, ".17g")`` at a
        time."""
        def fmt(x):
            return format(float(x), ".17g")

        times, sigma_z = result.times, result.sigma_z_trace
        (out / "fidelity_trace.csv").write_text("".join(
            ["t,fidelity_corrected,fidelity_uncorrected\n"]
            + [f"{fmt(t)},{fmt(fc)},{fmt(fu)}\n" for t, fc, fu in zip(
                times, result.fidelity_corrected,
                result.fidelity_uncorrected)]))
        (out / "sigma_z.csv").write_text("".join(
            ["t,site,sigma_z\n"]
            + [f"{fmt(t)},{site + 1},{fmt(sigma_z[site, i])}\n"
               for i, t in enumerate(times)
               for site in range(sigma_z.shape[0])]))

    def test_traces_match_one_format_call_per_value(self, tmp_path):
        result = run_single_qubit_transfer(S2, S2, ProtocolConfig(
            spec=ChainSpec(5, 22.0, 1.0), n_time_samples=6))
        awkward = np.array([0.0, -0.0, 1e-300, 1 / 3, -1 / 3, 5e-324,
                            1.0 - 2**-53, 123456789.123456789, 2.0 / 3,
                            1e22, -2.5e-17, 1.0, 0.1])
        result = replace(
            result, times=awkward,
            fidelity_corrected=awkward[::-1].copy(),
            fidelity_uncorrected=np.roll(awkward, 3),
            sigma_z_trace=np.outer(np.arange(-2, 3), awkward) / 7)
        ours, ref = tmp_path / "ours", tmp_path / "ref"
        ours.mkdir()
        ref.mkdir()
        _write_run(ours, {}, result)
        self.write_with_format(ref, result)
        for name in ("fidelity_trace.csv", "sigma_z.csv"):
            # our file starts with the manifest comment line
            body = (ours / name).read_bytes().split(b"\n", 1)[1]
            assert body == (ref / name).read_bytes()


class TestSweep:
    def test_sweep_outputs_and_slope_assert(self, sweep_manifest, tmp_path):
        out = tmp_path / "out"
        assert run(["sweep", "--config", sweep_manifest, "--out", out,
                    "--assert-slope", "0.3"]) == 0
        fit = json.loads((out / "fit.json").read_text())["fit"]
        assert abs(fit["slope"] + 2.0) < 0.3
        assert fit["r_squared"] > 0.95
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("# manifest:")
        assert lines[1] == "state,ratio,infidelity,transfer_time"
        assert len(lines) == 2 + 5

    def test_slope_assert_failure_exits_2(self, sweep_manifest, tmp_path,
                                          capsys):
        out = tmp_path / "out"
        assert run(["sweep", "--config", sweep_manifest, "--out", out,
                    "--assert-slope", "0.001"]) == 2
        assert "slope assertion failed" in capsys.readouterr().err

    def test_single_ratio_fit_unavailable(self, tmp_path, capsys):
        cfg = write_manifest(tmp_path / "one.json", {
            "n_spins": 5, "lam": 1.0, "ratios": [16.0],
            "states": [{"amplitudes": [0.0, 1.0]}],
            "propagator": "exact-eigendecomposition",
            "n_time_samples": 30,
        })
        out = tmp_path / "out"
        assert run(["sweep", "--config", cfg, "--out", out,
                    "--assert-slope"]) == 2
        assert "fit unavailable" in capsys.readouterr().err
        assert json.loads((out / "fit.json").read_text())["fit"] is None

    def test_low_ratio_excluded(self, tmp_path):
        cfg = write_manifest(tmp_path / "low.json", {
            "n_spins": 5, "lam": 1.0, "ratios": [4.0, 8.0, 16.0, 24.0],
            "states": [{"amplitudes": [0.0, 1.0]}],
            "propagator": "exact-eigendecomposition",
            "n_time_samples": 30,
        })
        out = tmp_path / "out"
        with pytest.warns(UserWarning):
            assert run(["sweep", "--config", cfg, "--out", out]) == 0
        payload = json.loads((out / "fit.json").read_text())
        assert payload["excluded_from_fit"] == [4.0]
        assert payload["fit"]["n_points"] == 3

    def test_worker_flag_matches_serial(self, sweep_manifest, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["sweep", "--config", sweep_manifest, "--out", out_a]) == 0
        assert run(["sweep", "--config", sweep_manifest, "--out", out_b,
                    "--workers", "2"]) == 0
        assert (out_a / "sweep.csv").read_bytes() == \
            (out_b / "sweep.csv").read_bytes()


class TestConsistency:
    def test_within_tolerance(self, tmp_path):
        cfg = write_manifest(tmp_path / "c.json", {
            "lam": 1.0, "n_min": 2, "n_max": 6, "samples": 10,
        })
        out = tmp_path / "out"
        assert run(["consistency", "--config", cfg, "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["within_tolerance"] is True
        assert summary["max_abs_deviation"] <= 1e-8

    def test_bad_range_exits_1(self, tmp_path, capsys):
        cfg = write_manifest(tmp_path / "c.json", {
            "lam": 1.0, "n_min": 6, "n_max": 2,
        })
        assert run(["consistency", "--config", cfg,
                    "--out", tmp_path / "o"]) == 1
        assert "n_min" in capsys.readouterr().err


class TestInputGuards:
    @pytest.mark.parametrize("command, field, value", [
        ("baseline", "lam", math.nan),
        ("baseline", "lam", math.inf),
        ("baseline", "n_spins", 5.7),
        ("baseline", "n_spins", True),
        ("baseline", "n_time_samples", 40.5),
        ("transfer", "n_spins", 5.7),
        ("transfer", "j_coupling", -math.inf),
        ("transfer", "lam", math.nan),
        ("sweep", "lam", math.nan),
        ("sweep", "n_spins", 5.7),
    ])
    def test_bad_number_exits_1(self, request, tmp_path, capsys,
                                command, field, value):
        path = request.getfixturevalue(f"{command}_manifest")
        cfg = with_fields(path, tmp_path, **{field: value})
        out = tmp_path / "o"
        assert run([command, "--config", cfg, "--out", out]) == 1
        assert f"'{field}'" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("field, value", [
        ("n_min", 2.5), ("n_max", math.nan), ("samples", 10.5),
        ("lam", math.inf),
    ])
    def test_bad_consistency_number_exits_1(self, tmp_path, capsys,
                                            field, value):
        manifest = {"lam": 1.0, "n_min": 2, "n_max": 4, "samples": 10}
        manifest[field] = value
        cfg = write_manifest(tmp_path / "c.json", manifest)
        assert run(["consistency", "--config", cfg,
                    "--out", tmp_path / "o"]) == 1
        assert f"'{field}'" in capsys.readouterr().err

    def test_consistency_chain_too_long_exits_1(self, consistency_manifest,
                                                tmp_path, capsys):
        cfg = with_fields(consistency_manifest, tmp_path, n_max=13)
        out = tmp_path / "o"
        assert run(["consistency", "--config", cfg, "--out", out]) == 1
        assert "'n_max'" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("samples", [-1, 0, 1, 2])
    def test_consistency_too_few_samples_exits_1(
        self, consistency_manifest, tmp_path, capsys, samples
    ):
        cfg = with_fields(consistency_manifest, tmp_path, samples=samples)
        out = tmp_path / "o"
        assert run(["consistency", "--config", cfg, "--out", out]) == 1
        assert "'samples'" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_baseline_chain_too_short_exits_1(self, baseline_manifest,
                                              tmp_path, capsys):
        cfg = with_fields(baseline_manifest, tmp_path, n_spins=1)
        out = tmp_path / "o"
        assert run(["baseline", "--config", cfg, "--out", out]) == 1
        assert "'n_spins'" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("lam", [0, -1])
    def test_baseline_non_positive_lam_exits_1(self, baseline_manifest,
                                               tmp_path, capsys, lam):
        cfg = with_fields(baseline_manifest, tmp_path, lam=lam)
        out = tmp_path / "o"
        assert run(["baseline", "--config", cfg, "--out", out]) == 1
        assert "'lam'" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("state, field", [
        ({"alpha": math.nan}, "state.alpha"),
        ({"alpha": [1.0, 0.0], "beta": "0"}, "state.beta"),
        ({"amplitudes": [[math.nan, 0], 0]}, "state.amplitudes"),
    ])
    def test_bad_amplitude_exits_1(self, transfer_manifest, tmp_path, capsys,
                                   state, field):
        cfg = with_fields(transfer_manifest, tmp_path, state=state)
        assert run(["transfer", "--config", cfg,
                    "--out", tmp_path / "o"]) == 1
        assert f"'{field}'" in capsys.readouterr().err

    def test_unnormalized_sweep_state_exits_1(self, sweep_manifest, tmp_path,
                                              capsys):
        cfg = with_fields(sweep_manifest, tmp_path,
                          states=[{"amplitudes": [[1, 0], [1, 0]]}])
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert "'states[0]'" in capsys.readouterr().err

    def test_infinite_ratio_exits_1(self, sweep_manifest, tmp_path, capsys):
        cfg = with_fields(sweep_manifest, tmp_path, ratios=[8.0, math.inf])
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert "'ratios'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_non_boolean_phase_correction_exits_1(
        self, transfer_manifest, tmp_path, capsys, value
    ):
        # bool("false") is True: a string must not switch the correction on
        cfg = with_fields(transfer_manifest, tmp_path,
                          apply_phase_correction=value)
        out = tmp_path / "o"
        assert run(["transfer", "--config", cfg, "--out", out]) == 1
        assert "'apply_phase_correction'" in capsys.readouterr().err
        assert not any(out.iterdir())


class TestMemoryGuard:
    # 1100 and 2000 overflow a float estimate of 2^N bytes
    @pytest.mark.parametrize("n_spins", [40, 64, 1100, 2000])
    @pytest.mark.parametrize("command", ["baseline", "transfer", "sweep"])
    def test_chain_too_long_exits_1(self, request, tmp_path, capsys,
                                    command, n_spins):
        path = request.getfixturevalue(f"{command}_manifest")
        cfg = with_fields(path, tmp_path, n_spins=n_spins)
        out = tmp_path / "o"
        assert run([command, "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "'n_spins'" in err and "free-fermion" in err
        assert not any(out.iterdir())

    def test_dense_path_has_the_lower_limit(self):
        sparse = PropagatorConfig(method="krylov")
        dense = PropagatorConfig(method="exact-eigendecomposition")
        for n in (13, 16):
            _check_footprint(n, sparse, n - 1)
        _check_footprint(13, dense, 12)
        with pytest.raises(ManifestError, match="'n_spins'"):
            _check_footprint(16, dense, 15)


class TestManifestLoader:
    @pytest.mark.parametrize("command, fields_, named", [
        # a payload of k qubits needs 2k spins: 3 qubits do not fit 5
        ("transfer", {"state": {"amplitudes": [1, 0, 0, 0, 0, 0, 0, 0]}},
         "state"),
        ("sweep", {"ratios": 8}, "ratios"),
        ("sweep", {"ratios": []}, "ratios"),
        ("sweep", {"states": {}}, "states"),
        ("sweep", {"states": [3]}, "states[0]"),
        ("sweep", {"states": [{"label": "one"}]}, "states[0].amplitudes"),
        ("sweep", {"states": [{"amplitudes": [0, 1], "label": 7}]},
         "states[0].label"),
        ("transfer", {"state": [1, 0]}, "state"),
        ("transfer", {"state": {"label": "one"}}, "state.amplitudes"),
        ("sweep", {"states": [{"amplitudes": [1, 0, 0, 0, 0, 0, 0, 0]}]},
         "states[0]"),
        ("baseline", {"propagator": "lanczos"}, "propagator"),
    ])
    def test_bad_field_exits_1(self, request, tmp_path, capsys,
                               command, fields_, named):
        path = request.getfixturevalue(f"{command}_manifest")
        cfg = with_fields(path, tmp_path, **fields_)
        out = tmp_path / "o"
        assert run([command, "--config", cfg, "--out", out]) == 1
        assert f"'{named}'" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_declared_field_is_checked(self, request, tmp_path, capsys,
                                             command):
        path = request.getfixturevalue(f"{command}_manifest")
        schema, _ = COMMANDS[command]
        for field in fields(schema):
            # a value of the wrong JSON type for the field's kind
            value = 3 if field.type is str else "3"
            cfg = with_fields(path, tmp_path, **{field.name: value})
            assert run([command, "--config", cfg,
                        "--out", tmp_path / "o"]) == 1, field.name
            assert f"'{field.name}'" in capsys.readouterr().err, field.name

    def test_missing_required_fields_are_named(self, tmp_path, capsys):
        cfg = write_manifest(tmp_path / "empty.json", {})
        for command, (schema, _) in COMMANDS.items():
            assert run([command, "--config", cfg,
                        "--out", tmp_path / "o"]) == 1
            first = next(f.name for f in fields(schema)
                         if f.default is MISSING)
            assert f"'{first}' is missing" in capsys.readouterr().err

    def test_readme_table_names_every_declared_field(self):
        # README's "Manifest fields" table, one row per field; a blank
        # first cell continues the experiment above
        schemas = {"`baseline`": "Baseline", "`transfer`": "Transfer",
                   "`sweep`": "Sweep", "`sweep` `states[i]`": "SweepState",
                   "`consistency`": "Consistency"}
        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = readme.read_text().split("### Manifest fields")[1].splitlines()
        first = lines.index("| Experiment | Field | Kind | Default |") + 2
        listed, experiment = set(), None
        for line in lines[first:]:
            if not line.startswith("|"):
                break
            cells = [c.strip() for c in line.strip("|").split("|")]
            experiment = cells[0] or experiment
            listed.add((schemas[experiment], cells[1].strip("`")))
        declared = {(schema.__name__, f.name)
                    for schema in (*(s for s, _ in COMMANDS.values()),
                                   SweepState)
                    for f in fields(schema)}
        assert listed == declared

    def test_null_experiment_is_accepted_and_echoed(self, baseline_manifest,
                                                    tmp_path):
        cfg = with_fields(baseline_manifest, tmp_path, experiment=None)
        out = tmp_path / "out"
        assert run(["baseline", "--config", cfg, "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["manifest"]["experiment"] is None
        header = (out / "sigma_z.csv").read_text().splitlines()[0]
        assert '"experiment": null' in header


class TestImportGraph:
    @staticmethod
    def loaded(request, tmp_path, command, prefix):
        """Modules under ``prefix`` that one CLI run leaves loaded."""
        cfg = request.getfixturevalue(f"{command}_manifest")
        script = (
            "import sys\n"
            "import dwtransfer.cli\n"
            f"code = dwtransfer.cli.main([{command!r}, '--config', {cfg!r},"
            f" '--out', {str(tmp_path / 'o')!r}])\n"
            "assert code == 0, code\n"
            "print(sorted(m for m in sys.modules if m.startswith("
            f"{prefix!r})))\n"
        )
        src = str(Path(dwtransfer.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    @pytest.mark.parametrize("command", ["transfer", "sweep"])
    def test_run_leaves_scipy_linalg_unloaded(self, request, tmp_path,
                                              command):
        # scipy.linalg loads a second OpenBLAS and starts its threads
        assert self.loaded(request, tmp_path, command, "scipy.linalg") == "[]"

    def test_transfer_leaves_scipy_special_unloaded(self, request,
                                                    tmp_path):
        # importing scipy.special adds 0.06-0.1 s to the start-up of a run
        assert self.loaded(request, tmp_path, "transfer",
                           "scipy.special") == "[]"


class TestArgumentHandling:
    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        assert run(["baseline", "--config", tmp_path / "nope.json",
                    "--out", tmp_path / "o"]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["baseline", "--config", bad, "--out", tmp_path / "o"]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["baseline"])
        assert exc.value.code == 1
