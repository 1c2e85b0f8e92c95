import contextlib
import copy
import io
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
import typing
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest

import dwtransfer
from dwtransfer import analysis, cli, protocol
from dwtransfer.cli import (
    COMMANDS,
    MEMORY_LIMIT_GIB,
    PHASE_RATIO_MAX,
    RUN_FIXED_BYTES,
    TRACE_VALUE_BYTES,
    ManifestError,
    _check_footprint,
    _load,
    _write_run,
    main,
)
from dwtransfer.core import PropagatorConfig
from dwtransfer.encoding import LogicalState
from dwtransfer.protocol import (
    Baseline,
    Transfer,
    run_single_qubit_transfer,
)

S2 = 1 / math.sqrt(2)
GHZ = {"amplitudes": [[S2, 0], 0, 0, 0, 0, 0, 0, [S2, 0]]}
ONE = {"alpha": 1.0, "beta": 0.0}


def write_manifest(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run(args):
    return main([str(a) for a in args])


def child_env(**extra) -> dict:
    """This process's environment, with ``extra`` set, for a child
    process that imports the package from the source tested here."""
    src = str(Path(dwtransfer.__file__).resolve().parents[1])
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def child_peak_rss(body: str) -> int:
    """The peak RSS in bytes of a child process that imports the
    package, then runs the statement ``body``, at two BLAS threads:
    ``RUN_FIXED_BYTES`` was measured at one and two, and BLAS's packing
    buffers grow with the thread count."""
    script = ("import resource\n"
              "import dwtransfer.cli\n"
              f"{body}\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    done = subprocess.run([sys.executable, "-c", script],
                          env=child_env(OPENBLAS_NUM_THREADS="2"),
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return 1024 * int(done.stdout.split()[-1])  # ru_maxrss is in KiB


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
        result = run_single_qubit_transfer(
            S2, S2, n_spins=5, lam=1.0, j_coupling=22.0, n_time_samples=6)
        awkward = np.array([0.0, -0.0, 1e-300, 1 / 3, -1 / 3, 5e-324,
                            1.0 - 2**-53, 123456789.123456789, 2.0 / 3,
                            1e22, -2.5e-17, 1.0, 0.1])
        # 600 copies: 7 800 samples, which the writer formats in three
        # blocks
        for copies in (1, 600):
            values = np.tile(awkward, copies)
            traced = replace(
                result, times=values,
                fidelity_corrected=values[::-1].copy(),
                fidelity_uncorrected=np.roll(values, 3),
                sigma_z_trace=np.outer(np.arange(-2, 3), values) / 7)
            ours, ref = tmp_path / f"ours{copies}", tmp_path / f"ref{copies}"
            ours.mkdir()
            ref.mkdir()
            _write_run(ours, {}, traced)
            self.write_with_format(ref, traced)
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

    def test_state_as_alpha_beta(self, sweep_manifest, tmp_path):
        # a sweep state is a payload like any other: alpha/beta of |1>
        # writes the rows of amplitudes [0, 1]
        rows = []
        for state in ({"alpha": 1, "beta": 0}, {"amplitudes": [0, 1]}):
            cfg = with_fields(sweep_manifest, tmp_path,
                              states=[dict(state, label="one")])
            out = tmp_path / f"o{len(rows)}"
            assert run(["sweep", "--config", cfg, "--out", out]) == 0
            rows.append((out / "sweep.csv").read_text().splitlines()[1:])
        assert rows[0] == rows[1] and len(rows[0]) == 1 + 5

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

    def test_label_quoting(self, sweep_manifest, tmp_path, monkeypatch):
        # a label holding a comma or a double quote is written quoted,
        # each quote doubled, and a plain one as it is; each number is
        # format(x, ".17g") of the row the sweep returned
        tables = []

        def recording(*args):
            tables.append(analysis.error_scaling_sweep(*args))
            return tables[-1]

        monkeypatch.setattr(cli, "error_scaling_sweep", recording)
        cfg = with_fields(sweep_manifest, tmp_path, ratios=[8.0, 16.0],
                          states=[{"label": 'one, "first"',
                                   "amplitudes": [0.0, 1.0]},
                                  {"label": "two", "amplitudes": [0.0, 1.0]}])
        out = tmp_path / "out"
        assert run(["sweep", "--config", cfg, "--out", out]) == 0
        quoted = {'one, "first"': '"one, ""first"""', "two": "two"}
        expected = "state,ratio,infidelity,transfer_time\n" + "".join(
            ",".join([quoted[label]]
                     + [format(x, ".17g") for x in (ratio, eps, t_peak)])
            + "\n" for label, ratio, eps, t_peak, _ in tables[0].rows)
        assert len(tables[0].rows) == 4
        body = (out / "sweep.csv").read_bytes().split(b"\n", 1)[1]
        assert body == expected.encode()

    def test_bundled_sweep_free_fermions_match_dense(self, tmp_path):
        # two computations of the error law: the bundled N = 9 sweep runs
        # on the dense path; on "krylov" the payload |1> runs on free
        # fermions
        bundled = Path(__file__).resolve().parents[1] / "manifests" / \
            "error_sweep_n9.json"
        dense = json.loads(bundled.read_text())
        assert dense["propagator"] == "exact-eigendecomposition"
        got = {}
        for method in ("exact-eigendecomposition", "krylov"):
            cfg = write_manifest(tmp_path / f"{method}.json",
                                 {**dense, "propagator": method})
            out = tmp_path / method
            assert run(["sweep", "--config", cfg, "--out", out,
                        "--assert-slope"]) == 0
            rows = (out / "sweep.csv").read_text().splitlines()[2:]
            fit = json.loads((out / "fit.json").read_text())
            got[method] = ([r.split(",") for r in rows], fit)
        (rows_a, fit_a), (rows_b, fit_b) = got.values()
        assert len(rows_a) == len(rows_b) == 6
        for a, b in zip(rows_a, rows_b):
            assert a[:2] == b[:2]
            assert abs(float(a[2]) - float(b[2])) <= 1e-10
            assert abs(float(a[3]) - float(b[3])) <= 1e-10
        assert fit_a["n_rows"] == fit_b["n_rows"]
        assert fit_a["excluded_from_fit"] == fit_b["excluded_from_fit"]
        assert fit_a["fit"]["n_points"] == fit_b["fit"]["n_points"]
        for key in ("slope", "intercept", "r_squared"):
            assert abs(fit_a["fit"][key] - fit_b["fit"][key]) <= 1e-10

    def test_bundled_sweep_diagonalizes_each_point_once(self, tmp_path,
                                                        monkeypatch):
        # each |1> point of the dense N = 9 sweep diagonalizes the one
        # transport sector it needs, as its two mirror halves; its reset
        # stage, transport's chain reversal, reuses them: 12 eigh, not 24
        sizes = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            sizes.append(a.shape[0])
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        bundled = Path(__file__).resolve().parents[1] / "manifests" / \
            "error_sweep_n9.json"
        assert run(["sweep", "--config", bundled, "--out", tmp_path / "out",
                    "--workers", 1]) == 0
        assert sizes == [136, 120] * 6

    @staticmethod
    def serial_pools(monkeypatch):
        """The ``max_workers`` of every process pool the sweep asks for,
        each replaced by a serial stand-in that starts no process."""
        import concurrent.futures

        pools = []

        class Serial:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            Serial)
        return pools

    def test_workers_capped_at_the_sweep_points(self, sweep_manifest,
                                                tmp_path, monkeypatch):
        # a pool forks all its workers at the first task: the five
        # points of the sweep get five, not the 100 000 asked for
        pools = self.serial_pools(monkeypatch)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["sweep", "--config", sweep_manifest, "--out", out_a,
                    "--workers", "100000"]) == 0
        assert pools == [5]
        assert run(["sweep", "--config", sweep_manifest, "--out", out_b]) == 0
        assert pools == [5]  # one worker needs no pool
        assert (out_a / "sweep.csv").read_bytes() == \
            (out_b / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_1(self, sweep_manifest, tmp_path,
                                      monkeypatch, capsys, workers):
        pools = self.serial_pools(monkeypatch)
        out = tmp_path / "out"
        assert run(["sweep", "--config", sweep_manifest, "--out", out,
                    "--workers", workers]) == 1
        assert "'--workers'" in capsys.readouterr().err
        assert pools == [] and not (out / "sweep.csv").exists()

    # a band of nan or inf could never fail, a negative one never pass
    @pytest.mark.parametrize("band", ["nan", "inf", "-inf", "-1",
                                      "-1e-300"])
    def test_slope_band_not_finite_and_non_negative_exits_1(
            self, sweep_manifest, tmp_path, capsys, band):
        out = tmp_path / "out"
        assert run(["sweep", "--config", sweep_manifest, "--out", out,
                    f"--assert-slope={band}"]) == 1
        assert "'--assert-slope'" in capsys.readouterr().err
        assert not any(out.iterdir())  # refused before any run

    def test_zero_slope_band_is_checked(self, sweep_manifest, tmp_path,
                                        capsys):
        # 0 is a valid band; the fitted slope is not exactly -2
        out = tmp_path / "out"
        assert run(["sweep", "--config", sweep_manifest, "--out", out,
                    "--assert-slope=0"]) == 2
        assert "slope assertion failed" in capsys.readouterr().err

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

    @pytest.mark.parametrize("lam", [-1, 0])
    def test_non_positive_lam_exits_1(self, consistency_manifest, tmp_path,
                                      capsys, lam):
        cfg = with_fields(consistency_manifest, tmp_path, lam=lam)
        out = tmp_path / "o"
        assert run(["consistency", "--config", cfg, "--out", out]) == 1
        assert "'lam'" in capsys.readouterr().err
        assert not any(out.iterdir())


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

    # test_baseline_chain_too_short_exits_1 and
    # test_baseline_non_positive_lam_exits_1 cover the baseline
    @pytest.mark.parametrize("field, value", [
        ("n_spins", 1), ("lam", 0), ("lam", -1), ("n_time_samples", 1),
    ])
    @pytest.mark.parametrize("command", ["transfer", "sweep"])
    def test_chain_field_out_of_range_exits_1(self, request, tmp_path,
                                              capsys, command, field, value):
        path = request.getfixturevalue(f"{command}_manifest")
        cfg = with_fields(path, tmp_path, **{field: value})
        out = tmp_path / "o"
        assert run([command, "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert f"'{field}'" in err and "'state" not in err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("ratios", [[], [8.0, -1.0], [8.0, 0]])
    def test_empty_or_nonpositive_ratios_exit_1(self, sweep_manifest,
                                                tmp_path, capsys, ratios):
        cfg = with_fields(sweep_manifest, tmp_path, ratios=ratios)
        out = tmp_path / "o"
        assert run(["sweep", "--config", cfg, "--out", out]) == 1
        assert "'ratios'" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_integer_beyond_float_range_exits_1(self, transfer_manifest,
                                                tmp_path, capsys):
        # 10^400 is a JSON integer no float holds
        cfg = with_fields(transfer_manifest, tmp_path,
                          n_time_samples=10**400)
        out = tmp_path / "o"
        assert run(["transfer", "--config", cfg, "--out", out]) == 1
        assert "'n_time_samples'" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_ratio_leaving_bob_empty_names_ratios(self, sweep_manifest,
                                                  tmp_path, capsys):
        # on the default propagator this payload runs on free fermions
        cfg = with_fields(sweep_manifest, tmp_path, ratios=[8.0, 1e-300],
                          propagator="krylov", n_time_samples=20)
        out = tmp_path / "o"
        with pytest.warns(UserWarning, match="quadratic"):
            assert run(["sweep", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "'ratios'" in err and "'j_coupling'" not in err
        assert not any(out.iterdir())

    # GHZ is not Gaussian, so it runs on the Chebyshev series, whose
    # Jacobi-Anger table grows with J/lam
    @pytest.mark.parametrize("fields_", [{"j_coupling": 1e300},
                                         {"lam": 1e-300}])
    def test_series_too_long_names_j_and_lam(self, transfer_manifest,
                                             tmp_path, capsys, fields_):
        cfg = with_fields(transfer_manifest, tmp_path, n_spins=9, state=GHZ,
                          **fields_)
        out = tmp_path / "o"
        assert run(["transfer", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "'j_coupling'" in err and "'lam'" in err
        assert "Chebyshev" in err and "Maximum allowed size" not in err
        assert not any(out.iterdir())

    def test_series_too_long_names_ratios(self, sweep_manifest, tmp_path,
                                          capsys):
        cfg = with_fields(sweep_manifest, tmp_path, n_spins=9,
                          ratios=[8.0, 1e300], propagator="krylov",
                          states=[{"label": "ghz", **GHZ}])
        out = tmp_path / "o"
        assert run(["sweep", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "'ratios'" in err and "'j_coupling'" not in err
        assert "Chebyshev" in err
        assert not any(out.iterdir())

    def test_phase_ratio_boundary(self):
        # |J| N/lam = 1e6 exactly is accepted, the next float above it
        # refused, on free fermions, the dense path and the series alike;
        # 1 000 samples per stage keep the series table of GHZ small
        one = LogicalState(1, np.array([0.0, 1.0]))
        ghz = LogicalState(3, np.array([S2, 0, 0, 0, 0, 0, 0, S2]))
        assert PHASE_RATIO_MAX == 1e6
        for state, n, method in ((one, 5, "krylov"),
                                 (one, 5, "exact-eigendecomposition"),
                                 (ghz, 8, "krylov")):
            cfg = PropagatorConfig(method=method)
            for sign in (1, -1):
                j = sign * PHASE_RATIO_MAX / n
                _check_footprint(Transfer(n, 1.0, j, state, propagator=cfg,
                                          n_time_samples=1000))
                with pytest.raises(ManifestError,
                                   match=r"'j_coupling' and 'lam': \|J\| N"):
                    _check_footprint(Transfer(
                        n, 1.0, np.nextafter(j, 2 * j), state,
                        propagator=cfg, n_time_samples=1000))

    @pytest.mark.parametrize("fields_", [
        {"j_coupling": 1e12}, {"j_coupling": -1e12}, {"lam": 1e-7},
        {"j_coupling": 1e12, "propagator": "exact-eigendecomposition"}])
    def test_unresolved_stage_phases_name_j_and_lam(
            self, transfer_manifest, tmp_path, capsys, fields_):
        # J/lam = 1e12 at N = 5 read final_fidelity 0.9999995 on free
        # fermions against 0.9999956 on the dense path
        cfg = with_fields(transfer_manifest, tmp_path, **fields_)
        out = tmp_path / "o"
        assert run(["transfer", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "'j_coupling'" in err and "'lam'" in err
        assert "|J| N/lam" in err
        assert not any(out.iterdir())

    def test_unresolved_stage_phases_name_ratios(self, sweep_manifest,
                                                  tmp_path, capsys):
        cfg = with_fields(sweep_manifest, tmp_path, ratios=[8.0, 2e5 + 1])
        out = tmp_path / "o"
        assert run(["sweep", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "'ratios'" in err and "'j_coupling'" not in err
        assert "|J| N/lam" in err
        assert not any(out.iterdir())

    def test_series_refusal_comes_first(self, transfer_manifest, tmp_path,
                                        capsys):
        # GHZ at N = 6 with 2 samples per stage: J/lam = 1e6 needs a
        # series table above the memory limit, and that is what is named
        cfg = with_fields(transfer_manifest, tmp_path, n_spins=6, state=GHZ,
                          j_coupling=1e6, n_time_samples=2)
        assert run(["transfer", "--config", cfg, "--out", tmp_path / "o"]
                   ) == 1
        err = capsys.readouterr().err
        assert "Chebyshev" in err and "|J| N/lam" not in err

    # the rows are keyed by (label, ratio): a repeated key wrote rows no
    # reader could tell apart, and fitted them all
    @pytest.mark.parametrize("first", ["a", "state1"])
    def test_repeated_label_exits_1(self, sweep_manifest, tmp_path, capsys,
                                    first):
        second = {"amplitudes": [0.8, 0.6]}
        if first == "a":  # else the default label state1 collides
            second["label"] = "a"
        cfg = with_fields(sweep_manifest, tmp_path, ratios=[8, 16], states=[
            {"label": first, "amplitudes": [0, 1]}, second])
        out = tmp_path / "o"
        assert run(["sweep", "--config", cfg, "--out", out]) == 1
        assert "'states[1].label'" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("ratios", [[8, 16, 8], [8, 8.0]])
    def test_repeated_ratio_exits_1(self, sweep_manifest, tmp_path, capsys,
                                    ratios):
        cfg = with_fields(sweep_manifest, tmp_path, ratios=ratios)
        out = tmp_path / "o"
        assert run(["sweep", "--config", cfg, "--out", out]) == 1
        assert "'ratios'" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_empty_states_exits_1(self, sweep_manifest, tmp_path, capsys):
        cfg = with_fields(sweep_manifest, tmp_path, states=[])
        out = tmp_path / "o"
        assert run(["sweep", "--config", cfg, "--out", out]) == 1
        assert "'states'" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("j_coupling", [0.0, 1e-8])
    def test_empty_bob_register_exits_1(self, transfer_manifest, tmp_path,
                                        capsys, j_coupling):
        # J/lam near 0 leaves no weight on Bob's decoded register
        cfg = with_fields(transfer_manifest, tmp_path, j_coupling=j_coupling,
                          state={"alpha": 1.0, "beta": 0.0})
        with pytest.warns(UserWarning, match="quadratic"):
            assert run(["transfer", "--config", cfg,
                        "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert "'j_coupling'" in err and "'lam'" in err and "J/lam" in err

    @pytest.mark.parametrize("propagator",
                             ["krylov", "exact-eigendecomposition"])
    @pytest.mark.parametrize("ratio, code", [(1e-8, 1), (1e-4, 0)])
    def test_empty_bob_register_sweep(self, sweep_manifest, tmp_path, capsys,
                                      propagator, ratio, code):
        # |1> at N = 5 on free fermions and on the dense path.  At 1e-4
        # the decoded row holds weight although the branch target's
        # sector of Bob's register holds none (the state vector redoes
        # the point on every sector) and the rest-empty probability
        # lies below fermions.EMPTY_FLOOR (free fermions decode the row)
        cfg = with_fields(sweep_manifest, tmp_path, ratios=[ratio],
                          propagator=propagator)
        out = tmp_path / "o"
        with pytest.warns(UserWarning, match="quadratic"):
            assert run(["sweep", "--config", cfg, "--out", out]) == code
        err = capsys.readouterr().err
        if code:
            assert "'ratios'" in err and "J/lam" in err
            assert not any(out.iterdir())
        else:
            assert (out / "sweep.csv").exists()

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
        # a Gaussian payload runs on free fermions at these lengths
        # (test_gaussian_transfer_runs_at_n40), and so does the XY
        # baseline on "krylov"; GHZ, and the baseline on the dense path,
        # need 2^N amplitudes
        path = request.getfixturevalue(f"{command}_manifest")
        extra = {"transfer": {"state": GHZ},
                 "baseline": {"propagator": "exact-eigendecomposition"}
                 }.get(command, {})
        cfg = with_fields(path, tmp_path, n_spins=n_spins, **extra)
        out = tmp_path / "o"
        assert run([command, "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "'n_spins'" in err and "free-fermion" in err
        assert not any(out.iterdir())

    def test_gaussian_transfer_runs_at_n40(self, transfer_manifest,
                                           tmp_path):
        # |1> runs on free fermions in O(N^2) memory; scaling lam and J
        # together only rescales time, which leaves the outputs as they
        # are
        got = {}
        for s in (1.0, 2.0, 0.37):
            cfg = with_fields(transfer_manifest, tmp_path, n_spins=40,
                              lam=s, j_coupling=22.0 * s, n_time_samples=20,
                              state={"alpha": 1.0, "beta": 0.0})
            out = tmp_path / f"o{s}"
            assert run(["transfer", "--config", cfg, "--out", out]) == 0
            summary = json.loads((out / "summary.json").read_text())
            rows = (out / "sigma_z.csv").read_text().splitlines()[2:]
            got[s] = np.array([summary["final_fidelity"],
                               summary["peak_fidelity"],
                               sum(float(r.split(",")[2]) for r in rows)])
        for s in (2.0, 0.37):
            assert np.abs(got[s] - got[1.0]).max() <= 1e-10

    @pytest.mark.parametrize("n_spins", [201, 2000])
    def test_gaussian_transfer_beyond_its_limit_exits_1(
            self, transfer_manifest, tmp_path, capsys, n_spins):
        # memory would allow it, but the run would last hours
        cfg = with_fields(transfer_manifest, tmp_path, n_spins=n_spins,
                          state={"alpha": 1.0, "beta": 0.0})
        out = tmp_path / "o"
        assert run(["transfer", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "'n_spins'" in err and "at most 200 spins" in err
        assert not any(out.iterdir())

    # 1e12 samples would allocate terabytes of traces; 1e300 more
    # than numpy's largest array
    @pytest.mark.parametrize("samples", [1e12, 1e300])
    @pytest.mark.parametrize("command, field", [
        ("baseline", "n_time_samples"), ("transfer", "n_time_samples"),
        ("sweep", "n_time_samples"), ("consistency", "samples"),
    ])
    def test_trace_too_long_exits_1(self, request, tmp_path, capsys,
                                    command, field, samples):
        path = request.getfixturevalue(f"{command}_manifest")
        cfg = with_fields(path, tmp_path, **{field: samples})
        out = tmp_path / "o"
        assert run([command, "--config", cfg, "--out", out]) == 1
        assert f"'{field}'" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_trace_bytes_boundary(self):
        # |1> at N = 13 runs on free fermions, whose own footprint is a
        # few MB: the traces of 16 values per sample over the 2n + 1
        # samples of both stages reach the limit near n = 4.19 million
        one = LogicalState(1, np.array([0.0, 1.0]))
        at_limit = MEMORY_LIMIT_GIB * 2**30 / (16 * TRACE_VALUE_BYTES) / 2
        assert 4.1e6 < at_limit < 4.2e6
        _check_footprint(Transfer(13, 1.0, 22.0, one,
                                  n_time_samples=int(0.998 * at_limit)))
        with pytest.raises(ManifestError, match="'n_time_samples'"):
            _check_footprint(Transfer(13, 1.0, 22.0, one,
                                      n_time_samples=int(at_limit) + 1))

    @pytest.mark.parametrize("n_spins, rows, megabytes",
                             [(13, 41, 2.06), (200, 1, 10.34)])
    def test_covariance_term_counts_the_stacks_that_run(self, n_spins, rows,
                                                        megabytes):
        # eight stacks of as many covariances as the free-fermion path
        # propagates at once: from N = 90 on one covariance alone
        # exceeds fermions.BLOCK_BYTES, so the term outgrows 8 of them
        one = LogicalState(1, np.array([0.0, 1.0]))
        record = Transfer(n_spins, 1.0, 22.0, one)
        path = protocol._Covariances(record, [])
        assert path.block == rows
        # the footprint less its Pfaffian matrices of 4N + 2k + 6 rows
        pfaffians = 16 * path.PFAFFIAN_MATRICES * (4 * n_spins + 8) ** 2
        need = 2 ** path.footprint(record) - pfaffians
        assert need == pytest.approx(8 * rows * 8 * (2 * n_spins + 2) ** 2,
                                     rel=1e-12)
        assert need / 1e6 == pytest.approx(megabytes, abs=0.005)

    def test_measured_trace_bytes_stay_below_the_constant(self, tmp_path):
        # the tracemalloc peak of a whole transfer run, writer included,
        # per trace value: at least the 8 bytes of the value itself, and
        # below what the guard counts
        def manifest(samples):
            return write_manifest(tmp_path / f"m{samples}.json", {
                "experiment": "transfer", "n_spins": 5, "lam": 1.0,
                "j_coupling": 22.0, "state": {"alpha": 1.0, "beta": 0.0},
                "n_time_samples": samples})

        # first calls fill the caches a run keeps
        assert run(["transfer", "--config", manifest(10),
                    "--out", tmp_path / "warm"]) == 0
        samples = 12_000
        cfg = manifest(samples)
        tracemalloc.start()
        try:
            assert run(["transfer", "--config", cfg,
                        "--out", tmp_path / "o"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_value = peak / ((5 + 3) * (2 * samples + 1))
        assert 8 < per_value < TRACE_VALUE_BYTES

    @pytest.mark.parametrize("command, fields_, path, fixed", [
        # as the first run of a fresh process, which also imports the
        # modules its first calls take, this one has peaked at 0.596 MB
        # against 0.557 MB of path and traces: only the fixed term
        # covers it.  Here those modules are loaded: 0.44 MB
        ("transfer", {"n_spins": 7, "j_coupling": 22.007 * 7 / 13,
                      "state": GHZ, "n_time_samples": 200,
                      "propagator": "exact-eigendecomposition"},
         "_Amplitudes", True),
        # one covariance per stack, as from N = 64 on
        ("transfer", {"n_spins": 81, "j_coupling": 22.007 * 81 / 13,
                      "state": {"alpha": 1.0, "beta": 0.0},
                      "n_time_samples": 20}, "_Covariances", False),
        ("baseline", {"n_spins": 101}, "_XYWalls", False),
        ("transfer", {"n_spins": 12, "j_coupling": 22.007 * 12 / 13,
                      "state": GHZ, "n_time_samples": 200}, "_Amplitudes",
         False),
        ("transfer", {"n_spins": 11, "j_coupling": 22.007 * 11 / 13,
                      "state": GHZ, "n_time_samples": 200,
                      "propagator": "exact-eigendecomposition"},
         "_Amplitudes", False),
        ("baseline", {"n_spins": 13, "n_time_samples": 200,
                      "propagator": "exact-eigendecomposition"},
         "_Amplitudes", False),
    ])
    def test_measured_peak_stays_below_the_path_footprint(
            self, request, tmp_path, command, fields_, path, fixed):
        # the tracemalloc peak of a whole run through main(), writer
        # included, against what the guard counts: its path's footprint,
        # any Chebyshev table, and the traces, and the fixed term only
        # where ``fixed``.  Peak over the estimate less the fixed term
        # read 0.78, 0.26, 0.76, 0.52 and 0.35 on the last five runs, in
        # the order given.  tracemalloc does not see LAPACK's copy and
        # workspace, three of the eight matrices the dense estimate
        # counts at its eigh
        cfg = with_fields(request.getfixturevalue(f"{command}_manifest"),
                          tmp_path, **fields_)
        record = _load(COMMANDS[command][0], json.loads(Path(cfg).read_text()))
        assert protocol.path_class(record).__name__ == path
        estimate = 2 ** _check_footprint(record)
        if not fixed:
            estimate -= RUN_FIXED_BYTES
        tracemalloc.start()
        try:
            assert run([command, "--config", cfg,
                        "--out", tmp_path / "o"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < estimate

    @pytest.mark.parametrize("fields_", [
        {"n_spins": 10, "state": GHZ, "n_time_samples": 20,
         "propagator": "exact-eigendecomposition"},
        {"n_spins": 12, "state": GHZ, "n_time_samples": 200},
        {"n_spins": 13, "state": ONE, "n_time_samples": 200},
        {"n_spins": 101, "state": ONE, "n_time_samples": 20},
    ], ids=["dense", "chebyshev", "fermions-13", "fermions-101"])
    def test_peak_rss_stays_below_the_estimate(self, transfer_manifest,
                                               tmp_path, fields_):
        # the peak RSS of a child process that runs a transfer through
        # main(), above a child that only imports the package, against
        # what the guard counts: RSS also holds what tracemalloc does
        # not see, LAPACK's and BLAS's buffers
        N = fields_["n_spins"]
        cfg = with_fields(transfer_manifest, tmp_path,
                          j_coupling=22.007 * N / 13, **fields_)
        record = _load(Transfer, json.loads(Path(cfg).read_text()))
        call = (f"assert dwtransfer.cli.main(['transfer', '--config', "
                f"{cfg!r}, '--out', {str(tmp_path / 'o')!r}]) == 0")
        peaks = [child_peak_rss(body) for body in ("pass", call)]
        assert peaks[1] - peaks[0] < 2 ** _check_footprint(record)

    @pytest.mark.parametrize("n_spins", [10**9, 2**62])
    @pytest.mark.parametrize("command, fields_", [
        ("transfer", {}), ("transfer", {"state": GHZ}), ("sweep", {})])
    def test_huge_chain_is_refused_before_it_allocates(
            self, request, tmp_path, command, fields_, n_spins):
        # the path choice and the footprint take memory independent of N,
        # so under a 1.5 GiB address-space limit the guard names n_spins:
        # a free-fermion payload, GHZ (whose series table, built from the
        # stages, comes after) and the sweep's dense path.  Building an
        # N-spin pattern first would end in a MemoryError traceback
        cfg = with_fields(request.getfixturevalue(f"{command}_manifest"),
                          tmp_path, n_spins=n_spins, **fields_)
        out = str(tmp_path / "o")
        limit = 3 * 2**29
        script = (
            "import resource, sys\n"
            "import dwtransfer.cli\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            f"sys.exit(dwtransfer.cli.main([{command!r}, '--config', "
            f"{cfg!r}, '--out', {out!r}]))\n"
        )
        # one BLAS thread keeps the address space numpy reserves small
        env = child_env(OPENBLAS_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 1, done.stderr
        assert "'n_spins'" in done.stderr
        assert "Traceback" not in done.stderr

    def test_dense_path_has_the_lower_limit(self):
        def record(n, method):
            one = LogicalState(1, np.array([0.0, 1.0]))
            return Transfer(n, 1.0, 22.0, one,
                            propagator=PropagatorConfig(method=method))

        for n in (13, 16):
            _check_footprint(record(n, "krylov"))
        _check_footprint(record(13, "exact-eigendecomposition"))
        with pytest.raises(ManifestError, match="'n_spins'"):
            _check_footprint(record(16, "exact-eigendecomposition"))

    def test_dense_baseline_counts_its_excitation_sectors(self):
        # the XY baseline's payload stays in N + 1 states, so the dense
        # path is limited by the state vector alone, as on "krylov"
        one = LogicalState(1, np.array([0.0, 1.0]))
        dense = PropagatorConfig(method="exact-eigendecomposition")
        _check_footprint(Baseline(21, 1.0, one, propagator=dense))
        with pytest.raises(ManifestError, match="'n_spins'"):
            _check_footprint(Baseline(22, 1.0, one, propagator=dense))

    def test_free_fermion_baseline_runs_up_to_200_spins(self, tmp_path,
                                                        baseline_manifest,
                                                        capsys):
        one = LogicalState(1, np.array([0.0, 1.0]))
        assert issubclass(protocol.path_class(Baseline(200, 1.0, one)),
                          protocol._Covariances)
        _check_footprint(Baseline(200, 1.0, one))
        cfg = with_fields(baseline_manifest, tmp_path, n_spins=201)
        out = tmp_path / "o"
        assert run(["baseline", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "'n_spins'" in err and "at most 200 spins" in err
        assert not any(out.iterdir())

    def test_chebyshev_transfer_runs_up_to_21_spins(self):
        # GHZ is not Gaussian: its 2^N amplitudes set the limit
        ghz = LogicalState(3, np.array([1, 0, 0, 0, 0, 0, 0, 1])
                           / math.sqrt(2))
        _check_footprint(Transfer(21, 1.0, 22.0, ghz))
        with pytest.raises(ManifestError, match="'n_spins'"):
            _check_footprint(Transfer(22, 1.0, 22.0, ghz))


# ROADMAP item 8's probe: small runs of each experiment, and the values
# each declared field is set to in turn
PROBE_BASES = {
    "transfer": {"n_spins": 5, "lam": 1.0, "j_coupling": 22.0,
                 "state": {"amplitudes": [S2, S2]}, "n_time_samples": 20},
    "baseline": {"n_spins": 5, "lam": 1.0,
                 "state": {"amplitudes": [0.0, 1.0]}, "n_time_samples": 20},
    "sweep": {"n_spins": 5, "lam": 1.0, "ratios": [8.0, 16.0],
              "states": [{"label": "one", "amplitudes": [0.0, 1.0]}],
              "n_time_samples": 20},
    "consistency": {"lam": 1.0, "n_min": 2, "n_max": 4, "samples": 20},
}
PROBE_VALUES = [None, True, "x", [], {}, 0, -1, 1e-300, -1e-300, 1e300,
                -1e300, 2**63, 1e12]
# the parts of a field a value can also replace
PROBE_NESTED = {
    "transfer": [("state", "alpha"), ("state", "amplitudes"),
                 ("state", "amplitudes", 0), ("state", "amplitudes", 1)],
    "sweep": [("states", 0), ("states", 0, "label"),
              ("states", 0, "amplitudes", 1), ("ratios", 0), ("ratios", 1)],
}
PROBE_NESTED["baseline"] = PROBE_NESTED["transfer"]
# runs each case through main() in turn; prints each exit code, or None
# for an exception that escaped it, and what was written to stderr.  A
# MemoryError under the address-space limit is such an exception
PROBE_SCRIPT = """
import contextlib, io, json, sys, traceback
from dwtransfer import cli
results = []
for i, (command, manifest) in enumerate(json.load(open(sys.argv[1]))):
    cfg = f"{sys.argv[2]}/{i}.json"
    with open(cfg, "w") as fh:
        json.dump(manifest, fh)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main([command, "--config", cfg,
                             "--out", f"{sys.argv[2]}/{i}"])
        except Exception:
            code = None
            traceback.print_exc()
    results.append((code, err.getvalue()))
json.dump(results, sys.stdout)
"""


def probe_manifest(command, path, value):
    """The probe's base manifest of ``command`` with the part at ``path``
    (keys and indices) set to ``value``; a payload given by ``alpha``
    starts as |0>."""
    manifest = copy.deepcopy(PROBE_BASES[command])
    manifest["experiment"] = command
    if path[-1] == "alpha":
        manifest["state"] = {"alpha": 0.0, "beta": 1.0}
    node = manifest
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return manifest


class TestExtremeValues:
    """ROADMAP item 8: every declared field of every experiment, and the
    parts of its payloads and ratios, set to each of ``PROBE_VALUES``,
    exits 0, 1 or 2 without a traceback, and every exit 1 names the
    field that was set.  All cases run in one child process under a
    1.5 GiB address-space limit, so a case that allocates before it is
    refused fails with a MemoryError instead of exhausting the
    machine."""

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_field_takes_every_value(self, tmp_path, command):
        paths = [(f.name,) for f in fields(COMMANDS[command][0])]
        paths += PROBE_NESTED.get(command, [])
        cases = [(path, value) for path in paths for value in PROBE_VALUES]
        listed = tmp_path / "cases.json"
        listed.write_text(json.dumps(
            [(command, probe_manifest(command, path, value))
             for path, value in cases]))
        limit = 3 * 2**29

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        # one BLAS thread keeps the address space numpy reserves small
        env = child_env(OPENBLAS_NUM_THREADS="1")
        done = subprocess.run(
            [sys.executable, "-c", PROBE_SCRIPT, str(listed), str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
            preexec_fn=limit_address_space)
        assert done.returncode == 0, done.stderr
        results = json.loads(done.stdout)
        assert len(results) == len(cases)
        for ((path, value), (code, err)) in zip(cases, results):
            case = f"{'.'.join(map(str, path))} = {value!r}: exit {code}"
            assert code in (0, 1, 2), f"{case}\n{err}"
            assert "Traceback" not in err, f"{case}\n{err}"
            if code == 1:
                assert f"'{path[0]}" in err, f"{case}\n{err}"


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
        ("transfer", {"state": {"amplitudes": []}}, "state.amplitudes"),
        # one amplitude is a payload of no qubit
        ("transfer", {"state": {"amplitudes": [1]}}, "state"),
        # a payload gives alpha/beta or amplitudes, not both
        ("transfer", {"state": {"alpha": 1, "beta": 0,
                                "amplitudes": [0.6, 0.8]}},
         "state.amplitudes"),
        ("sweep", {"states": [{"alpha": 1, "amplitudes": [0, 1]}]},
         "states[0].amplitudes"),
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
        kinds = typing.get_type_hints(schema)
        for field in fields(schema):
            # a value of the wrong JSON type for the field's kind
            value = 3 if kinds[field.name] is str else "3"
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
                   "`sweep`": "Sweep", "`consistency`": "Consistency"}
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
                    for schema, _ in COMMANDS.values()
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


class TestReadmeExample:
    def test_quick_example_prints_its_fidelities(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text().split("Quick example:", 1)[1]
        block = text.split("```python\n", 1)[1].split("```", 1)[0]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            exec(compile(block, "README.md", "exec"), {})
        values = [float(v) for v in printed.getvalue().split()]
        # the comments in the block: ~0.9947 and ~0.970
        assert len(values) == 2
        assert values[0] == pytest.approx(0.9947, abs=5e-5)
        assert values[1] == pytest.approx(0.970, abs=5e-4)


class TestImportGraph:
    @staticmethod
    def loaded(request, tmp_path, command, prefix, cfg=None,
               preamble=""):
        """Modules under ``prefix`` that one CLI run leaves loaded.

        ``cfg`` defaults to the command's fixture manifest; ``preamble``
        runs before ``dwtransfer.cli`` is imported.
        """
        if cfg is None:
            cfg = request.getfixturevalue(f"{command}_manifest")
        script = (
            "import sys\n"
            f"{preamble}"
            "import dwtransfer.cli\n"
            f"code = dwtransfer.cli.main([{command!r}, '--config', {cfg!r},"
            f" '--out', {str(tmp_path / 'o')!r}])\n"
            "assert code == 0, code\n"
            "print(sorted(m for m in sys.modules if m.startswith("
            f"{prefix!r})))\n"
        )
        done = subprocess.run([sys.executable, "-c", script],
                              env=child_env(), capture_output=True,
                              text=True, timeout=120)
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

    @pytest.mark.parametrize("command, bundled", [
        ("transfer", None),  # a Gaussian payload: free fermions
        ("transfer", "ghz_3x3x3"),  # the state vector
        ("sweep", None),
        ("baseline", None),
        ("consistency", None),
    ])
    def test_run_needs_neither_scipy_nor_a_process_pool(
            self, request, tmp_path, command, bundled):
        # importing scipy.sparse took about 0.24 s and 20 MB of every
        # run's set-up; multiprocessing only serves sweep --workers
        cfg = None
        if bundled is not None:
            cfg = str(Path(__file__).resolve().parents[1] / "manifests"
                      / f"{bundled}.json")
        assert self.loaded(request, tmp_path, command,
                           "concurrent.futures.process", cfg,
                           "sys.modules['scipy'] = None  # imports raise\n"
                           ) == "[]"


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

    def test_manifest_not_an_object_exits_1(self, tmp_path, capsys):
        cfg = write_manifest(tmp_path / "list.json", [1, 2])
        assert run(["baseline", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert "manifest must be a JSON object" in capsys.readouterr().err

    def test_out_naming_a_file_exits_1(self, baseline_manifest, tmp_path,
                                       capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert run(["baseline", "--config", baseline_manifest,
                    "--out", out]) == 1
        assert "File exists" in capsys.readouterr().err

    @pytest.mark.parametrize("command, runner", [
        ("baseline", "run_heisenberg_baseline"),
        ("transfer", "run_multi_qubit_transfer"),
    ])
    def test_run_goes_through_the_module_global(self, request, monkeypatch,
                                                tmp_path, command, runner):
        # perfbench/spans.py traces a run by rebinding these names
        called = []
        original = getattr(cli, runner)

        def spy(run):
            called.append(type(run).__name__)
            return original(run)

        monkeypatch.setattr(cli, runner, spy)
        path = request.getfixturevalue(f"{command}_manifest")
        assert run([command, "--config", path, "--out", tmp_path / "o"]) == 0
        assert called == [COMMANDS[command][0].__name__]

    def test_unknown_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["baseline"])
        assert exc.value.code == 1
