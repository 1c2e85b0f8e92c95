"""End-to-end acceptance checks, one per headline guarantee.

Each test prints a single PASS/FAIL line so the suite output doubles as
an acceptance report.  The numeric thresholds are frozen; loosening any
of them is a breaking change.
"""

import json
import math
import time

import numpy as np
import pytest

from dwtransfer import protocol
from dwtransfer.analysis import closed_form_consistency, error_scaling_sweep
from dwtransfer.cli import main as cli_main
from dwtransfer.core import (
    Operator,
    PauliSum,
    PropagatorConfig,
    basis_index,
    evolve,
    index_bits,
    realize,
)
from dwtransfer.encoding import LogicalState, dw_encode_bits
from dwtransfer.hamiltonians import (
    heisenberg_xy,
    multiqubit_reset_hamiltonian,
    transfer_amplitude_closed_form,
    transport_hamiltonian,
)
from dwtransfer.protocol import (
    Baseline,
    Transfer,
    run_heisenberg_baseline,
    run_multi_qubit_transfer,
    run_single_qubit_transfer,
)
from references import dw_decode, dw_decode_bits, sigma_z

EXACT = PropagatorConfig(method="exact-eigendecomposition")
KRYLOV = PropagatorConfig(method="krylov")
S2 = 1 / math.sqrt(2)
S3 = 1 / math.sqrt(3)


def report(number, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {verdict}: {detail}")
    assert ok, detail


class TestAcceptance:
    def test_1_baseline_perfect_transfer(self):
        # XY baseline reaches unit transfer fidelity at tau for N = 2..13
        start = time.monotonic()
        worst = 0.0
        one = LogicalState(1, np.array([0.0, 1.0], dtype=complex))
        for N in range(2, 14):
            res = run_heisenberg_baseline(Baseline(
                N, 1.0, one, n_time_samples=4, propagator=KRYLOV))
            worst = max(worst, 1.0 - res.final_fidelity)
        elapsed = time.monotonic() - start
        report(
            1,
            worst <= 1e-6 and elapsed < 10.0,
            f"baseline infidelity max {worst:.3e} (tol 1e-06), "
            f"N=2..13 in {elapsed:.1f}s (limit 10s)",
        )

    def test_2_closed_form_amplitude(self):
        # numerical end-to-end amplitude matches the closed form
        start = time.monotonic()
        dev = closed_form_consistency(range(2, 11), 1.0, samples=20)
        elapsed = time.monotonic() - start
        report(
            2,
            dev <= 1e-8 and elapsed < 30.0,
            f"closed-form deviation {dev:.3e} (tol 1e-08), "
            f"N=2..10 x 20 times in {elapsed:.1f}s (limit 30s)",
        )

    def test_3_headline_transfer_fidelity(self):
        # N = 13 chain at J/lam ~ 22 delivers the qubit above 0.99
        start = time.monotonic()
        res = run_single_qubit_transfer(
            1.0, 0.0, n_spins=13, lam=1.0, j_coupling=22.007,
            propagator=KRYLOV, n_time_samples=100,
        )
        elapsed = time.monotonic() - start
        report(
            3,
            res.final_fidelity >= 0.99 and elapsed < 120.0,
            f"N=13 J/lam=22.007 readout fidelity {res.final_fidelity:.5f} "
            f"(threshold 0.99) in {elapsed:.1f}s (limit 120s)",
        )

    def test_4_error_scaling_law(self):
        # log-log infidelity vs J/lam fit: slope -2 +/- 0.3, R^2 >= 0.95
        start = time.monotonic()
        one = LogicalState(1, np.array([0.0, 1.0], dtype=complex))
        table = error_scaling_sweep([
            ("one", ratio, Transfer(9, 1.0, ratio, one, propagator=EXACT,
                                    n_time_samples=100))
            for ratio in [8.0, 12.0, 16.0, 24.0, 32.0, 40.0]
        ])
        elapsed = time.monotonic() - start
        fit = table.fit
        ok = (
            fit is not None
            and abs(fit["slope"] - (-2.0)) <= 0.3
            and fit["r_squared"] >= 0.95
            and elapsed < 600.0
        )
        report(
            4,
            ok,
            f"N=9 sweep slope {fit['slope']:.4f} (target -2 +/- 0.3), "
            f"R^2 {fit['r_squared']:.4f} (min 0.95) in {elapsed:.1f}s "
            f"(limit 600s)",
        )

    def test_5_symmetry_protection(self):
        # XY conserves total Z; spins without transverse field are frozen
        worst_comm = 0.0
        for N in range(2, 9):
            h = realize(heisenberg_xy(N, 1.0)).matrix
            z = realize(
                PauliSum(N, tuple((1.0, {n: "Z"}) for n in range(1, N + 1)))
            ).matrix
            comm = (h @ z - z @ h)
            worst_comm = max(
                worst_comm, abs(comm).max() if comm.nnz else 0.0
            )
        worst_drift = 0.0
        rng = np.random.default_rng(5)
        cases = [
            (transport_hamiltonian(5, 22.0, 1.0), [1]),
            (multiqubit_reset_hamiltonian(5, 22.0, 1.0, 1), [5]),
            (multiqubit_reset_hamiltonian(7, 22.0, 1.0, 2), [6, 7]),
        ]
        for psum, frozen_sites in cases:
            h = realize(psum)
            n = psum.n_spins
            amp = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            psi = amp / np.linalg.norm(amp)
            ref = [sigma_z(psi, s) for s in frozen_sites]
            for t in (0.5, 1.7, 3.1):
                out = evolve(psi, h, t, EXACT)
                for s, r in zip(frozen_sites, ref):
                    worst_drift = max(worst_drift, abs(sigma_z(out, s) - r))
        report(
            5,
            worst_comm <= 1e-12 and worst_drift <= 1e-10,
            f"[H_XY, Z_total] max {worst_comm:.3e} (tol 1e-12), "
            f"field-free-spin <sigma_z> drift {worst_drift:.3e} (tol 1e-10)",
        )

    def test_6_krylov_matches_dense(self):
        # iterative propagator agrees with the dense reference
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 11))
            dim = 2**n
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = Operator((a + a.conj().T) / 2)
            amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi = amp / np.linalg.norm(amp)
            t = float(rng.uniform(0.1, 5.0))
            ref = evolve(psi, h, t, EXACT)
            fast = evolve(psi, h, t, KRYLOV)
            worst = max(worst, float(np.linalg.norm(ref - fast)))
        report(
            6,
            worst <= 1e-8,
            f"krylov-vs-dense max deviation {worst:.3e} over 50 random "
            f"instances (tol 1e-08)",
        )

    def test_7_codec_roundtrip(self):
        # domain-wall codec is bijective and matches the known patterns;
        # the protocol's decode permutation inverts Bob's patterns
        ok = True
        for k in range(1, 11):
            perm = protocol._decode_permutation(k)
            ok &= np.array_equal(np.sort(perm), np.arange(2**k))
            for idx in range(2**k):
                logical = index_bits(idx, k)
                phys = dw_encode_bits(logical)
                ok &= dw_decode_bits(phys, 0) == tuple(logical)
                # Bob holds the codec pattern of the mirrored bits
                bob = dw_decode_bits(index_bits(perm[idx], k), 0)
                ok &= bob[::-1] == tuple(logical)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(200):
            k = int(rng.integers(1, 5))
            amp = rng.normal(size=2**k) + 1j * rng.normal(size=2**k)
            amp /= np.linalg.norm(amp)
            phys = np.zeros(2**k, dtype=complex)
            for idx, a in enumerate(amp):
                phys[basis_index(dw_encode_bits(index_bits(idx, k)))] = a
            back = dw_decode(phys, 0)
            worst = max(worst, 1.0 - abs(np.vdot(back.amplitudes, amp)) ** 2)
        ok &= worst <= 1e-12
        ok &= dw_encode_bits([0, 0, 1, 0, 0]) == (1, 1, 1, 0, 0)
        ok &= dw_encode_bits([1, 0]) == (1, 0)
        report(
            7,
            ok,
            f"codec bijective for k<=10, protocol decode permutation "
            f"inverts Bob's patterns, 200 random-state roundtrips with "
            f"max infidelity {worst:.3e} (tol 1e-12), reference patterns "
            f"reproduced",
        )

    def test_8_multi_qubit_registers(self):
        # (a) phase correction helps, (b) error falls with J/lam,
        # (c) frozen per-state fidelity floors hold
        states = [
            ("11", 2, [0, 0, 0, 1], 0.991),
            ("psi+", 2, [S2, 0, 0, S2], 0.965),
            ("c2", 2, [0.5, 0.5, 0.5, -0.5], 0.973),
            ("ghz", 3, [S2, 0, 0, 0, 0, 0, 0, S2], 0.764),
            ("w", 3, [0, S3, S3, 0, S3, 0, 0, 0], 0.984),
            ("cluster3", 3, [0.5, 0, 0, 0.5, 0, 0.5, -0.5, 0], 0.940),
        ]
        ok = True
        details = []
        for label, k, amps, floor in states:
            logical = LogicalState(k, np.asarray(amps, dtype=complex))
            peaks = {}
            for ratio in (22.0, 44.0):
                res = run_multi_qubit_transfer(Transfer(
                    2 * k + 3, 1.0, ratio, logical, propagator=KRYLOV,
                    n_time_samples=100,
                ))
                peaks[ratio] = res.peak_fidelity
                if ratio == 22.0:
                    j = int(np.argmax(res.fidelity_corrected))
                    ok &= (
                        res.fidelity_corrected[j]
                        >= res.fidelity_uncorrected[j] - 1e-12
                    )
            ok &= peaks[44.0] > peaks[22.0]
            ok &= peaks[22.0] >= floor
            details.append(f"{label}={peaks[22.0]:.4f}(>= {floor})")
        report(
            8,
            ok,
            "multi-qubit peaks at J/lam=22: " + ", ".join(details)
            + "; all improve at J/lam=44 and correction never hurts",
        )

    def test_9_reproducible_cli_outputs(self, tmp_path):
        # identical manifests give byte-identical data files
        manifest = {
            "experiment": "transfer",
            "n_spins": 5,
            "lam": 1.0,
            "j_coupling": 22.0,
            "state": {"alpha": S2, "beta": S2},
            "n_time_samples": 50,
        }
        cfg_path = tmp_path / "manifest.json"
        cfg_path.write_text(json.dumps(manifest))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        code_a = cli_main(
            ["transfer", "--config", str(cfg_path), "--out", str(out_a)]
        )
        code_b = cli_main(
            ["transfer", "--config", str(cfg_path), "--out", str(out_b)]
        )
        same = all(
            (out_a / name).read_bytes() == (out_b / name).read_bytes()
            for name in ("summary.json", "fidelity_trace.csv", "sigma_z.csv")
        )
        report(
            9,
            code_a == 0 and code_b == 0 and same,
            "repeated manifest runs produced byte-identical summary.json, "
            "fidelity_trace.csv and sigma_z.csv",
        )
