"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/record_reference.py

Runs every bundled manifest a workload uses, once, and stores its output
files gzipped under ``perfbench/reference/<manifest stem>/``.  Record
only at a commit whose outputs are known to be right: the gate then
holds every later commit to them within ``gate.TOLERANCE``.
"""

import shutil
import sys
import time

import gate
import run


def main() -> int:
    work = run.WORK / "record_reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for name, make in run.WORKLOADS.items():
            for inv in make(0, work):
                if inv.exact_manifest is not None:
                    continue  # checked against the dense path instead
                inv_dir = work / inv.label
                child = run.launch(inv.argv(inv.manifest, inv_dir / "out"),
                                   inv_dir, time.monotonic() + 600)
                if child.exit_code != 0:
                    print(f"{inv.label}: exit code {child.exit_code}",
                          file=sys.stderr)
                    return 1
                outputs = gate.read_outputs(inv_dir / "out")
                gate.write_reference(outputs, run.REFERENCE / inv.label)
                print(f"{name}: recorded {inv.label} ({len(outputs)} files)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
