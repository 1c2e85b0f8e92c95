"""Compare the outputs of two dwtransfer runs with the benchmark's gate.

    python3 .github/workflows/compare_outputs.py OUT WANT TOL [--reference]

OUT and WANT are output directories; with ``--reference`` WANT holds
outputs recorded gzipped, as under ``perfbench/reference``.  Every
value of OUT must lie within TOL of WANT's (``perfbench/gate.py``).
Prints each difference and exits 1 if there is one.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "perfbench"))
import gate  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("want", type=Path)
    parser.add_argument("tol", type=float)
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)
    read_want = gate.read_reference if args.reference else gate.read_outputs
    problems = gate.compare(gate.read_outputs(args.out),
                            read_want(args.want), tol=args.tol)
    print(*problems, sep="\n")
    return int(bool(problems))


if __name__ == "__main__":
    sys.exit(main())
