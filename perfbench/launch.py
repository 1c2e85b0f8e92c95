"""Run one dwtransfer CLI call in this process and time it from outside.

    python3 perfbench/launch.py --timing FILE [--spans FILE | --setup-only]
                                -- <dwtransfer arguments>

The parent stamps ``time.monotonic()`` just before it starts this
process; the stamps written here use the same clock, so the parent can
take set-up time (process start until ``dwtransfer.cli`` is imported)
and the time spent in ``cli.main`` from the ``--timing`` file.  With
``--spans`` the layers are traced (see ``spans.py``); with
``--setup-only`` the process exits right after the imports and records
the interpreter and library versions instead of running the CLI.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _describe() -> dict:
    """Versions and BLAS threading of the libraries the program loaded."""
    import ctypes
    import platform

    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    desc = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": None,
    }
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                desc["blas_threads"] = fn()
                return desc
    return desc


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--timing", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--spans")
    mode.add_argument("--setup-only", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args
    if cli_args[:1] == ["--"]:
        cli_args = cli_args[1:]

    sys.path.insert(0, str(ROOT / "src"))
    import dwtransfer.cli

    stamps = {"imported": time.monotonic()}
    if args.setup_only:
        stamps["describe"] = _describe()
        Path(args.timing).write_text(json.dumps(stamps))
        return 0

    entry = dwtransfer.cli.main
    tracer = None
    if args.spans:
        import spans

        tracer = spans.Tracer()
        entry = spans.install(tracer)
    stamps["start"] = time.monotonic()
    code = entry(cli_args)
    stamps["end"] = time.monotonic()
    stamps["exit"] = code
    Path(args.timing).write_text(json.dumps(stamps))
    if tracer is not None:
        tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
