"""Read a field of a dwtransfer manifest, or write a variant of it.

    python3 .github/workflows/variant.py IN KEY
    python3 .github/workflows/variant.py IN OUT KEY=EXPR [KEY=EXPR ...]

The first form prints the field KEY of the manifest IN.  The second
writes IN to OUT with each KEY set, in order, to the value of EXPR: a
Python expression over the manifest's fields as set so far, ``math``
and ``cli`` (``dwtransfer.cli``).  A JSON string, number or list reads
as itself, e.g. ``propagator='"krylov"'`` or ``ratios='[8, 16]'``.
"""

import json
import math
import sys


def main(argv) -> int:
    with open(argv[0]) as fh:
        manifest = json.load(fh)
    if len(argv) == 2 and "=" not in argv[1]:
        print(manifest[argv[1]])
        return 0
    from dwtransfer import cli

    for item in argv[2:]:
        key, expr = item.split("=", 1)
        manifest[key] = eval(expr, {"math": math, "cli": cli}, dict(manifest))
    with open(argv[1], "w") as fh:
        json.dump(manifest, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
