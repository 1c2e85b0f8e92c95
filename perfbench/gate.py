"""Correctness gate: compare CLI outputs number by number.

Every output file (``summary.json``, ``fit.json``, the CSVs) is reduced
to a flat list of ``(position, value)`` pairs: JSON documents are
walked in key order with the echoed ``manifest`` block left out, CSVs
row by row with their ``#`` manifest header left out.  Two outputs agree
when they hold the same files, positions and non-numeric values, and
every pair of numbers satisfies ``|a - b| <= TOLERANCE * max(1, |b|)``.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

TOLERANCE = 1e-8  # the package's fast-vs-reference contract


def _walk(node, path):
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _walk(node[key], f"{path}.{key}")
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _walk(item, f"{path}[{i}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, float(node)
    else:
        yield path, node


def _number_or_text(field: str):
    try:
        return float(field)
    except ValueError:
        return field


def flatten(name: str, text: str) -> list:
    """``(position, value)`` pairs of one output file."""
    if name.endswith(".json"):
        doc = json.loads(text)
        doc.pop("manifest", None)
        return list(_walk(doc, name))
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    return [
        (f"{name}:{i}:{j}", _number_or_text(field))
        for i, row in enumerate(rows)
        for j, field in enumerate(row.split(","))
    ]


def _differs(a, b, tol: float) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return True
        return abs(a - b) > tol * max(1.0, abs(b))
    return a != b


def compare(outputs: dict, reference: dict, tol: float = TOLERANCE) -> list:
    """Problems found comparing ``{file name: text}`` maps; empty if equal."""
    if sorted(outputs) != sorted(reference):
        return [f"files {sorted(outputs)} != reference {sorted(reference)}"]
    problems = []
    for name in sorted(reference):
        got = flatten(name, outputs[name])
        want = flatten(name, reference[name])
        if [p for p, _ in got] != [p for p, _ in want]:
            problems.append(f"{name}: layout differs from the reference")
            continue
        bad = [(p, a, b) for (p, a), (_, b) in zip(got, want)
               if _differs(a, b, tol)]
        if bad:
            p, a, b = bad[0]
            problems.append(f"{name}: {len(bad)} values differ, first at "
                            f"{p}: {a!r} vs {b!r}")
    return problems


def read_outputs(out_dir: Path) -> dict:
    return {p.name: p.read_text() for p in sorted(out_dir.iterdir())
            if p.is_file()}


def read_reference(ref_dir: Path) -> dict:
    """Outputs stored gzipped as ``<file name>.gz`` by ``record_reference``."""
    return {p.name[:-3]: gzip.decompress(p.read_bytes()).decode()
            for p in sorted(ref_dir.glob("*.gz"))}


def write_reference(outputs: dict, ref_dir: Path):
    ref_dir.mkdir(parents=True, exist_ok=True)
    for old in ref_dir.glob("*.gz"):
        old.unlink()
    for name, text in outputs.items():
        # mtime=0 keeps the archive bytes independent of when it was made
        (ref_dir / f"{name}.gz").write_bytes(
            gzip.compress(text.encode(), mtime=0))
