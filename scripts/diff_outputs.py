#!/usr/bin/env python3
"""Name the data files that differ between two output roots, and by how much.

Usage: python scripts/diff_outputs.py A B

A and B are output roots of `scripts/hash_outputs.py` (or any two trees of
`simulate` outputs).  For each file under both roots it prints one line:
``identical  <file>`` when the bytes match, else the largest absolute and
relative difference between the numbers at the same place in both files, the
cells of a CSV or the numbers at the same position of a JSON document.  The
relative difference of two numbers is |a - b| / max(|a|, |b|).  A file whose
text differs other than in its numbers is reported as ``differs in <place>``,
a JSON place as a path such as ``$.resolved.diagnostics.period_glide``.  A
manifest is compared without its `duration_seconds`, the one entry that
differs between reruns, as `hash_outputs.py` hashes it, so that a change in
what a run did (its `resolved.diagnostics`) shows with its size.  A file
under one root only is listed as such.  The exit status is 0 when every file
is identical, 1 when any differs or is under one root only, and 2 on a usage
error, as for diff(1).
"""

import csv
import io
import json
import math
import sys
from pathlib import Path


class _Mismatch(Exception):
    """The two files differ other than in their numbers."""


def _pairs(a, b, where="$"):
    """(a, b) for every pair of numbers at the same place of two JSON values."""
    if isinstance(a, bool) or isinstance(b, bool) or not (
            isinstance(a, (int, float)) and isinstance(b, (int, float))):
        if type(a) is not type(b):
            raise _Mismatch(where)
        if isinstance(a, dict):
            if list(a) != list(b):
                raise _Mismatch(where)
            for key in a:
                yield from _pairs(a[key], b[key], f"{where}.{key}")
        elif isinstance(a, list):
            if len(a) != len(b):
                raise _Mismatch(where)
            for i, (x, y) in enumerate(zip(a, b)):
                yield from _pairs(x, y, f"{where}[{i}]")
        elif a != b:
            raise _Mismatch(where)
    else:
        yield float(a), float(b)


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_pairs(a: str, b: str):
    rows_a, rows_b = list(csv.reader(io.StringIO(a))), list(csv.reader(io.StringIO(b)))
    if len(rows_a) != len(rows_b):
        raise _Mismatch("its row count")
    for r, (row_a, row_b) in enumerate(zip(rows_a, rows_b), start=1):
        if len(row_a) != len(row_b):
            raise _Mismatch(f"row {r}")
        for x, y in zip(row_a, row_b):
            nx, ny = _number(x), _number(y)
            if nx is None or ny is None:
                if x != y:
                    raise _Mismatch(f"row {r}")
            else:
                yield nx, ny


def _contents(path: Path) -> bytes:
    """The bytes of a file; a manifest's without its wall-clock duration."""
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        manifest.pop("duration_seconds", None)
        data = json.dumps(manifest).encode()
    return data


def compare(a: Path, b: Path) -> str:
    """The report line of one file (without its name)."""
    text_a, text_b = _contents(a), _contents(b)
    if text_a == text_b:
        return "identical"
    try:
        if a.suffix == ".json":
            pairs = _pairs(json.loads(text_a), json.loads(text_b))
        else:
            pairs = _csv_pairs(text_a.decode(), text_b.decode())
        worst_abs = worst_rel = 0.0
        for x, y in pairs:
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            diff = abs(x - y)
            if not math.isfinite(diff):  # a nan or an infinity against a number
                return "max abs inf  max rel inf"
            worst_abs = max(worst_abs, diff)
            worst_rel = max(worst_rel, diff / max(abs(x), abs(y)))
    except _Mismatch as exc:
        return f"differs in {exc}"
    return f"max abs {worst_abs:.3g}  max rel {worst_rel:.3g}"


def data_files(root: Path) -> set:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    root_a, root_b = Path(sys.argv[1]), Path(sys.argv[2])
    files_a, files_b = data_files(root_a), data_files(root_b)
    status = 0
    for name in sorted(files_a | files_b):
        if name not in files_b:
            line = f"only in {root_a}"
        elif name not in files_a:
            line = f"only in {root_b}"
        else:
            line = compare(root_a / name, root_b / name)
        print(f"{line}  {name}")
        status |= line != "identical"
    return status


if __name__ == "__main__":
    sys.exit(main())
