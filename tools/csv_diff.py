"""Compare two run directories file by file, and their CSVs cell by cell.

    python3 tools/csv_diff.py RUN_A RUN_B

Every file under either directory is matched by its path relative to it.  For
each one this prints "identical" when the files are byte-identical.  A CSV
that differs gets, per column, the largest absolute change |b - a| and the
largest relative change |b - a| / |a| of a numeric column, or "text differs"
for a column that is not numeric.  The relative change runs over the cells
whose value in RUN_A is nonzero ("n/a" when there are none); the cells that
are 0 in RUN_A and changed are counted beside the absolute change.  Any other
file that differs (a manifest.json, an SVG) prints "differs".  A file on one
side only, or a CSV pair whose header or row count differs, is reported as
such.  The exit status is 0 when every file is identical and 1 otherwise.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import numpy as np


def _read(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as f:
        rows = list(csv.reader(f))
    return (rows[0], rows[1:]) if rows else ([], [])


def _numeric(cells: list[str]) -> np.ndarray | None:
    try:
        return np.array([float(c) for c in cells])
    except ValueError:
        return None


def column_changes(a: Path, b: Path) -> list[str]:
    """One line per column that differs between two CSVs of one shape, or
    one line saying why they cannot be compared column by column."""
    head_a, rows_a = _read(a)
    head_b, rows_b = _read(b)
    if head_a != head_b:
        return [f"header differs: {head_a} vs {head_b}"]
    if len(rows_a) != len(rows_b) or any(len(r) != len(head_a) for r in rows_a + rows_b):
        return [f"row count or width differs: {len(rows_a)} vs {len(rows_b)} rows"]
    lines = []
    for j, name in enumerate(head_a):
        ca, cb = [r[j] for r in rows_a], [r[j] for r in rows_b]
        if ca == cb:
            continue
        x, y = _numeric(ca), _numeric(cb)
        if x is None or y is None:
            lines.append(f"{name}: text differs")
            continue
        diff = np.abs(y - x)
        base = x != 0  # the relative change of a cell that is 0 on side a is undefined
        moved = np.count_nonzero(~base & (diff != 0))
        line = f"{name}: max abs {np.nanmax(diff):.3e}"
        if moved:
            line += f" ({moved} changed {'cell' if moved == 1 else 'cells'} with base 0)"
        rel = diff[base] / np.abs(x[base])
        line += f", max rel {np.nanmax(rel):.3e}" if rel.size else ", max rel n/a"
        lines.append(line)
    return lines


def compare(run_a: Path, run_b: Path) -> tuple[list[str], bool]:
    """The report lines for two run directories, and whether every file is
    identical."""
    names = sorted({p.relative_to(root) for root in (run_a, run_b)
                    for p in root.rglob("*") if p.is_file()})
    lines, same = [], True
    for name in names:
        a, b = run_a / name, run_b / name
        if not (a.is_file() and b.is_file()):
            lines.append(f"{name}: only in {run_a if a.is_file() else run_b}")
            same = False
        elif a.read_bytes() == b.read_bytes():
            lines.append(f"{name}: identical")
        elif name.suffix != ".csv":
            lines.append(f"{name}: differs")
            same = False
        else:
            changes = column_changes(a, b) or ["bytes differ, every cell equal"]
            lines.append(f"{name}:")
            lines.extend(f"  {line}" for line in changes)
            same = False
    return lines, same


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(d).is_dir() for d in args):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python3 tools/csv_diff.py RUN_A RUN_B (two directories)", file=sys.stderr)
        return 2
    lines, same = compare(Path(args[0]), Path(args[1]))
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
