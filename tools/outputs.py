"""Write the output set that a byte-identity check compares.

    python3 tools/outputs.py OUT

Runs every row of RUNS, one literal table of (label, experiment, seed,
overrides), through `ummimo.cli.run` with SVGs, into
OUT/<label>/<experiment>/seed-<seed>/.  OUT must be new or empty.  BLAS and
OpenMP are pinned to one thread before numpy loads, because the CSVs are
byte-deterministic only at a fixed thread count: fig4-mu's K = 100 row moves
by 1.4e-14 between one and two threads.  Run it on two checkouts and compare
the two sets with

    python3 tools/csv_diff.py OUT_A OUT_B

which exits 0 only when every CSV, manifest.json and SVG is identical.  The
package is imported from the checkout's own src.  Stdlib and the package
only.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

_FIG4_SHAPE = {"k_values": [10, 100], "drops": 1}

RUNS = (
    # every experiment at its defaults
    ("defaults", "nf-factor", 3, {}), ("defaults", "nf-factor", 4, {}),
    ("defaults", "aperture-gain", 3, {}), ("defaults", "aperture-gain", 4, {}),
    ("defaults", "beam", 3, {}), ("defaults", "beam", 4, {}),
    ("defaults", "beamdepth", 3, {}), ("defaults", "beamdepth", 4, {}),
    ("defaults", "fig4-mu", 3, {}), ("defaults", "fig4-mu", 4, {}),
    ("defaults", "fig5-su", 3, {}), ("defaults", "fig5-su", 4, {}),
    ("defaults", "fig6-ula", 3, {}), ("defaults", "fig6-ula", 4, {}),
    ("defaults", "fig6-upa", 3, {}), ("defaults", "fig6-upa", 4, {}),
    ("defaults", "fig9", 3, {}), ("defaults", "fig9", 4, {}),
    ("defaults", "fig10", 3, {}), ("defaults", "fig10", 4, {}),
    ("defaults", "fig11", 3, {}), ("defaults", "fig11", 4, {}),
    ("defaults", "bbu", 3, {}), ("defaults", "bbu", 4, {}),
    ("defaults", "circuit-demo", 3, {}), ("defaults", "circuit-demo", 4, {}),
    # the trial counts of the mc-estimation benchmark
    ("bench", "fig9", 3, {"trials": 40}), ("bench", "fig9", 4, {"trials": 40}),
    ("bench", "fig10", 3, {"trials": 40}), ("bench", "fig10", 4, {"trials": 40}),
    ("bench", "fig11", 3, {"trials": 25}), ("bench", "fig11", 4, {"trials": 25}),
    # fig11's pilots longer than M = 16, all shorter than M, and paths on the grid
    ("fig11-n4", "fig11", 3, {"n": 4, "trials": 25}),
    ("fig11-n4", "fig11", 4, {"n": 4, "trials": 25}),
    ("fig11-short", "fig11", 3, {"tau_values": [4, 8, 16], "trials": 25}),
    ("fig11-short", "fig11", 4, {"tau_values": [4, 8, 16], "trials": 25}),
    ("fig11-on-grid", "fig11", 3, {"on_grid": True, "trials": 25}),
    ("fig11-on-grid", "fig11", 4, {"on_grid": True, "trials": 25}),
    # fig4-mu's lattices: odd rows, one column, one row, the paper's 100 x 50
    ("fig4-7x5", "fig4-mu", 3, {"nx": 7, "ny": 5, **_FIG4_SHAPE}),
    ("fig4-1x6", "fig4-mu", 3, {"nx": 1, "ny": 6, **_FIG4_SHAPE}),
    ("fig4-8x1", "fig4-mu", 3, {"nx": 8, "ny": 1, **_FIG4_SHAPE}),
    ("fig4-100x50", "fig4-mu", 3, {"nx": 100, "ny": 50, **_FIG4_SHAPE}),
)


def write(out: Path, runs=RUNS) -> int:
    """Run each row into out/<label>; the number of files written."""
    from ummimo import cli

    for label, experiment, seed, overrides in runs:
        cli.run(experiment, dict(overrides), seed=seed, out=out / label, svg=True)
    return sum(path.is_file() for path in out.rglob("*"))


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or (Path(args[0]).exists() and any(Path(args[0]).iterdir())):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python3 tools/outputs.py OUT (a new or empty directory)", file=sys.stderr)
        return 2
    out = Path(args[0])
    print(f"{write(out)} files under {out}")
    return 0


if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"  # before numpy
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # the checkout's package
    sys.exit(main())
