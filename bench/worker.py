"""One workload run in a fresh interpreter; started by run.py.

    python3 bench/worker.py --workload NAME --seed N --out DIR [--trace] [--small]

Prints one JSON object as its last line: the monotonic time at which set-up
finished, the timed section's wall time, peak RSS, operation counts, CSV
digests, the environment and, with --trace, the per-layer span summary.
With --trace the spans themselves are written to DIR/spans.json.gz.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import inspect
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ummimo  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Ledger  # noqa: E402


def steering_bytes(args: tuple, kwargs: dict) -> dict:
    """Size of the Q x M complex steering matrix correlation_matrix forms,
    computed from its arguments (the default grid is hemisphere_grid())."""
    geom = args[0]
    grid = args[2] if len(args) > 2 else kwargs.get("grid")
    if grid is None:
        params = inspect.signature(ummimo.numerics.hemisphere_grid).parameters
        q = params["n_azimuth"].default * params["n_elevation"].default
    else:
        q = grid.size
    return {"steering_bytes": q * geom.num_elements * 16}


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def digests(out: Path) -> dict:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*.csv"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, args.small)
    setup_done = time.monotonic()

    ledger = Ledger()
    runs = args.out / "runs"
    tr = tracer.Tracer(f"{args.workload}-seed{args.seed}-{args.out.name}",
                       {"channel.correlation_matrix": steering_bytes})
    with tr if args.trace else contextlib.nullcontext():
        t0 = time.perf_counter()
        state = workload.run(inputs, runs, ledger)
        wall = time.perf_counter() - t0
    trials = workload.verify(inputs, state, ledger)

    result = {
        "setup_done": setup_done,
        "wall_s": wall,
        "trials": trials,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "digests": digests(runs),
        "environment": environment(),
    }
    if args.trace:
        with gzip.open(args.out / "spans.json.gz", "wt", encoding="utf-8") as f:
            json.dump(tr.records(), f)
        result["summary"] = tracer.summarize(tr.spans, tuple(tracer.HOT))
        result["steering_bytes"] = max(
            (v["steering_bytes"] for v in tr.probe_values["channel.correlation_matrix"]),
            default=0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
