"""ummimo benchmark: times the experiments users run and the layers under them.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--small]

Run from anywhere inside a checkout of the repository.  Each workload run is
a fresh interpreter (bench/worker.py), because a user pays the import and
the library's lazy caches once per ``umm`` invocation.  Runs follow one
another until --seconds is used up, with at least three (with --trace 1, two
untraced/traced pairs), and every metric is the median over them.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
from traced runs alternating with untraced ones.  Output checks run in every
run and are counted in ``attempted``/``failed``.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the full record, environment included, goes to
.bench_out/<workload>-seed<N>-trace<T>/result.json.  --small shrinks every
workload, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import HOT, LAYERS  # noqa: E402

WORKLOAD_NAMES = ("mc-estimation", "array-scale", "closed-form")
MIN_UNTRACED_RUNS = 3
MIN_TRACED_PAIRS = 2
DEADLINE_S = 170  # a whole invocation ends within this, even if a run hangs
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))

END_TO_END = {"wall_s": "s", "trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}


def per_layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s",
                      f"{layer}.failed": "count"})
    for fn, tail in HOT.items():
        units.update({f"{fn}.calls": "count", f"{fn}.busy_s": "s", f"{fn}.p50_ms": "ms"})
        if tail is not None:
            units[f"{fn}.p{tail}_ms"] = "ms"
    units["channel.correlation_matrix.steering_bytes"] = "bytes-computed"
    units["trace.overhead_frac"] = "ratio"
    return units


class RunFailed(RuntimeError):
    pass


def run_worker(args, traced: bool, out: Path, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out)]
    cmd += ["--trace"] * traced + ["--small"] * args.small
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"workload run stopped at the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise RunFailed(f"workload run exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("setup_done") - spawned
    result["traced"] = traced
    result["duration_s"] = time.monotonic() - spawned
    return result


def percentile(values: list, q: float) -> float:
    """q-th percentile by linear interpolation between order statistics."""
    if not values:
        return 0.0
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def end_to_end_metrics(runs: list) -> dict:
    med = statistics.median
    values = {
        "wall_s": med(r["wall_s"] for r in runs),
        "trials_per_s": med(r["trials"] / r["wall_s"] for r in runs),
        "setup_s": med(r["setup_s"] for r in runs),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in runs),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer_metrics(untraced: list, traced: list) -> dict:
    med = statistics.median
    values = {}
    for layer in LAYERS:
        stats = [r["summary"]["layers"][layer] for r in traced]
        values[f"{layer}.calls"] = med(s["calls"] for s in stats)
        values[f"{layer}.self_s"] = med(s["self_ns"] for s in stats) / 1e9
        values[f"{layer}.failed"] = max(s["failed"] for s in stats)
    for fn, tail in HOT.items():
        stats = [r["summary"]["functions"][fn] for r in traced]
        pooled_ms = [d / 1e6 for s in stats for d in s["durations_ns"]]
        values[f"{fn}.calls"] = med(s["calls"] for s in stats)
        values[f"{fn}.busy_s"] = med(s["busy_ns"] for s in stats) / 1e9
        values[f"{fn}.p50_ms"] = percentile(pooled_ms, 50)
        if tail is not None:
            values[f"{fn}.p{tail}_ms"] = percentile(pooled_ms, tail)
    values["channel.correlation_matrix.steering_bytes"] = max(r["steering_bytes"] for r in traced)
    values["trace.overhead_frac"] = (med(r["wall_s"] for r in traced)
                                     / med(r["wall_s"] for r in untraced) - 1.0)
    units = per_layer_units()
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def tail_notes(traced: list) -> list[str]:
    """Declared tails with fewer than ten pooled calls beyond them."""
    notes = []
    for fn, tail in HOT.items():
        n = sum(r["summary"]["functions"][fn]["calls"] for r in traced)
        if tail is not None and 0 < n and n * (100 - tail) / 100 < 10:
            notes.append(f"{fn}.p{tail}_ms rests on {n} calls, fewer than ten beyond it")
    return notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the run
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    src = ROOT / "src"
    if not (src / "ummimo" / "__init__.py").is_file():
        print(f"bench: no ummimo package under {src}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(src), quiet=1)
    threads = str(BLAS_THREADS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    # one unit is a single untraced run, or an untraced/traced pair whose
    # order alternates, so neither side always runs first
    min_units = MIN_TRACED_PAIRS if args.trace else MIN_UNTRACED_RUNS
    runs: list[dict] = []
    unit_s: list[float] = []
    start = time.monotonic()
    deadline = start + DEADLINE_S
    try:
        while True:
            t0 = time.monotonic()
            if not args.trace:
                unit = (False,)
            else:
                unit = (False, True) if len(unit_s) % 2 == 0 else (True, False)
            for traced in unit:
                runs.append(run_worker(args, traced, out / f"run-{len(runs)}", env, deadline))
            unit_s.append(time.monotonic() - t0)
            elapsed = time.monotonic() - start
            if len(unit_s) >= min_units and elapsed + statistics.median(unit_s) > args.seconds:
                break
    except RunFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    untraced = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    # same code and seed, traced or not: every run writes the same CSVs
    attempted += 1
    if not runs[0]["digests"] or any(r["digests"] != runs[0]["digests"] for r in runs):
        failed += 1
        failures.append("CSV digests differ between runs of one seed")
    else:
        # the CSVs of every run are byte-identical; keep the first run's
        for i in range(1, len(runs)):
            shutil.rmtree(out / f"run-{i}" / "runs")

    metrics = (per_layer_metrics(untraced, traced) if args.trace
               else end_to_end_metrics(untraced))
    env_block = {**runs[0]["environment"], "seed": args.seed}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env_block,
              "csv_digest": hashlib.sha256(json.dumps(runs[0]["digests"], sort_keys=True)
                                           .encode()).hexdigest(),
              "digests": runs[0]["digests"], "failures": failures,
              "notes": tail_notes(traced),
              "runs": [{k: v for k, v in r.items() if k != "summary"} for r in runs],
              "metrics": metrics}
    (out / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print("environment: " + ", ".join(f"{k}={v}" for k, v in env_block.items()))
    walls = ", ".join(f"{r['wall_s']:.3f}" for r in runs)
    print(f"runs: {len(untraced)} untraced, {len(traced)} traced; wall_s per run: {walls}")
    for note in record["notes"] + failures:
        print(f"  {note}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':48s} {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    print(f"csv digest: {record['csv_digest']} over {len(record['digests'])} files")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
