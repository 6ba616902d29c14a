"""The benchmark's own tests: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import ummimo  # noqa: E402
from ummimo import cli, estimate, mux  # noqa: E402
from workloads import WORKLOADS, Ledger, close  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# functions each workload is built to exercise (the prediction table in
# bench/BASELINE.md): their layer metrics must be live there
EXERCISED = {
    "mc-estimation": ["estimate.ls_estimate", "estimate.mmse_estimate",
                      "estimate.rsls_estimate", "estimate.omp_estimate",
                      "estimate.mmse_pilot_design", "channel.sample_rayleigh"],
    "array-scale": ["channel.correlation_matrix", "numerics.hemisphere_grid",
                    "dof.dof_report", "geometry.build_upa", "circuit.impedance_set",
                    "channel.los_channel", "mux.lmmse_combiners"],
    "closed-form": ["numerics.fresnel_cs", "beam.depth_gain",
                    "fields.aperture_gain_subdivided"],
}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_small_run_emits_every_metric(workload, trace):
    result = run_bench(workload, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    if trace:
        metrics = result["metrics"]
        assert all(metrics[f"{fn}.calls"]["value"] > 0 for fn in EXERCISED[workload])
        assert metrics["cli.calls"]["value"] > 0


def test_workload_names_match_spec():
    names = sorted(w["name"] for w in SPEC["workloads"])
    assert sorted(WORKLOADS) == sorted(run.WORKLOAD_NAMES) == names


def test_nan_check_is_a_failure_not_a_crash():
    ledger = Ledger()
    assert not ledger.check("nan", lambda: close(float("nan"), 1.0, 1e-9))
    assert not ledger.check("raises", lambda: 1 / 0)
    assert ledger.check("ok", lambda: close(1.0, 1.0, 0.0))
    assert (ledger.attempted, ledger.failed) == (3, 2)


def test_library_errors_count_as_failed_calls():
    ledger = Ledger()
    assert ledger.call("fresnel", ummimo.fresnel_cs, math.inf) is None
    assert (ledger.attempted, ledger.failed) == (1, 1)


def bindings() -> dict:
    return {(m.__name__, attr): id(value) for m in tracer.ummimo_namespaces()
            for attr, value in vars(m).items()}


def test_tracing_restores_every_binding():
    before = bindings()
    original = estimate.ls_estimate
    combiners = mux.lmmse_combiners  # public, though not in mux.__all__
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer("test") as tr:
            assert estimate.ls_estimate is not original
            assert ummimo.ls_estimate is estimate.ls_estimate
            assert cli.lmmse_combiners is mux.lmmse_combiners is not combiners
            ummimo.fresnel_cs(1.0)
            1 / 0
    assert bindings() == before
    assert estimate.ls_estimate is original
    assert [s["name"] for s in tr.records()] == ["numerics.fresnel_cs"]


def test_self_time_excludes_child_spans():
    spans = [("cli.run", 0, 100, -1, False),
             ("channel.correlation_matrix", 10, 70, 0, False),
             ("numerics.hemisphere_grid", 20, 30, 1, False),
             ("numerics.fresnel_cs", 80, 90, 0, True)]
    summary = tracer.summarize(spans, ("channel.correlation_matrix",))
    layers = summary["layers"]
    assert layers["cli"]["self_ns"] == 100 - 60 - 10
    assert layers["channel"]["self_ns"] == 60 - 10
    assert layers["numerics"]["self_ns"] == 20
    assert layers["numerics"]["failed"] == 1
    assert summary["functions"]["channel.correlation_matrix"]["busy_ns"] == 60
