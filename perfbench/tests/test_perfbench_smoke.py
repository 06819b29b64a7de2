"""Smoke test of the benchmark itself.

A tiny subset of each workload runs one pass, passes the correctness gate and
reports every metric that ``BENCHMARK.json`` lists.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import run, tracing, workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COMMAND_METRICS = ("resolve_s", "classify_s", "replay_s", "glue_samples_per_s", "fail_share")
# printed by a --trace 0 run next to the scaled end-to-end times
TIMING_LINES = ("unscaled.setup_s", "unscaled.wall_s", "unscaled.max_op_s", "reference_s", "workers")


def _run(workload: str, trace: int) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                       "--trace", str(trace), "--smoke"])
    assert rc == 0
    lines = out.getvalue().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_gate_and_reports_every_metric(workload, trace):
    result, table = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        for name in COMMAND_METRICS + TIMING_LINES:
            assert name in table


def test_smoke_trace_separates_layers():
    glue, _ = _run("glue", 1)
    calls = {k: v["value"] for k, v in glue["metrics"].items() if k.endswith(".calls")}
    assert glue["metrics"]["weighted_filtration.glue_check.calls"]["value"] > 0
    assert all(v == 0 for k, v in calls.items() if k.startswith("cones_fans."))
    rank3, _ = _run("resolve-rank3", 1)
    metrics = {k: v["value"] for k, v in rank3["metrics"].items()}
    assert metrics["cones_fans.validate_fan.pairs"] == 0
    assert metrics["resolution_engine.steps"] > 0
    assert metrics["cones_fans.contains.calls"] > 0


def test_benchmark_file_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in BENCH["end_to_end"]} == set(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == tracing.PER_LAYER
