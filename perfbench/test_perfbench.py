"""The benchmark's own test.

    python3 -m pytest perfbench -q

Runs every workload at smoke size in both modes, checks the names and
units ``BENCHMARK.json`` declares against what the benchmark prints,
checks that every per-layer metric appears in a layer-span run (and is
non-zero where the smoke size exercises its layer), and checks that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import config  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Per-layer metrics that must read non-zero in a smoke layer-span run.
#: (Hit ratios, duplicate captures and coalescing need the full size.)
LIVE_AT_SMOKE = {
    "timing_grid": (
        "workloads.drain_s", "workloads.drained_refs", "stream_cache.hit_ratio",
        "machine.build_s", "machine.preload_s", "machine.builds",
        "fast_simulator.c_s", "fast_simulator.export_s", "fast_simulator.glue_s",
        "fast_simulator.c_share", "fast_simulator.compiled_runs",
        "batch.job_s", "batch.utilization", "span.overhead",
    ),
    "sweep_grid": (
        "taptrace.capture_s", "taptrace.captures", "taptrace.capture_useful_ratio",
        "replay.s", "replay.bank_runs", "replay.c_share",
        "trace_store.get_s", "trace_store.put_s", "batch.job_s",
        "batch.dispatch_s", "batch.utilization", "other_s", "span.overhead",
    ),
    "service_mix": (
        "result_cache.get_s", "result_cache.put_s", "service.post_ms",
        "service.results_ms", "service.warm_ratio", "service.simulations",
        "batch.job_s", "fast_simulator.compiled_runs", "other_s", "span.overhead",
    ),
    "traced_timing": (
        "trace.run_s", "trace.bytes", "trace.records", "profile.read_s",
        "profile.attribute_s", "machine.builds", "fast_simulator.fallbacks",
        "span.overhead",
    ),
}


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--smoke",
         "--seconds", "1", "--trace", str(trace), "--seed", "7"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(done) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_declared_names_and_units_match_the_benchmark():
    declared = _declared()
    names = [item["name"] for key in ("workloads", "end_to_end", "per_layer")
             for item in declared[key]]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    assert [w["name"] for w in declared["workloads"]] == list(config.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert all(UNIT.match(unit) for unit in list(run.END_TO_END.values())
               + list(run.PER_LAYER.values()))
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("workload", config.WORKLOADS)
def test_smoke_end_to_end(workload):
    metrics = _result(_run(workload, 0))["metrics"]
    assert list(metrics) == list(run.END_TO_END)
    for name, metric in metrics.items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", config.WORKLOADS)
def test_smoke_layer_span_run_reports_every_layer_metric(workload):
    metrics = _result(_run(workload, 1))["metrics"]
    assert list(metrics) == list(run.PER_LAYER)
    dead = [name for name in LIVE_AT_SMOKE[workload] if not metrics[name]["value"] > 0]
    assert not dead, dead


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("timing_grid", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
