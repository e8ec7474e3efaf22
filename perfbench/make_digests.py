"""Regenerate ``digests.json``: the expected outputs at the default seed.

    python3 perfbench/make_digests.py

Every digest is computed on the default engines and cross-checked
against the scalar reference engine (``fast=False``) before it is
written; a disagreement aborts without touching the file.  Takes a few
minutes (the scalar sweeps dominate).  Regenerate only when a change is
meant to alter simulated results.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import config  # noqa: E402
import run  # noqa: E402


def _cross_check(label: str, compiled: str, scalar: str) -> str:
    if compiled != scalar:
        raise SystemExit(f"{label}: compiled {compiled} != scalar oracle {scalar}")
    print(f"  {label}: {compiled}", file=sys.stderr)
    return compiled


def grid_digests(specs, runner, digest_of) -> dict:
    from checks import scalar_summary

    digests = {}
    for job in runner.run(specs):
        if not job.ok:
            raise SystemExit(f"{job.spec.label}: {job.message}")
        digests[job.spec.label] = _cross_check(
            job.spec.label, digest_of(job.summary), digest_of(scalar_summary(job.spec)))
    return digests


def traced_digests(seed: int, tmp: str) -> dict:
    from repro import Scheme, make_workload
    from repro.analysis import run_timing
    from repro.obs import Tracer, read_trace
    from repro.runner import RunSummary

    params = config.bench_params(seed)
    path = os.path.join(tmp, "trace.jsonl")

    def workload():
        return make_workload("radix", intensity=config.traced_intensity(False))

    with Tracer(path) as tracer:
        traced = run_timing(params, Scheme.V_COMA, workload(), 8, tracer=tracer)
    scalar = run_timing(params, Scheme.V_COMA, workload(), 8, fast=False)
    summary = _cross_check(
        "summary", config.summary_digest(RunSummary.from_result(traced).to_dict()),
        config.summary_digest(RunSummary.from_result(scalar).to_dict()))
    return {"summary": summary, "records": len(read_trace(path))}


def service_digests(seed: int) -> dict:
    from checks import scalar_summary
    from service_load import COMMITTED_COLD, Plan

    plan = Plan(seed)
    while plan.cold_count < COMMITTED_COLD:
        plan.next()
    digests = {}
    for label, spec in sorted(plan.labels.values(), key=lambda item: item[0]):
        if label.startswith("cold:") and int(label.split(":")[1]) >= COMMITTED_COLD:
            continue
        digests[label] = _cross_check(
            label, config.summary_digest(spec.execute().to_dict()),
            config.summary_digest(scalar_summary(spec).to_dict()))
    return digests


def main() -> int:
    os.makedirs(config.TMP_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="digests-", dir=config.TMP_DIR)
    run.prepare_environment(tmp)
    config.use_source_tree()
    from repro.runner import BatchRunner, TraceStore

    seed = config.DEFAULT_SEED
    try:
        print("timing_grid", file=sys.stderr)
        timing = grid_digests(
            config.timing_grid_specs(seed), BatchRunner(jobs=1, cache=None),
            lambda summary: config.summary_digest(summary.to_dict()))
        print("sweep_grid", file=sys.stderr)
        sweep = grid_digests(
            config.sweep_grid_specs(seed),
            BatchRunner(jobs=1, cache=None,
                        trace_store=TraceStore(os.path.join(tmp, "traces"))),
            config.study_digest)
        print("traced_timing", file=sys.stderr)
        traced = traced_digests(seed, tmp)
        print("service_mix", file=sys.stderr)
        service = service_digests(seed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    payload = {
        "seed": seed,
        "timing_grid": timing,
        "sweep_grid": sweep,
        "traced_timing": traced,
        "service_mix": service,
    }
    with open(config.DIGEST_FILE, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {config.DIGEST_FILE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
