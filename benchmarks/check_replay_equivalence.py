"""CI gate: record-then-replay must match the coupled scalar path.

Run as a script::

    PYTHONPATH=src python benchmarks/check_replay_equivalence.py

Executes a tiny sweep grid twice — once through the record/replay
pipeline (with an on-disk trace store, so the write → read → replay
path is exercised too) and once through the coupled scalar reference —
and diffs every miss count, miss rate, and hierarchy counter.  Exits
non-zero listing each divergent design point on mismatch.  The check
honours ``REPRO_NO_COMPILED``, so CI runs it on both engines.
"""

from __future__ import annotations

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import MachineParams
from repro.core.schemes import SCHEME_ORDER, TAP_OF_SCHEME
from repro.core.timing_kernels import get_backend
from repro.core.tlb import Organization
from repro.runner import BatchRunner, JobSpec, TraceStore

PARAMS = MachineParams.scaled_down(factor=256, nodes=2, page_size=256)
WORKLOADS = ("radix", "fft")
SIZES = (8, 32, 128)
ORGS = (
    Organization.FULLY_ASSOCIATIVE,
    Organization.SET_ASSOCIATIVE,
    Organization.DIRECT_MAPPED,
)
MAX_REFS = 500


def specs() -> list:
    return [
        JobSpec.sweep(
            PARAMS, name, sizes=SIZES, orgs=ORGS,
            max_refs_per_node=MAX_REFS,
            overrides={"intensity": 0.2}, label=name,
        )
        for name in WORKLOADS
    ]


def comparable(summary) -> dict:
    """The run's full serialized surface minus the engine tags, which
    differ by design (replayed summaries say ``<capture>+replay``)."""
    payload = summary.to_dict()
    payload.pop("backend", None)
    payload.pop("fallback_reason", None)
    return payload


def main() -> int:
    engine = "scalar" if get_backend() is None else "compiled"
    print(f"replay equivalence check ({engine} bank replay)", flush=True)

    with tempfile.TemporaryDirectory(prefix="repro-equiv-traces-") as tmp:
        store = TraceStore(root=tmp)
        replayed = BatchRunner(jobs=1, trace_store=store, replay=True).run(specs())
        # Re-run against the store so the on-disk round trip is on the path.
        reloaded = BatchRunner(jobs=1, trace_store=store, replay=True).run(specs())
        scalar = BatchRunner(jobs=1, replay=False).run(specs())

    failures = []
    for fast, disk, slow in zip(replayed, reloaded, scalar):
        name = fast.spec.label
        fast_study = fast.summary.study_results()
        slow_study = slow.summary.study_results()
        for scheme in SCHEME_ORDER:
            tap = TAP_OF_SCHEME[scheme]
            for size in SIZES:
                for org in ORGS:
                    want = slow_study.misses(tap, size, org)
                    got = fast_study.misses(tap, size, org)
                    if got != want:
                        failures.append(
                            f"{name}: {scheme.value} {size}{org.suffix or '/FA'} "
                            f"replay={got} scalar={want}"
                        )
        if comparable(fast.summary) != comparable(slow.summary):
            failures.append(f"{name}: hierarchy summary diverged")
        if disk.summary.to_dict() != fast.summary.to_dict():
            failures.append(f"{name}: on-disk trace replay diverged from in-memory")

    checked = len(WORKLOADS) * len(SCHEME_ORDER) * len(SIZES) * len(ORGS)
    if failures:
        print(f"FAIL: {len(failures)} mismatches out of {checked} design points:")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"OK: {checked} design points bit-identical (plus summaries and disk round-trip)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
