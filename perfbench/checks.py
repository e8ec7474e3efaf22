"""Output checks: attempted/failed tallies, engine provenance, digests
and the scalar oracle."""

from __future__ import annotations

import sys
from collections import Counter

import config


class Tally:
    """Operations attempted and failed, with the reason for each failure.

    A failure is a failed job, a non-2xx response or timeout, an output
    that differs from its digest or oracle, or an engine other than the
    one the workload must run on.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.backends = Counter()
        self.fallbacks = Counter()

    def attempt(self, ok: bool, problem: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.fail(problem)
        return ok

    def fail(self, problem: str) -> None:
        self.failed += 1
        if self.failed <= 20:
            print(f"perfbench: FAILED {problem}", file=sys.stderr)

    def provenance(self, summary) -> None:
        self.backends[summary.get("backend") if isinstance(summary, dict)
                      else summary.backend] += 1
        reason = (summary.get("fallback_reason") if isinstance(summary, dict)
                  else summary.fallback_reason)
        if reason:
            self.fallbacks[reason] += 1


class DigestBook:
    """Per-label digests: each must repeat on every repetition and, at
    the committed seed and size, equal the committed digest."""

    def __init__(self, workload: str, seed: int, smoke: bool) -> None:
        self.seen = {}
        self.expected = {}
        if seed == config.DEFAULT_SEED and not smoke:
            self.expected = config.load_digests().get(workload, {})

    def check(self, tally: Tally, label: str, value) -> bool:
        first = self.seen.setdefault(label, value)
        if value != first:
            tally.fail(f"{label}: output {value} differs from an earlier repetition's {first}")
            return False
        want = self.expected.get(label)
        if want is not None and value != want:
            tally.fail(f"{label}: output {value} differs from committed digest {want}")
            return False
        return True


def scalar_summary(spec):
    """Run ``spec`` on the scalar reference engine (``fast=False``)."""
    from repro import Scheme
    from repro.analysis.experiments import run_miss_sweep, run_timing
    from repro.core.tlb import Organization
    from repro.runner import RunSummary

    if spec.kind == "sweep":
        result = run_miss_sweep(
            spec.params, spec.build_workload(), sizes=spec.sizes,
            orgs=tuple(Organization(org) for org in spec.orgs),
            max_refs_per_node=spec.max_refs_per_node, fast=False,
        )
    else:
        result = run_timing(
            spec.params, Scheme(spec.scheme), spec.build_workload(), spec.entries,
            organization=Organization(spec.organization),
            include_l2_writebacks=spec.include_l2_writebacks,
            max_refs_per_node=spec.max_refs_per_node,
            contention=spec.contention, fast=False,
        )
    return RunSummary.from_result(result)
