"""Experiment runners for the paper's evaluation section.

Two kinds of runs:

* **sweep runs** (:func:`run_miss_sweep`) — one simulation per workload
  with a :class:`~repro.system.taps.StudyAgent`, yielding translation
  miss counts for every (tap, size, organization) point at once.  Feeds
  Figures 8 and 9 and Tables 2 and 3.  This is the *reference* path;
  batched sweeps normally run through the record-once/replay-many
  pipeline instead (:mod:`repro.system.taptrace`), which records the
  hierarchy's tap streams once and replays every bank configuration
  from the recording with the compiled bank kernel — bit-identical miss
  counts, a fraction of the wall clock.
* **timing runs** (:func:`run_timing`) — coupled simulations where one
  real TLB/DLB charges its 40-cycle penalty.  Feeds Table 4 and
  Figure 10.  Never replayed: the penalty perturbs the interleaving,
  so each design point is its own simulation.

Figure 11's pressure profile needs no reference simulation at all: the
profile is fixed by the preloaded page placement
(:func:`pressure_profile`).

Grid-shaped experiments (:func:`run_sweep_studies`,
:func:`run_execution_breakdown`) go through
:class:`~repro.runner.batch.BatchRunner`, so callers can shard them
across worker processes, reuse the persistent result cache, (for
sweeps) share recorded traces via the runner's
:class:`~repro.runner.traces.TraceStore`, and inherit the runner's
fault-tolerant supervision — retries, per-job timeouts, keep-going
failure capture, and manifest-based resume (``docs/robustness.md``).
A keep-going runner omits failed workloads from these helpers' return
values; the runner's :class:`~repro.runner.summary.GridStats` records
what was lost.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

from repro.common.params import MachineParams
from repro.core.schemes import SCHEME_ORDER, Scheme, TAP_OF_SCHEME, TapPoint
from repro.core.tlb import Organization
from repro.system.machine import Machine
from repro.system.results import RunResult
from repro.system.simulator import Simulator
from repro.system.taps import DEFAULT_SWEEP_ORGS, DEFAULT_SWEEP_SIZES, StudyAgent, StudyResults
from repro.workloads.base import Workload


def run_miss_sweep(
    params: MachineParams,
    workload: Workload,
    sizes: Iterable[int] = DEFAULT_SWEEP_SIZES,
    orgs: Iterable[Organization] = DEFAULT_SWEEP_ORGS,
    max_refs_per_node: Optional[int] = None,
    tracer=None,
    fast: bool = True,
    stream_key: Optional[str] = None,
) -> RunResult:
    """Simulate once, observing every translation point.

    The machine is configured as V-COMA (virtual caches and attraction
    memory) because the tap streams of every scheme can be read off that
    one hierarchy: L0/L1/L2 sit above the AM and are identical in all
    schemes, L3's stream is the AM miss stream, and HOME is the
    home-node directory-lookup stream.  ``result.study_results()``
    exposes the sweep surface.  An optional
    :class:`~repro.obs.trace.Tracer` records the run's span/event
    stream.

    ``fast=False`` forces the scalar reference engine; the default
    prefers the compiled sweep fast path (capture mode + one
    ``fs_bank_run`` per recorded tap stream) when the run is eligible —
    bit-identical either way, with ``result.backend`` recording which
    engine ran.  ``stream_key`` (a workload identity such as
    ``JobSpec.trace_hash()``) lets grid runs share materialized columns
    through the stream LRU.
    """
    agent = StudyAgent(params, sizes=sizes, orgs=orgs)
    machine = Machine(params, Scheme.V_COMA, workload, agent=agent, tracer=tracer)
    return Simulator(
        machine, max_refs_per_node=max_refs_per_node, fast=fast, stream_key=stream_key
    ).run()


def run_timing(
    params: MachineParams,
    scheme: Scheme,
    workload: Workload,
    entries: int,
    organization: Organization = Organization.FULLY_ASSOCIATIVE,
    include_l2_writebacks: bool = True,
    max_refs_per_node: Optional[int] = None,
    contention: bool = False,
    tracer=None,
    fast: bool = True,
    stream_key: Optional[str] = None,
) -> RunResult:
    """Coupled run: one real translation structure, penalties charged.

    ``contention`` enables the crossbar's input-port serialization —
    needed by experiments whose effect is bandwidth-borne (RAYTRACE's
    padding pathology floods the network with master injections, which
    a latency-only model would hand out for free).  An optional
    :class:`~repro.obs.trace.Tracer` records one span per reference and
    protocol transaction plus TLB/DLB hit/fill events.

    ``fast=False`` forces the scalar reference engine; the default
    prefers the compiled columnar fast path when this run is eligible
    (bit-identical either way — ``result.backend`` records which engine
    ran; see ``docs/performance.md``).
    """
    from repro.system.taps import TimingAgent

    agent = TimingAgent(
        params,
        scheme,
        entries,
        organization=organization,
        include_l2_writebacks=include_l2_writebacks,
    )
    machine = Machine(
        params, scheme, workload, agent=agent, contention=contention, tracer=tracer
    )
    return Simulator(
        machine, max_refs_per_node=max_refs_per_node, fast=fast, stream_key=stream_key
    ).run()


def _default_runner(runner):
    """The caller's runner, or a fresh serial, cache-less one."""
    if runner is not None:
        return runner
    from repro.runner import BatchRunner

    return BatchRunner(jobs=1, cache=None)


def run_sweep_studies(
    params: MachineParams,
    workloads: Iterable[str],
    sizes: Iterable[int] = DEFAULT_SWEEP_SIZES,
    orgs: Iterable[Organization] = DEFAULT_SWEEP_ORGS,
    intensities: Optional[Dict[str, float]] = None,
    max_refs_per_node: Optional[int] = None,
    runner=None,
) -> Dict[str, StudyResults]:
    """One miss sweep per workload, batched through the runner.

    Feeds every sweep-backed artifact (Tables 2/3, Figures 8/9); with a
    parallel, cache-backed runner the whole grid shards across workers
    and warm invocations simulate nothing.  Each sweep records its
    hierarchy once and replays every ``(size, org)`` bank from the
    recording (see :meth:`JobSpec.execute`); a runner with a trace
    store reuses recordings across different bank grids too.
    """
    from repro.runner import JobSpec

    runner = _default_runner(runner)
    intensities = intensities or {}
    names = list(workloads)
    specs = []
    for name in names:
        overrides = {}
        if name in intensities:
            overrides["intensity"] = intensities[name]
        specs.append(
            JobSpec.sweep(
                params,
                name,
                sizes=sizes,
                orgs=orgs,
                max_refs_per_node=max_refs_per_node,
                overrides=overrides,
                label=name,
            )
        )
    jobs = runner.run(specs)
    # A runner in keep_going mode returns JobFailure entries for jobs
    # that exhausted their retries; those workloads are simply absent
    # from the result (runner.stats records them).
    return {
        name: job.summary.study_results()
        for name, job in zip(names, jobs)
        if job.ok
    }


def run_execution_breakdown(
    params: MachineParams,
    workload_factory,
    entries: int = 8,
    max_refs_per_node: Optional[int] = None,
    include_v2: bool = False,
    runner=None,
) -> Dict[str, "RunResult"]:
    """Figure 10's bar set for one benchmark.

    Runs ``TLB/n`` (L0-TLB, the physical COMA baseline), ``TLB/n/DM``,
    ``DLB/n`` (V-COMA) and ``DLB/n/DM``; with ``include_v2`` adds
    ``DLB/n/V2`` using the workload's ``v2`` variant (RAYTRACE's
    page-aligned padding).  ``workload_factory`` is the workload class
    or its registry name.  The bars execute through the (optionally
    parallel, cached) runner and come back as
    :class:`~repro.runner.summary.RunSummary` objects, which expose the
    same breakdown surface as :class:`RunResult`.
    """
    from repro.runner import JobSpec

    runner = _default_runner(runner)
    name = workload_factory if isinstance(workload_factory, str) else workload_factory.name
    combos = [
        (f"TLB/{entries}", Scheme.L0_TLB, Organization.FULLY_ASSOCIATIVE, None),
        (f"TLB/{entries}/DM", Scheme.L0_TLB, Organization.DIRECT_MAPPED, None),
        (f"DLB/{entries}", Scheme.V_COMA, Organization.FULLY_ASSOCIATIVE, None),
        (f"DLB/{entries}/DM", Scheme.V_COMA, Organization.DIRECT_MAPPED, None),
    ]
    if include_v2:
        combos.append((f"DLB/{entries}/V2", Scheme.V_COMA, Organization.FULLY_ASSOCIATIVE, "v2"))
    specs = [
        JobSpec.timing(
            params,
            scheme,
            name,
            entries,
            organization=org,
            max_refs_per_node=max_refs_per_node,
            variant=variant,
            label=label,
        )
        for label, scheme, org, variant in combos
    ]
    # keep_going runners may return JobFailure bars; drop them (the
    # runner's stats record the loss) rather than plotting a hole.
    return {job.spec.label: job.summary for job in runner.run(specs) if job.ok}


def pressure_profile(
    params: MachineParams,
    workload: Workload,
    scheme: Scheme = Scheme.V_COMA,
) -> List[float]:
    """Figure 11: global-page-set pressure after preload (no references
    are simulated — placement alone determines the profile)."""
    machine = Machine(params, scheme, workload)
    return machine.pressure.profile()


# ----------------------------------------------------------------------
# Table 3: equivalent TLB size
# ----------------------------------------------------------------------
def equivalent_tlb_size(
    study: StudyResults,
    tap: TapPoint,
    target_misses: float,
    org: Organization = Organization.FULLY_ASSOCIATIVE,
) -> float:
    """The TLB size whose miss count matches ``target_misses``.

    Interpolates log-linearly (misses vs log size) along the sweep
    curve, as the paper's Table 3 does implicitly.  Returns
    ``math.inf`` when even the largest simulated TLB misses more than
    the target, and the smallest size when it already beats the target.
    """
    curve = study.curve(tap, org)
    if not curve:
        raise ValueError("empty sweep curve")
    smallest_size, smallest_misses = curve[0]
    if smallest_misses <= target_misses:
        return float(smallest_size)
    previous = curve[0]
    for size, misses in curve[1:]:
        if misses <= target_misses:
            prev_size, prev_misses = previous
            if prev_misses == misses:
                return float(size)
            # Linear in (log2 size, misses).
            span = prev_misses - misses
            frac = (prev_misses - target_misses) / span
            log_size = math.log2(prev_size) + frac * (math.log2(size) - math.log2(prev_size))
            return 2.0 ** log_size
        previous = (size, misses)
    return math.inf


def scheme_misses(
    study: StudyResults,
    scheme: Scheme,
    size: int,
    org: Organization = Organization.FULLY_ASSOCIATIVE,
) -> int:
    """Misses for one of the five schemes at one design point."""
    return study.misses(TAP_OF_SCHEME[scheme], size, org)


def scheme_miss_rates(
    study: StudyResults,
    size: int,
    org: Organization = Organization.FULLY_ASSOCIATIVE,
) -> Dict[Scheme, float]:
    """Table 2's row: miss rate per processor reference, per scheme."""
    return {
        scheme: study.miss_rate(TAP_OF_SCHEME[scheme], size, org)
        for scheme in SCHEME_ORDER
    }
