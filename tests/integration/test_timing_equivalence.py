"""The compiled timing fast path must be bit-identical to the scalar oracle.

The tentpole contract of the columnar engine (``repro.core.timing_kernels``
+ ``repro.system.fast_simulator``): after a fast run, *everything* — the
RunSummary surface (total time, per-node breakdowns, counters, TLB/DLB
statistics, latency histograms) and the machine object itself (cache/AM
images in LRU order, directory entries, TLB contents, Mersenne Twister
states, the translation accumulator) — matches a run driven by the
scalar engine, which is retained purely as the differential-testing
oracle.  Sync-heavy workloads are the hard part (barriers, lock
contention, truncation mid-critical-section hand control back to Python
sync policy), so RAYTRACE's lock-heavy streams and hand-built
barrier-imbalanced streams are first-class cases here.

The scalar fallback with the compiled backend disabled
(``REPRO_NO_COMPILED``) must produce the same numbers again.
"""

import pytest

from repro import CustomWorkload, MachineParams, Scheme, SegmentSpec, Simulator, make_workload
from repro.analysis import run_timing
from repro.core.schemes import SCHEME_ORDER
from repro.core.timing_kernels import NO_COMPILED_ENV, get_backend
from repro.core.tlb import Organization
from repro.runner.summary import RunSummary
from repro.system.machine import Machine
from repro.system.refs import BARRIER, LOCK, READ, UNLOCK, WRITE
from repro.system.taps import TimingAgent

pytestmark = pytest.mark.skipif(
    get_backend() is None, reason="compiled timing backend unavailable"
)


@pytest.fixture(scope="module")
def params():
    return MachineParams.scaled_down(factor=64, nodes=4, page_size=256)


def summary_surface(result) -> dict:
    """Everything RunSummary serializes, minus the engine tags."""
    payload = RunSummary.from_result(result).to_dict()
    payload.pop("backend", None)
    payload.pop("fallback_reason", None)
    return payload


def sets_image(structure):
    """Tag/state sets as ordered item lists — dict equality ignores
    insertion order, but here order IS the LRU position."""
    return [list(s.items()) for s in structure._sets]


def machine_state(machine) -> dict:
    """The post-run machine image, deep enough to catch any state the
    fast engine failed to copy back (LRU order included)."""
    machine.materialize_image()
    engine = machine.engine
    state = {
        "counters": dict(machine.merged_counters().to_dict()),
        "engine_rng": engine._rng.getstate(),
        "translation_accum": engine._translation_accum,
        "active_demand_block": engine.active_demand_block,
        "nodes": [],
        "directories": [],
    }
    for node in machine.nodes:
        state["nodes"].append(
            {
                "flc": (sets_image(node.flc), node.flc.hits, node.flc.misses),
                "slc": (sets_image(node.slc), node.slc.hits, node.slc.misses),
                "read_hist": (
                    dict(node.read_latency._buckets),
                    node.read_latency.count,
                    node.read_latency.total,
                ),
                "write_hist": (
                    dict(node.write_latency._buckets),
                    node.write_latency.count,
                    node.write_latency.total,
                ),
            }
        )
    for n, am in enumerate(engine.ams):
        state["nodes"][n]["am"] = (sets_image(am), am.hits, am.misses)
    for directory in engine.directories:
        state["directories"].append(
            {
                "lookups": directory.lookups,
                "entries": {
                    block: (entry.owner, frozenset(entry.sharers))
                    for block, entry in directory._entries.items()
                },
            }
        )
    agent = machine.agent
    if isinstance(agent, TimingAgent):
        state["tlbs"] = [
            {
                "tags": [list(ways) for ways in agent.buffer(n)._tags],
                "accesses": agent.buffer(n).accesses,
                "misses": agent.buffer(n).misses,
                "rng": agent.buffer(n)._rng.getstate(),
            }
            for n in range(machine.params.nodes)
        ]
    return state


def paired_run(params, scheme, **kwargs):
    """One fast and one scalar run of the same spec; asserts the
    engines actually differed and returns both results."""
    make = kwargs.pop("workload_factory")
    fast = run_timing(params, scheme, make(), **kwargs)
    scalar = run_timing(params, scheme, make(), fast=False, **kwargs)
    assert fast.backend == "compiled" and fast.fallback_reason is None
    assert scalar.backend == "scalar" and scalar.fallback_reason == "fast=False"
    return fast, scalar


@pytest.mark.parametrize("scheme", SCHEME_ORDER, ids=[s.value for s in SCHEME_ORDER])
class TestAllSchemes:
    def test_raytrace_locks_bit_identical(self, params, scheme):
        """RAYTRACE's task-queue locks: the sync path Python still owns."""
        fast, scalar = paired_run(
            params,
            scheme,
            workload_factory=lambda: make_workload("raytrace", intensity=0.5),
            entries=8,
        )
        assert summary_surface(fast) == summary_surface(scalar)
        assert machine_state(fast.machine) == machine_state(scalar.machine)

    def test_direct_mapped_with_truncation(self, params, scheme):
        """DM structures plus max_refs truncation (epoch edge cases)."""
        fast, scalar = paired_run(
            params,
            scheme,
            workload_factory=lambda: make_workload("radix", intensity=0.3),
            entries=8,
            organization=Organization.DIRECT_MAPPED,
            max_refs_per_node=300,
        )
        assert summary_surface(fast) == summary_surface(scalar)
        assert machine_state(fast.machine) == machine_state(scalar.machine)


def literal_machine(params, streams, pages=32):
    def factory(node, ctx):
        base = ctx.segment("data").base
        for op, value in streams[node]:
            if op in (READ, WRITE, LOCK, UNLOCK):
                yield op, base + value
            else:
                yield op, value

    workload = CustomWorkload(
        [SegmentSpec("data", pages * params.page_size)], factory, name="literal"
    )
    return Machine(params, Scheme.V_COMA, workload)


class TestSyncHeavy:
    def test_barrier_imbalanced_streams(self, params):
        """One node races ahead; two idle at barriers; one finishes
        early (a finished node must satisfy every later barrier)."""
        streams = [
            [(WRITE, i * 32) for i in range(200)] + [(BARRIER, 0)]
            + [(READ, i * 64) for i in range(100)] + [(BARRIER, 1)],
            [(READ, 0), (BARRIER, 0), (READ, 256), (BARRIER, 1)],
            [(BARRIER, 0), (BARRIER, 1)],
            [(WRITE, 512)],  # never reaches either barrier
        ]
        fast = Simulator(literal_machine(params, streams)).run()
        scalar = Simulator(literal_machine(params, streams), fast=False).run()
        assert fast.backend == "compiled"
        assert summary_surface(fast) == summary_surface(scalar)
        assert machine_state(fast.machine) == machine_state(scalar.machine)

    def test_lock_convoy(self, params):
        """All nodes contend for one lock word; FIFO handoff order and
        sync charging must coincide across engines."""
        streams = [
            [(LOCK, 0), (WRITE, 64), (WRITE, 128), (UNLOCK, 0)] * 5
            for _ in range(4)
        ]
        fast = Simulator(literal_machine(params, streams)).run()
        scalar = Simulator(literal_machine(params, streams), fast=False).run()
        assert summary_surface(fast) == summary_surface(scalar)

    def test_truncation_inside_critical_section(self, params):
        """max_refs cuts node 0 off while it holds the lock; the finish
        path must hand the lock to the queued waiter identically."""
        streams = [
            [(LOCK, 0)] + [(WRITE, i * 64) for i in range(50)] + [(UNLOCK, 0)],
            [(LOCK, 0), (WRITE, 64), (UNLOCK, 0)],
            [],
            [],
        ]
        fast = Simulator(literal_machine(params, streams), max_refs_per_node=10).run()
        scalar = Simulator(
            literal_machine(params, streams), max_refs_per_node=10, fast=False
        ).run()
        assert fast.refs_per_node[0] == 10
        assert summary_surface(fast) == summary_surface(scalar)
        assert machine_state(fast.machine) == machine_state(scalar.machine)


class TestBackendMatrix:
    @pytest.fixture(scope="class")
    def scalar_reference(self, params):
        return run_timing(
            params, Scheme.V_COMA,
            make_workload("raytrace", intensity=0.5), 8, fast=False,
        )

    def test_compiled_matches_scalar(self, params, scalar_reference):
        """The default engine: array.array columns fed to C."""
        fast = run_timing(
            params, Scheme.V_COMA,
            make_workload("raytrace", intensity=0.5), 8,
        )
        assert fast.backend == "compiled"
        assert summary_surface(fast) == summary_surface(scalar_reference)

    def test_no_compiled_falls_back_scalar(self, params, scalar_reference, monkeypatch):
        """REPRO_NO_COMPILED (the CLI's --no-compiled) forces the
        oracle; results don't change."""
        monkeypatch.setenv(NO_COMPILED_ENV, "1")
        result = run_timing(
            params, Scheme.V_COMA,
            make_workload("raytrace", intensity=0.5), 8,
        )
        assert result.backend == "scalar"
        assert result.fallback_reason == f"disabled ({NO_COMPILED_ENV})"
        assert summary_surface(result) == summary_surface(scalar_reference)


class TestBackendReporting:
    def test_summary_carries_backend(self, params):
        result = run_timing(
            params, Scheme.V_COMA, make_workload("radix", intensity=0.2), 8,
        )
        summary = RunSummary.from_result(result)
        assert summary.backend == "compiled"
        assert RunSummary.from_dict(summary.to_dict()).backend == "compiled"

    def test_tracer_forces_scalar(self, params, tmp_path):
        from repro.obs import Tracer

        with Tracer(str(tmp_path / "t.jsonl")) as tracer:
            result = run_timing(
                params, Scheme.V_COMA,
                make_workload("radix", intensity=0.2), 8, tracer=tracer,
            )
        assert result.backend == "scalar"
        assert result.fallback_reason == "tracing attached"
