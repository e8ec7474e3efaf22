"""The machine image lives in C until something reads it.

A compiled run places the preloaded blocks in C (``fs_preload``) and
leaves the cache/AM/directory/TLB contents as raw arrays; the Python
objects are built only by :meth:`Machine.materialize_image` or on the
first read of a :class:`~repro.system.machine.PendingImage`.  These
tests pin the contract from every side: direct reads see the oracle's
image, the C preload spills exactly like the Python one, capacity is
checked at construction, nothing is decoded that nobody reads, and the
degradation ladder still re-runs a pristine machine.
"""

import random
import warnings

import pytest

from repro import MachineParams, Scheme, Simulator, make_workload
from repro.analysis import run_miss_sweep, run_timing
from repro.coma.protocol import ProtocolEngine
from repro.common.errors import CapacityError, ReproError
from repro.core.ladder import FAULT_ENV
from repro.core.timing_kernels import get_backend
from repro.fuzz.oracle import literal_machine, machine_state, summary_surface
from repro.system import fast_simulator
from repro.system.machine import PendingImage
from repro.system.refs import BARRIER, READ, WRITE
from repro.system.taps import TimingAgent

pytestmark = pytest.mark.skipif(
    get_backend() is None, reason="compiled timing backend unavailable"
)

SCHEMES = (Scheme.V_COMA, Scheme.L0_TLB)


@pytest.fixture(scope="module")
def params():
    return MachineParams.scaled_down(factor=64, nodes=4, page_size=256)


def direct_image(machine) -> dict:
    """Every image-bearing container, read straight off the objects
    (no materialize call): AM/cache sets in LRU order, directory
    entries, TLB and bank-buffer tags, positions and RNG states."""
    engine = machine.engine
    image = {
        "sets": [
            [list(s.items()) for s in cache._sets]
            for node in machine.nodes
            for cache in (node.flc, node.slc)
        ]
        + [[list(s.items()) for s in am._sets] for am in engine.ams],
        "directories": [
            [(block, entry.owner, sorted(entry.sharers))
             for block, entry in directory._entries.items()]
            for directory in engine.directories
        ],
    }
    agent = machine.agent
    if isinstance(agent, TimingAgent):
        buffers = [agent.buffer(n) for n in range(machine.params.nodes)]
    else:
        buffers = [buf for bank in agent._banks.values() for buf in bank._buffer_list]
    image["buffers"] = [
        ([list(ways) for ways in buf._tags], dict(buf._where), buf._rng.getstate())
        for buf in buffers
    ]
    return image


def spill_streams(params, pages: int, refs: int = 300, seed: int = 7):
    """Random reads/writes over a ``pages``-page data segment, one
    barrier in the middle."""
    rng = random.Random(seed)
    size = pages * params.page_size
    streams = []
    for _ in range(params.nodes):
        ops = [(rng.choice((READ, WRITE)), rng.randrange(size) & ~7) for _ in range(refs)]
        ops.insert(refs // 2, (BARRIER, 1))
        streams.append(ops)
    return streams


def spill_pages(params, per_color: int) -> int:
    """A segment size giving every page color ``per_color`` pages."""
    return per_color * params.global_page_sets


class TestNoStaleRead:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=[s.value for s in SCHEMES])
    def test_timing_run_reads_match_oracle(self, params, scheme):
        fast = run_timing(params, scheme, make_workload("radix", intensity=0.3), 8,
                          max_refs_per_node=600)
        scalar = run_timing(params, scheme, make_workload("radix", intensity=0.3), 8,
                            max_refs_per_node=600, fast=False)
        assert fast.backend == "compiled"
        machine = fast.machine
        assert type(machine.nodes[0].flc._sets) is PendingImage
        assert type(machine.engine.directories[0]._entries) is PendingImage
        assert type(machine.agent.buffer(0)._where) is PendingImage
        assert direct_image(machine) == direct_image(scalar.machine)
        assert summary_surface(fast) == summary_surface(scalar)

    def test_sweep_run_reads_match_oracle(self, params):
        def sweep(fast):
            return run_miss_sweep(params, make_workload("fft", intensity=0.3),
                                  sizes=(8, 64), max_refs_per_node=400, fast=fast)

        fast, scalar = sweep(True), sweep(False)
        assert fast.backend == "compiled"
        bank = next(iter(fast.machine.agent._banks.values()))
        assert type(bank._buffer_list[0]._rng) is PendingImage
        assert direct_image(fast.machine) == direct_image(scalar.machine)
        assert fast.study_results().to_dict() == scalar.study_results().to_dict()

    def test_failed_build_raises_instead_of_reading_stale(self, params):
        machine = literal_machine(params, Scheme.V_COMA, [[]] * params.nodes)
        am = machine.engine.ams[0]
        machine.defer_image(lambda: None, [(am, "_sets")])
        with pytest.raises(ReproError, match="machine image unavailable"):
            am.occupancy()


class TestPreloadSpill:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=[s.value for s in SCHEMES])
    def test_c_preload_places_blocks_like_python(self, params, scheme):
        """Six pages per color against 4-way AM sets: every home set
        overflows into its neighbours, in both engines' preloads."""
        pages = spill_pages(params, params.am_assoc + 2)
        streams = [[] for _ in range(params.nodes)]
        fast = Simulator(literal_machine(params, scheme, streams, pages=pages))
        fast.run()
        assert fast.backend == "compiled"
        python = literal_machine(params, scheme, streams, pages=pages)
        python.materialize_image()
        assert machine_state(fast.machine) == machine_state(python)
        spilled = [
            (block, entry.owner)
            for directory in python.engine.directories
            for block, entry in directory._entries.items()
            if entry.owner != directory.node
        ]
        assert spilled, "no block left its home: the case does not spill"

    @pytest.mark.parametrize("scheme", SCHEMES, ids=[s.value for s in SCHEMES])
    def test_spilled_run_is_bit_identical(self, params, scheme):
        pages = spill_pages(params, params.am_assoc + 2)
        streams = spill_streams(params, pages)
        fast = Simulator(literal_machine(params, scheme, streams, pages=pages))
        scalar = Simulator(literal_machine(params, scheme, streams, pages=pages), fast=False)
        fast_result, scalar_result = fast.run(), scalar.run()
        assert fast.backend == "compiled"
        assert summary_surface(fast_result) == summary_surface(scalar_result)
        assert machine_state(fast.machine) == machine_state(scalar.machine)


class TestCapacity:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=[s.value for s in SCHEMES])
    def test_overflow_raises_at_construction(self, params, scheme):
        """One page past a full color is refused by ``Machine(...)``,
        before either engine's block preload runs."""
        full = spill_pages(params, params.page_slots_per_global_set)
        streams = [[] for _ in range(params.nodes)]
        assert literal_machine(params, scheme, streams, pages=full).preload_pending
        with pytest.raises(CapacityError):
            literal_machine(params, scheme, streams, pages=full + 1)

    @pytest.mark.parametrize("scheme", SCHEMES, ids=[s.value for s in SCHEMES])
    def test_both_block_preloads_apply_the_same_limit(self, params, scheme):
        """A page column one page past a full color: the Python and the
        C block preload both refuse it."""
        full = spill_pages(params, params.page_slots_per_global_set)
        streams = [[] for _ in range(params.nodes)]

        def overfull():
            machine = literal_machine(params, scheme, streams, pages=full)
            machine.page_bases.append(machine.page_bases[0] + full * params.page_size)
            return machine

        with pytest.raises(CapacityError):
            overfull().materialize_image()
        compiled = Simulator(overfull())
        assert fast_simulator.fallback_reason(compiled) is None
        with pytest.raises(CapacityError):
            compiled.run()


class TestOnDemand:
    def test_compiled_run_decodes_nothing_until_read(self, params, monkeypatch):
        calls = {"preload_block": 0, "_load_cache": 0}

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(ProtocolEngine, "preload_block")
        counting(fast_simulator, "_load_cache")
        result = run_timing(params, Scheme.V_COMA, make_workload("fft", intensity=0.3), 8,
                            max_refs_per_node=300)
        assert result.backend == "compiled"
        summary_surface(result)
        assert calls == {"preload_block": 0, "_load_cache": 0}
        result.machine.engine.ams[0].occupancy()
        assert calls == {"preload_block": 0, "_load_cache": 3 * params.nodes}
        result.machine.materialize_image()
        assert calls["_load_cache"] == 3 * params.nodes

    @pytest.mark.parametrize("fault", ["oom", "internal"])
    def test_fault_after_c_preload_reruns_pristine(self, params, fault, monkeypatch):
        preloads = []
        original = fast_simulator._preload_in_c

        def counted(*args):
            preloads.append(1)
            return original(*args)

        monkeypatch.setattr(fast_simulator, "_preload_in_c", counted)
        scalar = run_timing(params, Scheme.L0_TLB, make_workload("ocean", intensity=0.3), 8,
                            max_refs_per_node=400, fast=False)
        monkeypatch.setenv(FAULT_ENV, fault)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            degraded = run_timing(params, Scheme.L0_TLB, make_workload("ocean", intensity=0.3),
                                  8, max_refs_per_node=400)
        assert preloads == [1]
        assert degraded.backend == "scalar"
        assert degraded.fallback_reason.startswith("compiled engine degraded:")
        assert summary_surface(degraded) == summary_surface(scalar)
        assert machine_state(degraded.machine) == machine_state(scalar.machine)
