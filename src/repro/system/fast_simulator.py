"""Compiled fast path for the timing simulator.

Drives the ``fastsim`` C engine (see :mod:`repro.core.timing_kernels`)
over materialized columnar reference streams.  The C engine owns the
whole inter-sync machine — event heap, FLC/SLC/AM hierarchies, COMA-F
protocol, directory, crossbar charging, TLB/DLB with the scalar path's
exact Mersenne Twister streams — and returns to Python only at
synchronization events (barriers, locks, stream end), where this module
replays :class:`~repro.system.simulator.Simulator`'s sync semantics
verbatim through thin C accessors.

The contract is **bit-identical results**: after a fast run the machine
object (counters, cache/AM/directory images, TLB contents, RNG states,
histograms, breakdowns) is indistinguishable from one driven by the
scalar engine, which the differential suite
(``tests/integration/test_timing_equivalence.py``) enforces field by
field.  C places the preloaded blocks itself (``fs_preload``); after
the run the cache/AM/directory/TLB contents are copied out as raw arrays
and decoded only when read (``Machine.materialize_image``).  Anything
the C engine does not model — tracing, port
contention, topologies, paging extensions, study agents, invariant
checking — makes :func:`fallback_reason` return a string and the caller
stays on the scalar path.
"""

from __future__ import annotations

import functools
import os
from array import array
from typing import List, Optional

from repro.common.errors import CapacityError, ProtocolError, ReproError
from repro.coma.attraction import AttractionMemory
from repro.coma.states import AMState, DirectoryEntry
from repro.core import timing_kernels as tk
from repro.core.ladder import EngineDegraded, injected_fault
from repro.core.schemes import TAP_OF_SCHEME, TapPoint
from repro.core.tlb import Organization
from repro.system.refs import BARRIER, LOCK, UNLOCK
from repro.system.results import RunResult

_TAP_CODE = {
    TapPoint.L0: tk.TAP_L0,
    TapPoint.L1: tk.TAP_L1,
    TapPoint.L2: tk.TAP_L2,
    TapPoint.L3: tk.TAP_L3,
    TapPoint.HOME: tk.TAP_HOME,
}

_N_ENGINE_GLOBALS = 11  # glob[0:11] → engine.counters, the rest → crossbar

_TYPECODE = {"int64_t": "q", "int32_t": "i", "uint64_t": "Q", "uint32_t": "I", "uint8_t": "B"}


def _out(ffi, ctype: str, n: int):
    """A zeroed ``array`` of ``n`` ``ctype`` items and the cffi view C
    fills it through."""
    data = array(_TYPECODE[ctype], bytes(ffi.sizeof(ctype) * n))
    return data, ffi.from_buffer(ctype + "[]", data)


def _is_sweep_agent(agent) -> bool:
    """True for the uncoupled sweep instruments (StudyAgent records the
    full miss surface, CaptureAgent records raw tap streams) — the
    agents the capture-mode fast path reproduces."""
    from repro.system.taps import StudyAgent
    from repro.system.taptrace import CaptureAgent

    return type(agent) in (StudyAgent, CaptureAgent)


def fallback_reason(simulator) -> Optional[str]:
    """None when the compiled fast path can reproduce this run exactly;
    otherwise a short human-readable reason for staying scalar."""
    from repro.system.machine import Machine
    from repro.system.taps import TimingAgent

    if os.environ.get(tk.NO_COMPILED_ENV):
        return f"disabled ({tk.NO_COMPILED_ENV})"
    machine = simulator.machine
    if type(machine) is not Machine:
        return f"custom machine type {type(machine).__name__}"
    if not machine.preload_pending:
        return "machine image already materialized"
    if (
        machine.tracer is not None
        or machine.engine.trace is not None
        or machine.crossbar.trace is not None
    ):
        return "tracing attached"
    if simulator.check_invariants_every:
        return "invariant checking requested"
    if (
        machine.swap_daemon is not None
        or machine.engine.overflow_handler is not None
        or machine.engine.fault_handler is not None
    ):
        return "paging extensions active"
    if machine.crossbar.contention:
        return "port contention model active"
    if machine.crossbar.topology is not None:
        return "topology model active"
    agent = machine.agent
    from repro.coma.protocol import TranslationAgent

    if type(agent) is TimingAgent:
        if agent.organization not in (
            Organization.FULLY_ASSOCIATIVE,
            Organization.DIRECT_MAPPED,
        ):
            return f"unsupported TLB organization {agent.organization.value}"
    elif not _is_sweep_agent(agent) and type(agent) is not TranslationAgent:
        return f"unsupported agent {type(agent).__name__}"
    if tk.get_backend() is None:
        return f"compiled backend unavailable: {tk.backend_status()}"
    return None


def _raise_engine_error(status: int) -> None:
    if status == tk.ERR_PROTOCOL:
        raise ProtocolError("fast timing engine: protocol violation")
    if status == tk.ERR_CAPACITY:
        raise CapacityError("fast timing engine: no slot for injected master")
    if status == tk.ERR_KEY:
        raise ReproError("fast timing engine: unmapped page in translation")
    # ERR_INTERNAL is the sticky in-C failure code for conditions the
    # scalar oracle does not share — allocation failure in capture mode
    # or the event heap — so the supervisor may degrade and re-run.
    raise EngineDegraded(f"C engine internal error (status {status})")


def run_fast(simulator) -> RunResult:
    """Run one simulation on the compiled engine.

    The caller must have checked :func:`fallback_reason` first; this
    function assumes eligibility and raises on engine errors.  Failures
    the scalar oracle recovers from — C-side allocation failure, the
    sticky internal error status, injected faults — raise
    :class:`~repro.core.ladder.EngineDegraded` (or ``MemoryError``),
    and are only raised while the Python machine is still pristine
    (``simulator._fast_state_mutated`` guards the copy-back phase), so
    :meth:`Simulator.run` can re-run the same machine on the scalar
    engine.
    """
    from repro.system.taps import TimingAgent

    simulator._fast_state_mutated = False
    fault = injected_fault()
    if fault == "create":
        raise EngineDegraded("injected fault: engine allocation failed (create)")

    backend = tk.get_backend()
    ffi, lib = backend.ffi, backend.lib
    machine = simulator.machine
    params = machine.params
    layout = machine.layout
    agent = machine.agent
    nodes = machine.nodes
    count = params.nodes
    think = machine.workload.think_cycles
    timing_agent = type(agent) is TimingAgent
    max_refs = simulator.max_refs_per_node
    swords = (count + 63) // 64

    geom = [0] * tk.GEOM_LEN
    geom[tk.GEOM_NODES] = count
    geom[tk.GEOM_THINK] = think
    geom[tk.GEOM_PAGE_BITS] = layout.page_bits
    geom[tk.GEOM_BLOCK_BITS] = layout.block_bits
    geom[tk.GEOM_FLC_BLOCK] = params.flc_block
    geom[tk.GEOM_FLC_SETS] = params.flc_sets
    geom[tk.GEOM_FLC_ASSOC] = params.flc_assoc
    geom[tk.GEOM_SLC_BLOCK] = params.slc_block
    geom[tk.GEOM_SLC_SETS] = params.slc_sets
    geom[tk.GEOM_SLC_ASSOC] = params.slc_assoc
    geom[tk.GEOM_AM_SETS] = params.am_sets
    geom[tk.GEOM_AM_ASSOC] = params.am_assoc
    geom[tk.GEOM_SLC_HIT] = params.slc_hit_latency
    geom[tk.GEOM_AM_HIT] = params.am_hit_latency
    geom[tk.GEOM_REQ_CYCLES] = params.request_msg_cycles
    geom[tk.GEOM_BLK_CYCLES] = params.block_msg_cycles
    geom[tk.GEOM_DIR_LATENCY] = params.directory_lookup_latency
    geom[tk.GEOM_PENALTY] = params.translation_miss_penalty
    geom[tk.GEOM_VIRTUAL_FLC] = int(machine.scheme.uses_virtual_flc)
    geom[tk.GEOM_VIRTUAL_SLC] = int(machine.scheme.uses_virtual_slc)
    geom[tk.GEOM_VIRTUAL_AM] = int(machine.scheme.uses_virtual_am)
    geom[tk.GEOM_RELAXED] = int(nodes[0].relaxed_writes) if nodes else 0
    geom[tk.GEOM_TAP] = (
        _TAP_CODE[TAP_OF_SCHEME[machine.scheme]] if timing_agent else tk.TAP_NONE
    )
    geom[tk.GEOM_INCLUDE_L2_WB] = (
        int(agent.include_l2_writebacks) if timing_agent else 1
    )
    if timing_agent:
        buffer0 = agent.buffer(0)
        geom[tk.GEOM_TLB_ENTRIES] = buffer0.entries
        geom[tk.GEOM_TLB_SETS] = buffer0.sets
        geom[tk.GEOM_TLB_ASSOC] = buffer0.assoc
    geom[tk.GEOM_MAX_REFS] = -1 if max_refs is None else max_refs
    geom[tk.GEOM_AM_BLOCK] = params.am_block
    geom[tk.GEOM_REQ_PAYLOAD] = params.request_payload_bytes
    geom[tk.GEOM_BLK_PAYLOAD] = params.am_block + params.message_header_bytes
    # Hints: an entry per preloaded block / mapped page (C rounds up).
    geom[tk.GEOM_DIR_CAPACITY] = 2 * len(machine.page_bases) * params.blocks_per_page + 16
    geom[tk.GEOM_MAP_CAPACITY] = 2 * len(machine.page_map) + 16

    handle = lib.fs_create(ffi.new("int64_t[]", geom))
    if handle == ffi.NULL:
        raise EngineDegraded("C engine allocation failed (fs_create OOM)")
    try:
        _preload_in_c(ffi, lib, handle, machine)
        if fault == "oom":
            raise EngineDegraded("injected fault: C allocation failed (oom)")
        if fault == "internal":
            _raise_engine_error(tk.ERR_INTERNAL)
        if _is_sweep_agent(agent) and lib.fs_set_capture(handle, 1) != 0:
            raise EngineDegraded("capture-mode allocation failed")
        return _drive(simulator, ffi, lib, handle, swords, think, timing_agent)
    finally:
        lib.fs_destroy(handle)


def _preload_in_c(ffi, lib, handle, machine) -> None:
    """The machine's deferred block preload, done by C from the
    page-base column, and the page map in one call."""
    bases = machine.page_bases
    status = lib.fs_preload(handle, ffi.from_buffer("int64_t[]", bases), len(bases))
    if status:
        _raise_engine_error(status)
    vpns = array("q", machine.page_map)
    pfns = array("q", machine.page_map.values())
    views = [ffi.from_buffer("int64_t[]", column) for column in (vpns, pfns)]
    if lib.fs_pagemap_load(handle, *views, len(vpns)):
        raise EngineDegraded("page map load failed (map allocation)")


def _drive(simulator, ffi, lib, handle, swords, think, timing_agent) -> RunResult:
    machine = simulator.machine
    engine = machine.engine
    agent = machine.agent
    nodes = machine.nodes
    count = machine.params.nodes

    # -- streams and RNG states -----------------------------------------
    # Streams: materialized columns (shared across grid cells through
    # the stream LRU when the caller supplied a workload identity);
    # `keep` pins the arrays and their cffi views for the lifetime of
    # the run (C holds raw pointers).
    stream_key = getattr(simulator, "stream_key", None)
    keep = []
    for n in range(count):
        ops, vals = tk.materialize_shared(
            stream_key, n, lambda node=n: machine.node_stream(node)
        )
        length = len(ops)
        if length:
            ops_view = ffi.from_buffer("uint8_t[]", ops)
            vals_view = ffi.from_buffer("int64_t[]", vals)
        else:
            ops_view = vals_view = ffi.NULL
        keep.append((ops, vals, ops_view, vals_view))
        lib.fs_set_stream(handle, n, ops_view, vals_view, length)

    lib.fs_seed_engine(
        handle, ffi.from_buffer("uint32_t[]", tk.rng_state_words(engine._rng))
    )
    if timing_agent:
        for n in range(count):
            lib.fs_seed_tlb(
                handle,
                n,
                ffi.from_buffer("uint32_t[]", tk.rng_state_words(agent.buffer(n)._rng)),
            )

    # -- sync-event loop (mirrors Simulator.run exactly) ----------------
    sync: List[int] = [0] * count
    active = count
    barriers_seen = 0
    barrier_arrivals = {}
    lock_holder = {}
    lock_queue = {}
    out = ffi.new("int64_t[4]")

    def reference(node: int, word: int, now: int) -> int:
        stall = int(lib.fs_reference(handle, node, 1, word, now))
        if stall < 0:
            _raise_engine_error(stall)
        return stall

    def maybe_release_barrier(barrier_id: int) -> None:
        arrivals = barrier_arrivals.get(barrier_id)
        if arrivals is None or len(arrivals) < active:
            return
        release = max(arrivals.values()) if arrivals else 0
        for node_id, arrived in arrivals.items():
            sync[node_id] += release - arrived
            lib.fs_set_clock(handle, node_id, release)
            lib.fs_push(handle, release, node_id)
        del barrier_arrivals[barrier_id]

    def finish(node: int, now: int) -> None:
        nonlocal active
        lib.fs_mark_finished(handle, node)
        lib.fs_set_clock(handle, node, now)
        active -= 1
        for word, holder in list(lock_holder.items()):
            if holder != node:
                continue
            queue = lock_queue.get(word)
            if queue:
                waiter, arrival = queue.pop(0)
                lock_holder[word] = waiter
                sync[waiter] += max(0, now - arrival)
                lib.fs_push(handle, max(now, arrival), waiter)
            else:
                lock_holder[word] = None
        for barrier_id in list(barrier_arrivals):
            maybe_release_barrier(barrier_id)

    while True:
        status = int(lib.fs_run(handle, out))
        if status == tk.DONE:
            break
        if status < 0:
            _raise_engine_error(status)
        n, now = int(out[0]), int(out[1])
        if status == tk.NEED_FINISH:
            finish(n, now)
            continue
        op, value = int(out[2]), int(out[3])
        lib.fs_consume_op(handle, n)
        if op == BARRIER:
            barriers_seen += 1
            arrivals = barrier_arrivals.setdefault(value, {})
            if n in arrivals:
                raise ReproError(
                    f"node {n} reached barrier {value} twice before release"
                )
            arrivals[n] = now
            lib.fs_set_clock(handle, n, now)
            maybe_release_barrier(value)
        elif op == LOCK:
            holder = lock_holder.get(value)
            if holder is None:
                lock_holder[value] = n
                stall = reference(n, value, now)
                lib.fs_set_clock(handle, n, now + stall)
                lib.fs_push(handle, now + stall, n)
            else:
                lock_queue.setdefault(value, []).append((n, now))
        elif op == UNLOCK:
            if lock_holder.get(value) != n:
                raise ReproError(
                    f"node {n} unlocks {value:#x} held by {lock_holder.get(value)}"
                )
            stall = reference(n, value, now)
            release_time = now + stall
            lib.fs_set_clock(handle, n, release_time)
            lib.fs_push(handle, release_time, n)
            queue = lock_queue.get(value)
            if queue:
                waiter, arrival = queue.pop(0)
                lock_holder[value] = waiter
                sync[waiter] += release_time - arrival
                acquire_stall = reference(waiter, value, release_time)
                lib.fs_set_clock(handle, waiter, release_time + acquire_stall)
                lib.fs_push(handle, release_time + acquire_stall, waiter)
            else:
                lock_holder[value] = None
        else:
            raise ReproError(f"unknown opcode {op}")

    if barrier_arrivals:
        raise ReproError(
            f"deadlock: barriers {sorted(barrier_arrivals)} never released"
        )
    held = [w for w, h in lock_holder.items() if h is not None]
    if held:
        raise ReproError(f"locks still held at end of run: {held}")

    clock = [int(lib.fs_get_clock(handle, n)) for n in range(count)]
    end_time = max(clock) if clock else 0
    for n in range(count):
        sync[n] += end_time - clock[n]

    # -- copy the machine state back -----------------------------------
    # Past this point the Python machine is mutated incrementally, so a
    # failure can no longer degrade to a scalar re-run of the same
    # machine object (Simulator.run checks this flag).
    simulator._fast_state_mutated = True
    refs_per_node = [int(lib.fs_refs_done(handle, n)) for n in range(count)]
    breakdowns = []
    stall, stall_out = _out(ffi, "int64_t", 3)
    hist_buckets, hist_out = _out(ffi, "int64_t", tk.N_HIST_BUCKETS)
    hist_ct, hist_ct_out = _out(ffi, "int64_t", 2)
    stats, stats_out = _out(ffi, "int64_t", 2)
    node_vals = ffi.new("int64_t[]", len(tk.NODE_COUNTERS))
    node_calls = ffi.new("int64_t[]", len(tk.NODE_COUNTERS))
    caches = []

    for n, node in enumerate(nodes):
        lib.fs_export_breakdown(handle, n, stall_out)
        breakdown = node.breakdown
        breakdown.busy = think * refs_per_node[n]
        breakdown.sync = sync[n]
        breakdown.loc_stall, breakdown.rem_stall, breakdown.tlb_stall = stall
        breakdowns.append(breakdown)

        lib.fs_export_node_counters(handle, n, node_vals, node_calls)
        values = node.counters._values
        for i, name in enumerate(tk.NODE_COUNTERS):
            if node_calls[i]:
                values[name] = values.get(name, 0) + int(node_vals[i])

        for is_write, hist in ((0, node.read_latency), (1, node.write_latency)):
            lib.fs_export_hist(handle, n, is_write, hist_out, hist_ct_out)
            hist._buckets = {i: value for i, value in enumerate(hist_buckets) if value}
            hist.count, hist.total = hist_ct

        for which, cache in enumerate((node.flc, node.slc, engine.ams[n])):
            (blocks, blocks_out), (states, states_out) = (
                _out(ffi, ctype, cache.sets * cache.assoc) for ctype in ("int64_t", "uint8_t")
            )
            resident = lib.fs_export_cache(handle, n, which, blocks_out, states_out, stats_out)
            cache.hits, cache.misses = stats
            caches.append((cache, blocks[:resident], states[:resident]))

    glob_vals = ffi.new("int64_t[]", len(tk.GLOBAL_COUNTERS))
    glob_calls = ffi.new("int64_t[]", len(tk.GLOBAL_COUNTERS))
    lib.fs_export_global(handle, glob_vals, glob_calls)
    engine_values = engine.counters._values
    crossbar_values = machine.crossbar.counters._values
    for i, name in enumerate(tk.GLOBAL_COUNTERS):
        if glob_calls[i]:
            target = engine_values if i < _N_ENGINE_GLOBALS else crossbar_values
            target[name] = target.get(name, 0) + int(glob_vals[i])

    lookups, lookups_out = _out(ffi, "int64_t", count)
    lib.fs_export_dir_lookups(handle, lookups_out)
    for directory, looked_up in zip(engine.directories, lookups):
        directory.lookups += looked_up
    dcount = int(lib.fs_dir_count(handle))
    dir_out = [_out(ffi, "int64_t", dcount), _out(ffi, "int32_t", dcount),
               _out(ffi, "uint64_t", dcount * swords)]
    lib.fs_export_dir(handle, *(view for _, view in dir_out))

    buffers = []  # raw TLB / bank-buffer images
    if timing_agent:
        buffers = _load_tlbs(ffi, lib, handle, agent, count)
    elif _is_sweep_agent(agent):
        buffers = _load_sweep_agent(ffi, lib, handle, agent, count)

    rng_words, rng_out = _out(ffi, "uint32_t", tk.RNG_STATE_WORDS)
    lib.fs_export_engine_rng(handle, rng_out)
    tk.load_rng_state(engine._rng, rng_words)
    engine._translation_accum = int(lib.fs_translation_accum(handle))
    active_block = int(lib.fs_active_block(handle))
    engine.active_demand_block = None if active_block < 0 else active_block

    # The cache/AM/directory/TLB contents stay raw until first read.
    containers = [(cache, "_sets") for cache, _, _ in caches]
    containers += [(directory, "_entries") for directory in engine.directories]
    for buffer, _, _, rng, _ in buffers:
        attrs = ("_tags", "_where") + (("_rng", "_getrandbits") if rng is not None else ())
        containers += [(buffer, attr) for attr in attrs]
    dir_image = [data for data, _ in dir_out]
    machine.defer_image(
        functools.partial(_load_image, machine, caches, dir_image, buffers), containers
    )
    _refresh_bank_fanout(agent)

    return RunResult(
        machine=machine,
        breakdowns=breakdowns,
        total_time=end_time,
        refs_per_node=refs_per_node,
        barriers=barriers_seen,
    )


def _load_image(machine, caches, dir_image, buffers) -> None:
    """Decode the raw image a compiled run copied out of C into the
    Python machine (the compiled half of ``Machine.materialize_image``)."""
    for cache, blocks, states in caches:
        _load_cache(cache, blocks, states)
    _load_directory(machine, *dir_image)
    _load_tags(buffers)
    _refresh_bank_fanout(machine.agent)


def _refresh_bank_fanout(agent) -> None:
    """Point a StudyAgent's bank fan-outs at the buffers' current
    ``_where`` maps (stand-ins until decoded, then the real dicts)."""
    for bank in getattr(agent, "_banks", {}).values():
        bank._fanout = [(buf._where, buf._install) for buf in bank._buffer_list]


def _load_cache(cache, blocks, states) -> None:
    """Rebuild a Python cache/AM image from the C engine's LRU arrays.

    The export is set-major and LRU-ordered within each set, so
    appending into fresh per-set dicts reproduces the scalar path's
    dict insertion order (= LRU order) exactly.
    """
    cast = AMState if isinstance(cache, AttractionMemory) else int
    shift = cache._block_shift
    mask = cache._set_mask
    fresh = [{} for _ in range(cache.sets)]
    for block, state in zip(blocks, states):
        fresh[(block >> shift) & mask][block] = cast(state)
    cache._sets = fresh


def _load_directory(machine, blocks, owners, sharers) -> None:
    """Rebuild every home's directory entries from the C export, in
    entry-creation order (the scalar path's per-home insertion order)."""
    directories = machine.engine.directories
    count = len(directories)
    swords = (count + 63) // 64
    fresh = [{} for _ in directories]
    page_bits = machine.layout.page_bits
    for i, block in enumerate(blocks):
        mask = sum(sharers[i * swords + w] << (64 * w) for w in range(swords))
        owner = owners[i]
        fresh[(block >> page_bits) & (count - 1)][block] = DirectoryEntry(
            None if owner < 0 else owner, {node for node in range(count) if mask >> node & 1}
        )
    for directory, entries in zip(directories, fresh):
        directory._entries = entries


def _load_sweep_agent(ffi, lib, handle, agent, count: int) -> list:
    """Copy a sweep agent's results out of the captured tap streams;
    returns the raw bank-buffer images left for :func:`_load_tags`.

    For a :class:`~repro.system.taps.StudyAgent`, every bank member is
    replayed over its ``(tap, node)`` stream with one ``fs_bank_run``
    call — banks never interact, and each member draws victims from its
    own RNG substream, so per-stream replay reproduces the coupled
    scalar run's miss counts, buffer contents, and RNG states exactly.
    The lazy-counter convention is preserved: the *bank* access counter
    is set (the scalar fan-out bumps only it) while member buffers keep
    ``accesses == 0`` until a reader syncs them.

    For a :class:`~repro.system.taptrace.CaptureAgent`, the raw streams
    are copied out into its per-tap column arrays.
    """
    from repro.system.taps import StudyAgent

    if type(agent) is StudyAgent:
        return _load_study_agent(ffi, lib, handle, agent, count)
    _load_capture_agent(ffi, lib, handle, agent, count)
    return []


def _load_study_agent(ffi, lib, handle, agent, count: int) -> list:
    total_references = 0
    images = []
    for tap_index, tap in enumerate(tk.SWEEP_TAPS):
        for n in range(count):
            length = int(lib.fs_cap_count(handle, tap_index, n))
            if tap is TapPoint.L0:
                total_references += length
            bank = agent._banks[(tap, n)]
            bank.accesses += length
            if not length:
                continue
            pages = lib.fs_cap_data(handle, tap_index, n)
            for buffer in bank._buffer_list:
                images.append(_run_bank(ffi, lib, buffer, pages, length))
    agent.total_references += total_references
    return images


def _run_bank(ffi, lib, buffer, pages, length: int) -> tuple:
    """One fs_bank_run call: replay a recorded stream through one
    TranslationBuffer and add its misses.  Returns the buffer's final
    contents and RNG state as raw arrays, for :func:`_load_tags`."""
    rng_words = tk.rng_state_words(buffer._rng)
    tags, tags_out = _out(ffi, "int64_t", buffer.sets * buffer.assoc)
    lens, lens_out = _out(ffi, "int32_t", buffer.sets)
    rng_out = ffi.from_buffer("uint32_t[]", rng_words)
    misses = int(lib.fs_bank_run(buffer.entries, buffer.sets, buffer.assoc, rng_out,
                                 pages, 8, length, tags_out, lens_out))
    if misses < 0:
        raise MemoryError("fast sweep engine: bank allocation failed")
    buffer.misses += misses
    return buffer, tags, lens, buffer._rng, rng_words


def _load_capture_agent(ffi, lib, handle, agent, count: int) -> None:
    streams = agent.streams()
    total_references = 0
    for tap_index, tap in enumerate(tk.SWEEP_TAPS):
        for n in range(count):
            length = int(lib.fs_cap_count(handle, tap_index, n))
            if tap is TapPoint.L0:
                total_references += length
            if not length:
                continue
            pages = lib.fs_cap_data(handle, tap_index, n)
            # Captured pages are non-negative int64s; a native-order
            # bulk copy into the agent's u8 columns is exact.
            streams[(tap.value, n)].frombytes(ffi.buffer(pages, 8 * length))
    agent.total_references += total_references


def _load_tlbs(ffi, lib, handle, agent, count: int) -> list:
    """Copy every timing TLB/DLB's statistics and RNG state back; their
    tags stay raw (returned for :func:`_load_tags`)."""
    stats, stats_out = _out(ffi, "int64_t", 2)
    rng_words, rng_out = _out(ffi, "uint32_t", tk.RNG_STATE_WORDS)
    images = []
    for n in range(count):
        buffer = agent.buffer(n)
        tags, tags_out = _out(ffi, "int64_t", buffer.sets * buffer.assoc)
        lens, lens_out = _out(ffi, "int32_t", buffer.sets)
        lib.fs_export_tlb(handle, n, tags_out, lens_out, stats_out)
        buffer.accesses, buffer.misses = stats
        lib.fs_export_tlb_rng(handle, n, rng_out)
        tk.load_rng_state(buffer._rng, rng_words)
        images.append((buffer, tags, lens, None, None))
    return images


def _load_tags(buffers) -> None:
    """Rebuild TranslationBuffer contents — timing TLBs/DLBs and sweep
    bank members — from raw ``(buffer, tags, lens, rng, rng_words)``
    images; a bank member's RNG state is restored too."""
    for buffer, tags, lens, rng, rng_words in buffers:
        assoc = buffer.assoc
        buffer._tags = [
            tags[i * assoc : i * assoc + length].tolist() for i, length in enumerate(lens)
        ]
        buffer._where = {
            page: (i, way) for i, ways in enumerate(buffer._tags) for way, page in enumerate(ways)
        }
        if rng is not None:
            tk.load_rng_state(rng, rng_words)
            buffer._rng = rng
            buffer._getrandbits = rng.getrandbits
