"""Machine assembly: substrates wired for one translation scheme.

``Machine(params, scheme, workload)`` builds the full system:

* the segmented virtual address space with the workload's segments,
* per-home page tables; for virtual-AM schemes (L3-TLB, V-COMA) a
  directory-page allocator per home, for physical-AM schemes (L0/L1/L2)
  the round-robin frame allocator and the virtual↔physical page maps,
* attraction memories + directories + COMA-F protocol engine,
* one :class:`~repro.system.node.Node` per processor, wired with the
  right cache virtuality and translation taps,
* global-set pressure accounting (paper Figure 11),

then **preloads** every page (the paper simulates no paging): page-table
entries, directory pages/frames, and one master copy per memory block
spread from its home node.

The page-level preload runs at construction.  The block-level part —
AM masters and directory owners — is deferred: a compiled run places
the blocks in C from the page-base column (``fs_preload``), and the
Python image is built only when something reads it.  Every AM/cache
set list, directory entry map and TLB tag list that is not built yet
holds a :class:`PendingImage`, which calls
:meth:`Machine.materialize_image` on first use: that runs the Python
block preload on a machine that never ran, or decodes the image a
compiled run left behind.

Note on L3-TLB: with page coloring and at least as many page colors as
nodes (the paper's regime), the physical home of a page coincides with
its virtual home, and virtual indexing makes the AM placement identical
to V-COMA's; the schemes then differ only in *where* translation happens
— which is exactly how we model them (shared protocol state, different
taps).
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, List, Optional

from repro.common.address import AddressLayout
from repro.common.errors import ReproError
from repro.common.params import MachineParams
from repro.common.rng import make_rng
from repro.common.stats import Counters
from repro.coma.protocol import ProtocolEngine, TranslationAgent
from repro.core.directory_space import DirectoryAddressSpace, DirectoryPageHandle
from repro.core.schemes import Scheme
from repro.interconnect.crossbar import Crossbar
from repro.interconnect.topology import make_topology
from repro.system.node import Node
from repro.vm.frames import FrameAllocator
from repro.vm.page_table import HomePageTable, PageTableEntry
from repro.vm.pressure import PressureTracker
from repro.vm.segments import SegmentedAddressSpace
from repro.vm.swap import SwapDaemon
from repro.workloads.base import Workload, WorkloadContext


class PendingImage:
    """Stand-in for an image container that is not built yet: a
    cache's or AM's ``_sets``, a directory's ``_entries``, a buffer's
    ``_tags``/``_where``/RNG.

    Any use calls ``load`` (which must replace ``owner.attr`` with the
    real container) and forwards to the real container, so no reader
    sees an empty or stale image.  If the container is still missing
    after ``load`` — an earlier build failed part-way — the read raises
    :class:`~repro.common.errors.ReproError`.
    """

    __slots__ = ("_owner", "_attr", "_load")

    def __init__(self, owner, attr: str, load: Callable[[], None]) -> None:
        self._owner = owner
        self._attr = attr
        self._load = load

    def _real(self):
        real = getattr(self._owner, self._attr)
        if real is self:
            self._load()
            real = getattr(self._owner, self._attr)
            if real is self:
                raise ReproError(
                    f"machine image unavailable: {type(self._owner).__name__}"
                    f".{self._attr} was never built"
                )
        return real

    def __getattr__(self, name):
        return getattr(self._real(), name)

    def __getitem__(self, key):
        return self._real()[key]

    def __setitem__(self, key, value) -> None:
        self._real()[key] = value

    def __delitem__(self, key) -> None:
        del self._real()[key]

    def __iter__(self):
        return iter(self._real())

    def __len__(self) -> int:
        return len(self._real())

    def __contains__(self, item) -> bool:
        return item in self._real()

    def __eq__(self, other) -> bool:
        return self._real() == other

    def __repr__(self) -> str:
        return f"PendingImage({type(self._owner).__name__}.{self._attr})"


class Machine:
    """A COMA multiprocessor configured for one scheme and workload."""

    def __init__(
        self,
        params: MachineParams,
        scheme: Scheme,
        workload: Workload,
        agent: Optional[TranslationAgent] = None,
        contention: bool = False,
        swap_threshold: Optional[float] = None,
        topology: Optional[str] = None,
        relaxed_writes: bool = False,
        tracer=None,
    ) -> None:
        self.params = params
        self.scheme = scheme
        self.workload = workload
        self.layout = AddressLayout.from_params(params)
        self.agent = agent if agent is not None else TranslationAgent()
        topo = make_topology(topology, params.nodes) if topology else None
        self.crossbar = Crossbar(params, contention=contention, topology=topo)
        self.counters = Counters()
        #: Optional :class:`~repro.obs.trace.Tracer`, threaded through
        #: every instrumented layer (simulator, nodes, protocol engine,
        #: crossbar, translation agent).  None → tracing disabled.
        self.tracer = tracer
        if tracer is not None:
            from repro import __version__

            tracer.set_meta(
                scheme=scheme.value,
                nodes=params.nodes,
                workload=workload.name,
                version=__version__,
            )
            self.crossbar.trace = tracer
            self.agent.attach_trace(tracer)

        self._virtual_am = scheme.uses_virtual_am
        self.page_map: Dict[int, int] = {}
        self.reverse_map: Dict[int, int] = {}
        self.frames: Optional[FrameAllocator] = None
        if not self._virtual_am:
            self.frames = FrameAllocator(
                self.layout, params.pages_per_am, coloring=False
            )
        self.page_tables: List[HomePageTable] = [
            HomePageTable(n, self.layout.global_page_sets) for n in range(params.nodes)
        ]
        self.directory_spaces: List[DirectoryAddressSpace] = [
            DirectoryAddressSpace(params.blocks_per_page) for _ in range(params.nodes)
        ]
        self.pressure = PressureTracker(
            self.layout.global_page_sets, params.page_slots_per_global_set
        )

        self.engine = ProtocolEngine(
            params,
            self.layout,
            self.crossbar,
            agent=self.agent,
            inclusion_hook=self._inclusion_hook,
            rng=make_rng(params.seed, "inject"),
        )
        if tracer is not None:
            self.engine.trace = tracer

        # -- segments and workload context ------------------------------
        self.space = SegmentedAddressSpace(params.page_size)
        segments = {}
        for spec in workload.segment_specs(params):
            segments[spec.name] = self.space.allocate(
                spec.name,
                spec.size,
                kind=spec.kind,
                owner=spec.owner,
                alignment=spec.alignment,
                offset=spec.offset,
            )
        self.ctx = WorkloadContext(
            params, self.layout, segments, params.seed, workload.name
        )

        # -- nodes -------------------------------------------------------
        self.nodes: List[Node] = [
            Node(
                n,
                params,
                scheme,
                self.engine,
                self.agent,
                to_physical=self._to_physical,
                to_virtual=self._to_virtual,
                relaxed_writes=relaxed_writes,
                trace=tracer,
            )
            for n in range(params.nodes)
        ]

        self.swap_daemon: Optional[SwapDaemon] = None
        if swap_threshold is not None:
            self.swap_daemon = SwapDaemon(
                self.pressure,
                self.page_tables,
                self._evict_page,
                threshold=swap_threshold,
            )
            self.engine.overflow_handler = self._handle_overflow
            self.engine.fault_handler = self._handle_fault

        #: Protocol page base of every preloaded page, in preload order
        #: (the column ``fs_preload`` places blocks from).
        self.page_bases = array("q")
        self._pending_image: Optional[Callable[[], None]] = None
        self._preload()
        self.defer_image(
            self._preload_blocks,
            [(am, "_sets") for am in self.engine.ams]
            + [(d, "_entries") for d in self.engine.directories],
        )
        #: True until the deferred block preload is done: in C by a
        #: compiled run, or in Python by :meth:`materialize_image`.
        self.preload_pending = True
        if self.swap_daemon is not None:
            for segment in self.space:
                for vpn in segment.pages(params.page_size):
                    self.swap_daemon.note_page_in(vpn)

    # ------------------------------------------------------------------
    # paging (swap-daemon extension, paper Section 4.3)
    # ------------------------------------------------------------------
    def _evict_page(self, vpn: int) -> None:
        """Swap one page out: purge every block copy, reclaim its
        directory page (or frame), unmap it."""
        self.materialize_image()
        layout = self.layout
        home = layout.home_node_of_vpn(vpn)
        pte = self.page_tables[home].remove(vpn)
        if self._virtual_am:
            proto_base = vpn << layout.page_bits
            self.directory_spaces[home].reclaim(
                DirectoryPageHandle(pte.payload, self.params.blocks_per_page)
            )
        else:
            pfn = pte.payload
            proto_base = pfn << layout.page_bits
            self.frames.free(pfn)
            del self.page_map[vpn]
            del self.reverse_map[pfn]
        block = self.params.am_block
        for i in range(self.params.blocks_per_page):
            self.engine.purge_block(proto_base + i * block)
        self.counters.add("pages_swapped_out")

    def _handle_overflow(self, proto_block: int) -> bool:
        """Engine hook: an injected master found no slot — force one
        page of that global set out (never a page involved in the
        transaction in flight)."""
        from repro.common.errors import CapacityError

        layout = self.layout
        gps = (proto_block >> layout.page_bits) & (layout.global_page_sets - 1)
        exclude = {self._vpn_of_proto(proto_block)}
        if self.engine.active_demand_block is not None:
            exclude.add(self._vpn_of_proto(self.engine.active_demand_block))
        try:
            victim = self.swap_daemon.make_room(gps, force=True, exclude=exclude)
        except CapacityError:
            return False
        return victim is not None

    def _handle_fault(self, proto_block: int) -> bool:
        """Engine hook: page a swapped-out page back in (paper §4.3's
        page-fault flow: request a directory page and a page-table entry
        from the home, swapping a resident page out first if the global
        set's pressure is over the daemon's threshold)."""
        layout = self.layout
        if not self._virtual_am:
            # Physical protocol addresses of a swapped page are dead
            # (the frame was freed); physical-machine faults would come
            # through the translation layer instead.  Not reachable in
            # the preloaded workloads.
            return False
        vpn = proto_block >> layout.page_bits
        if self.page_tables[layout.home_node_of_vpn(vpn)].contains(vpn):
            # Another block of the page faulted first and paged it in,
            # but this block's master is genuinely gone: corruption.
            return False
        self._page_in(vpn)
        return True

    def _page_in(self, vpn: int) -> None:
        self.materialize_image()
        layout = self.layout
        home = layout.home_node_of_vpn(vpn)
        gps = layout.global_page_set_of_vpn(vpn)
        if self.swap_daemon is not None:
            # Over-threshold (or full) sets lose a resident page first.
            if self.pressure.occupancy(gps) >= self.pressure.slots_per_set:
                self.swap_daemon.make_room(gps, force=True, exclude={vpn})
            else:
                self.swap_daemon.make_room(gps, exclude={vpn})
        handle = self.directory_spaces[home].allocate()
        self.page_tables[home].insert(PageTableEntry(vpn, handle.base))
        self.pressure.allocate_page(gps)
        block = self.params.am_block
        proto_base = vpn << layout.page_bits
        for i in range(self.params.blocks_per_page):
            self.engine.preload_block(proto_base + i * block)
        if self.swap_daemon is not None:
            self.swap_daemon.note_page_in(vpn)
        self.counters.add("pages_faulted_in")

    def _vpn_of_proto(self, proto_addr: int) -> int:
        page_number = proto_addr >> self.layout.page_bits
        if self._virtual_am:
            return page_number
        return self.reverse_map[page_number]

    # ------------------------------------------------------------------
    # address-space conversion
    # ------------------------------------------------------------------
    def _to_physical(self, vaddr: int) -> int:
        page_bits = self.layout.page_bits
        pfn = self.page_map[vaddr >> page_bits]
        return (pfn << page_bits) | (vaddr & (self.params.page_size - 1))

    def _to_virtual(self, paddr: int) -> int:
        page_bits = self.layout.page_bits
        vpn = self.reverse_map[paddr >> page_bits]
        return (vpn << page_bits) | (paddr & (self.params.page_size - 1))

    # ------------------------------------------------------------------
    # preload (paper Section 5.1: data sets preloaded, no paging)
    # ------------------------------------------------------------------
    def _preload(self) -> None:
        """The page-level preload: page tables, directory pages or
        frames, pressure, and the page-base column (the block-level
        part is deferred, see :meth:`_preload_blocks`).  A data set too big
        for its attraction-memory sets raises
        :class:`~repro.common.errors.CapacityError` here: a block can
        find no free way only when its global page set holds more than
        ``nodes x am_assoc`` pages, which is the pressure tracker's
        per-set count."""
        layout = self.layout
        page_bits = layout.page_bits
        node_mask = self.params.nodes - 1
        # Page color == global page set: the low bits of the VPN (or PFN).
        color_mask = layout.global_page_sets - 1
        page_tables = self.page_tables
        allocate_page = self.pressure.allocate_page
        bases = self.page_bases
        lookups = [0] * self.params.nodes
        for segment in self.space:
            for vpn in segment.pages(self.params.page_size):
                home = vpn & node_mask
                if self._virtual_am:
                    handle = self.directory_spaces[home].allocate()
                    page_tables[home].insert(PageTableEntry(vpn, handle.base))
                    allocate_page(vpn & color_mask)
                    proto_page = vpn
                else:
                    pfn = self.frames.allocate(vpn)
                    self.page_map[vpn] = pfn
                    self.reverse_map[pfn] = vpn
                    page_tables[home].insert(PageTableEntry(vpn, pfn))
                    allocate_page(pfn & color_mask)
                    proto_page = pfn
                bases.append(proto_page << page_bits)
                lookups[proto_page & node_mask] += 1
        # Each preloaded block costs its home directory one lookup.
        blocks_per_page = self.params.blocks_per_page
        for directory, pages in zip(self.engine.directories, lookups):
            directory.lookups += pages * blocks_per_page
        if bases:
            self.counters.add("pages_preloaded", len(bases))

    def _preload_blocks(self) -> None:
        """The block-level preload in Python: one master copy per block,
        at its home node when its AM set has room, else spread to the
        nearest node with a free way.  Runs on demand, from
        :meth:`materialize_image`; compiled runs do the same in C."""
        engine = self.engine
        for am in engine.ams:
            am._sets = [{} for _ in range(am.sets)]
        lookups = []
        for directory in engine.directories:
            directory._entries = {}
            lookups.append(directory.lookups)
        preload_block = engine.preload_block
        offsets = range(0, self.params.page_size, self.params.am_block)
        for base in self.page_bases:
            for offset in offsets:
                preload_block(base + offset)
        # _preload has counted these lookups already.
        for directory, count in zip(engine.directories, lookups):
            directory.lookups = count

    # ------------------------------------------------------------------
    # the machine image (AM/cache sets, directory entries, TLB tags)
    # ------------------------------------------------------------------
    def defer_image(self, load: Callable[[], None], containers) -> None:
        """Leave the image unbuilt until first read: every ``(owner,
        attr)`` in ``containers`` gets a :class:`PendingImage`, and
        :meth:`materialize_image` will call ``load`` to build them."""
        self._pending_image = load
        self.preload_pending = False
        materialize = self.materialize_image
        for owner, attr in containers:
            setattr(owner, attr, PendingImage(owner, attr, materialize))

    def materialize_image(self) -> None:
        """Build the pending Python machine image, if any: run the
        block preload on a machine that never ran, or decode the image
        a compiled run left behind.  Idempotent and cheap once built.
        The scalar engine, the paging extensions and the deep-state
        oracles call it; other readers reach it through the
        :class:`PendingImage` stand-ins."""
        load, self._pending_image = self._pending_image, None
        self.preload_pending = False
        if load is not None:
            load()

    # ------------------------------------------------------------------
    def _inclusion_hook(self, node: int, proto_block: int, action: str) -> None:
        self.nodes[node].on_inclusion(proto_block, action)

    # ------------------------------------------------------------------
    def node_stream(self, node: int):
        """The workload's reference stream for one node."""
        return self.workload.node_stream(node, self.ctx)

    def lock_home(self, lock_addr: int) -> int:
        return self.layout.home_node(lock_addr)

    def merged_counters(self) -> Counters:
        merged = self.counters.merge(self.engine.counters).merge(self.crossbar.counters)
        for node in self.nodes:
            merged = merged.merge(node.counters)
        # Surface the timing agent's translation statistics as counters
        # (derived here, not maintained on the hot path).  For V-COMA the
        # structure is the home-directory DLB, otherwise a per-node TLB;
        # with tracing on, ``dlb_hit + dlb_fill`` events reconcile
        # exactly with ``dlb_accesses`` (and fills with misses).
        agent = self.agent
        accesses = getattr(agent, "total_accesses", None)
        if accesses is not None:
            prefix = "dlb" if self.scheme is Scheme.V_COMA else "tlb"
            merged[f"{prefix}_accesses"] = accesses
            merged[f"{prefix}_misses"] = agent.total_misses
        return merged

    def __repr__(self) -> str:
        return (
            f"Machine({self.scheme.value}, {self.workload.name}, "
            f"{self.params.nodes} nodes)"
        )
