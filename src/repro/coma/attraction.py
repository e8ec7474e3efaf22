"""One node's attraction memory.

A set-associative store of coherence-stated blocks at attraction-memory
block granularity.  Depending on the scheme the index/tag address is
physical (L0/L1/L2-TLB) or virtual (L3-TLB, V-COMA) — the structure is
identical; only the addresses fed to it differ (and with page coloring
they select the same sets, paper Figure 4).

Replacement prefers, in order: an Invalid slot, the LRU ``Shared``
replica (droppable), then the LRU master (which the protocol must
inject).  Preferring replicas over masters keeps injection traffic down
and is the standard COMA policy.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.common.address import AddressLayout
from repro.common.errors import ConfigurationError, ProtocolError
from repro.coma.states import AMState


class AMVictim(NamedTuple):
    """A block chosen for replacement, with its state."""

    block: int
    state: AMState


class AttractionMemory:
    """Set-associative attraction memory of one node (tags + states)."""

    def __init__(self, layout: AddressLayout, assoc: int, node: int = 0) -> None:
        if assoc <= 0:
            raise ConfigurationError("attraction memory associativity must be positive")
        self.layout = layout
        self.assoc = assoc
        self.node = node
        self.sets = layout.am_sets
        # _sets[i]: block base -> AMState, LRU order (oldest first).
        self._sets: List[Dict[int, AMState]] = [{} for _ in range(self.sets)]
        # The layout's block/set arithmetic, pre-resolved: lookup() runs
        # several times per simulated reference.
        self._block_shift = layout.block_bits
        self._block_mask = ~((1 << layout.block_bits) - 1)
        self._set_mask = layout.am_sets - 1
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def _set_for(self, addr: int) -> Dict[int, AMState]:
        return self._sets[(addr >> self._block_shift) & self._set_mask]

    def block_base(self, addr: int) -> int:
        return self.layout.block_base(addr)

    # ------------------------------------------------------------------
    def lookup(self, addr: int, touch: bool = True) -> AMState:
        """Probe the block holding ``addr``; counts a hit or miss and
        (on hit) refreshes LRU order.  Returns INVALID on a miss."""
        block = addr & self._block_mask
        am_set = self._sets[(addr >> self._block_shift) & self._set_mask]
        state = am_set.get(block)
        if state is None or state is AMState.INVALID:
            self.misses += 1
            return AMState.INVALID
        self.hits += 1
        if touch:
            am_set[block] = am_set.pop(block)
        return state

    def state_of(self, addr: int) -> AMState:
        """State without statistics or LRU side effects."""
        return self._set_for(addr).get(self.layout.block_base(addr), AMState.INVALID)

    def contains(self, addr: int) -> bool:
        return self.state_of(addr) is not AMState.INVALID

    def set_state(self, addr: int, state: AMState) -> None:
        block = self.layout.block_base(addr)
        am_set = self._set_for(addr)
        if block not in am_set:
            raise ProtocolError(
                f"node {self.node}: set_state({state.name}) on absent block {block:#x}"
            )
        if state is AMState.INVALID:
            del am_set[block]
        else:
            am_set[block] = state

    # ------------------------------------------------------------------
    def free_ways(self, addr: int) -> int:
        """Unoccupied ways in the set ``addr`` maps to."""
        return self.assoc - len(self._set_for(addr))

    def has_invalid_slot(self, addr: int) -> bool:
        """Can an injection be accepted with no victim at all?"""
        return self.free_ways(addr) > 0

    def droppable_victim(self, addr: int) -> Optional[AMVictim]:
        """The LRU ``Shared`` replica of the set (injections at non-home
        nodes may displace one of these), or None."""
        for block, state in self._set_for(addr).items():
            if state is AMState.SHARED:
                return AMVictim(block, state)
        return None

    def choose_victim(self, addr: int) -> Optional[AMVictim]:
        """Victim for a demand fill: None if a free way exists, else the
        LRU Shared replica, else the LRU master."""
        am_set = self._set_for(addr)
        if len(am_set) < self.assoc:
            return None
        shared = self.droppable_victim(addr)
        if shared is not None:
            return shared
        block, state = next(iter(am_set.items()))
        return AMVictim(block, state)

    # ------------------------------------------------------------------
    def install(self, addr: int, state: AMState) -> None:
        """Fill a block; the caller must have made room first (the
        protocol handles victims so it can inject masters)."""
        if state is AMState.INVALID:
            raise ProtocolError("cannot install an INVALID block")
        block = self.layout.block_base(addr)
        am_set = self._set_for(addr)
        if block in am_set:
            am_set.pop(block)
        elif len(am_set) >= self.assoc:
            raise ProtocolError(
                f"node {self.node}: install {block:#x} into full set "
                f"(victim not evicted first)"
            )
        am_set[block] = state

    def evict(self, addr: int) -> AMVictim:
        """Remove a block (replacement path); raises if absent."""
        block = self.layout.block_base(addr)
        am_set = self._set_for(addr)
        state = am_set.pop(block, None)
        if state is None:
            raise ProtocolError(f"node {self.node}: evict absent block {block:#x}")
        return AMVictim(block, state)

    def invalidate(self, addr: int) -> Optional[AMVictim]:
        """Remove a block if present (coherence invalidation path)."""
        block = self.layout.block_base(addr)
        state = self._set_for(addr).pop(block, None)
        return None if state is None else AMVictim(block, state)

    # ------------------------------------------------------------------
    def resident_blocks(self) -> Iterator[Tuple[int, AMState]]:
        for am_set in self._sets:
            yield from am_set.items()

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def set_occupancy(self, set_index: int) -> int:
        return len(self._sets[set_index])

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:
        return (
            f"AttractionMemory(node={self.node}, sets={self.sets}, "
            f"assoc={self.assoc}, occupancy={self.occupancy()})"
        )
