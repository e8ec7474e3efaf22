"""TLB/DLB bank replay over recorded page-number streams.

Miss-count experiments (paper Figures 8/9, Tables 2/3) are decoupled:
translation state never feeds back into the cache hierarchy, so a
recorded tap stream can drive translation buffers of *every* size and
organization after the fact.  This module is the replay half of that
pipeline: given one page-number stream, compute the miss count of each
``(entries, organization)`` design point **bit-identically** to feeding
the same stream through :class:`~repro.core.tlb.TranslationBuffer`.

Two paths, the same two tiers as every other engine in the package:

* **compiled** — one ``fs_bank_run`` call per design point: the
  compiled sweep engine's bank kernel, with the buffer's Mersenne
  Twister state handed over and back so every victim draw matches.
  Recorded trace columns (4-byte ``'I'`` or 8-byte ``'Q'``
  ``array.array``s) are read in place, with no per-element conversion.
* **scalar** — feeds a real :class:`TranslationBuffer`.  Used when the
  compiled backend is unavailable or ``REPRO_NO_COMPILED`` is set;
  identical by construction.

Both paths yield the same miss counts and leave the RNG in the same
state, asserted by ``tests/unit/test_replay.py`` and the integration
equivalence suite.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import make_rng
from repro.core import timing_kernels as tk
from repro.core.tlb import Organization, TranslationBank, TranslationBuffer

_numpy_module = None  # unresolved


def get_numpy():
    """The numpy module, or None when it is not installed.

    No engine uses numpy; only the ``perfbench`` benchmark calls this,
    during its set-up, and it is kept for that caller alone.
    """
    global _numpy_module
    if _numpy_module is None:
        try:
            import numpy
            _numpy_module = numpy
        except ImportError:
            _numpy_module = False
    return _numpy_module or None


def _buffer_geometry(entries: int, organization: Organization) -> Tuple[int, int]:
    """(assoc, sets) for one bank member, mirroring TranslationBank."""
    if entries <= 0 or entries & (entries - 1):
        raise ConfigurationError(f"entries={entries} must be a positive power of two")
    if organization is Organization.FULLY_ASSOCIATIVE:
        assoc = entries
    elif organization is Organization.DIRECT_MAPPED:
        assoc = 1
    else:
        assoc = min(TranslationBank.SET_ASSOC_WAYS, entries)
    return assoc, entries // assoc


def _page_column(pages: Sequence[int]):
    """``pages`` as an unsigned 4- or 8-byte ``array`` plus its item width.

    Unsigned ``array`` columns of those widths (recorded trace columns
    are ``'I'`` or ``'Q'``) pass through untouched; anything else is
    copied once into a ``'Q'`` column.
    """
    if isinstance(pages, array) and pages.typecode in "ILQ" and pages.itemsize in (4, 8):
        return pages, pages.itemsize
    column = array("Q", pages)
    return column, column.itemsize


def replay_misses(
    pages: Sequence[int], entries: int, organization: Organization, rng
) -> int:
    """Miss count for one design point, bit-identical to a
    :class:`TranslationBuffer` built with ``rng`` and fed ``pages``;
    ``rng`` is left in the state that buffer's RNG would end in."""
    assoc, sets = _buffer_geometry(entries, organization)
    if not len(pages):
        return 0
    compiled = tk.get_backend()
    if compiled is None:
        return _scalar_misses(pages, entries, organization, assoc, rng)
    ffi, lib = compiled.ffi, compiled.lib
    column, width = _page_column(pages)
    rng_words = tk.rng_state_words(rng)
    count = int(
        lib.fs_bank_run(
            entries,
            sets,
            assoc,
            ffi.from_buffer("uint32_t[]", rng_words),
            ffi.from_buffer(column),
            width,
            len(column),
            ffi.new("int64_t[]", sets * assoc),
            ffi.new("int32_t[]", sets),
        )
    )
    if count < 0:
        raise MemoryError("compiled bank replay: allocation failed")
    tk.load_rng_state(rng, rng_words)
    return count


def _scalar_misses(
    pages: Sequence[int],
    entries: int,
    organization: Organization,
    assoc: int,
    rng,
) -> int:
    """Pure-Python reference path: a real TranslationBuffer."""
    buffer = TranslationBuffer(
        entries,
        organization,
        assoc=assoc if organization is Organization.SET_ASSOCIATIVE else None,
        rng=rng,
    )
    access = buffer.access
    for page in pages:
        access(page)
    return buffer.misses


def bank_miss_counts(
    pages: Sequence[int],
    configs: Iterable[Tuple[int, Organization]],
    seed: int,
    name: str,
) -> Dict[Tuple[int, Organization], int]:
    """Replay one stream through a whole bank of design points.

    ``seed``/``name`` address the same RNG substreams a
    :class:`TranslationBank` constructed with ``(seed, name)`` would
    give its member buffers, so the result equals
    ``TranslationBank(configs, seed, name)`` fed ``pages`` one by one.
    """
    pages, _ = _page_column(pages)  # at most one copy, shared by every config
    counts: Dict[Tuple[int, Organization], int] = {}
    for entries, organization in configs:
        key = (entries, organization)
        if key in counts:
            continue
        rng = make_rng(seed, name, entries, organization.value)
        counts[key] = replay_misses(pages, entries, organization, rng)
    return counts
