"""Unit tests for bank replay over recorded page streams.

The replay contract is *bit-identical miss counts and RNG end states*
with the scalar :class:`~repro.core.tlb.TranslationBuffer` — same RNG
substreams, same rejection-sampling victim draws — for every
organization, on the compiled ``fs_bank_run`` kernel and on the scalar
path.  Every test here checks replay against a real buffer fed the
same stream.
"""

import random
from array import array

import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import make_rng
from repro.core import replay
from repro.core.replay import bank_miss_counts
from repro.core.timing_kernels import NO_COMPILED_ENV, backend_status, get_backend
from repro.core.tlb import Organization, TranslationBank, TranslationBuffer

ORGS = (
    Organization.FULLY_ASSOCIATIVE,
    Organization.SET_ASSOCIATIVE,
    Organization.DIRECT_MAPPED,
)


def reference_buffer(pages, entries, org, seed=7, name="bank"):
    """A real buffer fed the stream: the reference miss count and RNG."""
    assoc = None
    if org is Organization.SET_ASSOCIATIVE:
        assoc = min(TranslationBank.SET_ASSOC_WAYS, entries)
    rng = make_rng(seed, name, entries, org.value)
    buffer = TranslationBuffer(entries, org, assoc=assoc, rng=rng)
    for page in pages:
        buffer.access(page)
    return buffer


def scalar_misses(pages, entries, org, seed=7, name="bank"):
    return reference_buffer(pages, entries, org, seed, name).misses


def replay_misses(pages, entries, org, seed=7, name="bank"):
    rng = make_rng(seed, name, entries, org.value)
    return replay.replay_misses(pages, entries, org, rng)


def streams():
    """A spread of access patterns exercising every kernel branch."""
    rnd = random.Random(42)
    return {
        "empty": [],
        "single": [5],
        "all-same": [3] * 500,
        "all-distinct": list(range(400)),
        "cyclic": [p % 40 for p in range(600)],
        "skewed": [rnd.randrange(12) for _ in range(800)],
        "wide-random": [rnd.randrange(5000) for _ in range(1200)],
        "phase-shift": [p % 16 for p in range(400)]
        + [200 + (p % 300) for p in range(600)],
        "huge-pages": [rnd.randrange(1 << 40) for _ in range(300)],
    }


class TestKernelEquivalence:
    @pytest.mark.parametrize("org", ORGS, ids=lambda o: o.value)
    @pytest.mark.parametrize("entries", (1, 2, 8, 32, 128))
    def test_matches_scalar_buffer(self, org, entries):
        for label, pages in streams().items():
            fast = replay_misses(pages, entries, org)
            slow = scalar_misses(pages, entries, org)
            assert fast == slow, (label, org.value, entries)

    def test_stream_reuse_across_configs(self):
        """One column replays many configs without cross-talk."""
        pages = array("I", streams()["phase-shift"])
        configs = [(entries, org) for org in ORGS for entries in (8, 32)]
        counts = bank_miss_counts(pages, configs, seed=7, name="bank")
        for entries, org in configs:
            assert counts[(entries, org)] == scalar_misses(pages, entries, org)

    def test_matches_translation_bank(self):
        """End-to-end: bank_miss_counts vs a live TranslationBank."""
        pages = streams()["skewed"]
        configs = [(8, Organization.FULLY_ASSOCIATIVE),
                   (8, Organization.DIRECT_MAPPED),
                   (32, Organization.SET_ASSOCIATIVE)]
        bank = TranslationBank(configs, seed=11, name="l1:0")
        for page in pages:
            bank.access(page)
        fast = bank_miss_counts(pages, configs, seed=11, name="l1:0")
        for entries, org in configs:
            assert fast[(entries, org)] == bank.misses(entries, org)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            replay_misses([1, 2, 3], 12, Organization.FULLY_ASSOCIATIVE)


#: Trace-column layouts ``fs_bank_run`` reads (4- and 8-byte unsigned
#: columns in place, anything else after one conversion).
COLUMNS = {
    "I": lambda pages: array("I", pages),
    "Q-wide": lambda pages: array("Q", [page + (5 << 32) for page in pages]),
    "list": list,
}


class TestCompiledVsScalar:
    """The compiled bank kernel and the scalar path, each against a
    live TranslationBuffer: equal miss counts and RNG end states."""

    @pytest.fixture(params=["compiled", "scalar"])
    def engine(self, request, monkeypatch):
        if request.param == "compiled":
            if get_backend() is None:
                pytest.skip(f"compiled backend unavailable: {backend_status()}")
        else:
            monkeypatch.setenv(NO_COMPILED_ENV, "1")
        return request.param

    @pytest.mark.parametrize("column", sorted(COLUMNS))
    @pytest.mark.parametrize("org", ORGS, ids=lambda o: o.value)
    @pytest.mark.parametrize("entries", (1, 8, 64))
    def test_matches_buffer_and_rng(self, engine, column, org, entries):
        base = [p % 300 for p in streams()["wide-random"]]
        pages = COLUMNS[column](base)
        rng = make_rng(7, "bank", entries, org.value)
        misses = replay.replay_misses(pages, entries, org, rng)
        reference = reference_buffer(list(pages), entries, org)
        assert misses == reference.misses
        assert rng.getstate() == reference._rng.getstate()

    def test_env_forces_scalar(self, monkeypatch):
        monkeypatch.setenv(NO_COMPILED_ENV, "1")
        calls = []
        monkeypatch.setattr(replay, "_scalar_misses", lambda *args: calls.append(args) or 0)
        replay.replay_misses([1, 2, 3], 8, Organization.FULLY_ASSOCIATIVE, make_rng(7, "bank"))
        assert len(calls) == 1

    def test_recorded_columns_read_in_place(self):
        """'I' and 'Q' columns reach fs_bank_run without a copy."""
        for typecode, width in (("I", 4), ("Q", 8)):
            pages = array(typecode, range(100))
            column, got_width = replay._page_column(pages)
            assert column is pages and got_width == width
        column, width = replay._page_column([3, 1 << 40])
        assert (column.typecode, width, list(column)) == ("Q", 8, [3, 1 << 40])


class TestBankMissCounts:
    def test_duplicate_configs_computed_once(self):
        pages = streams()["cyclic"]
        configs = [(8, Organization.FULLY_ASSOCIATIVE)] * 3
        counts = bank_miss_counts(pages, configs, seed=7, name="bank")
        assert len(counts) == 1
        assert counts[(8, Organization.FULLY_ASSOCIATIVE)] == scalar_misses(pages, 8, Organization.FULLY_ASSOCIATIVE)

    def test_empty_stream(self):
        counts = bank_miss_counts(
            [], [(8, Organization.FULLY_ASSOCIATIVE)], seed=7, name="bank"
        )
        assert counts == {(8, Organization.FULLY_ASSOCIATIVE): 0}
