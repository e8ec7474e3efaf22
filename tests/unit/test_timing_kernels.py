"""Unit tests for the columnar timing-kernel helpers.

Epoch boundaries are the contract between the Python sync driver and
the compiled engine, which slices each node's columns into epochs
itself: ``max_refs_per_node`` truncation must land on exactly the
reference the scalar simulator would have stopped at, and a sync op
sitting exactly at the truncation point must NOT be executed (the
scalar loop checks ``refs_done`` before consuming the sync).  Getting
any of these boundaries wrong shifts every downstream barrier/lock
interaction, so each one runs here on both engines, independent of the
heavyweight differential suite.
"""

import array
import random

import pytest

from repro import CustomWorkload, MachineParams, Scheme, SegmentSpec, Simulator
from repro.core.timing_kernels import (
    RNG_STATE_WORDS,
    backend_status,
    get_backend,
    load_rng_state,
    materialize_stream,
    rng_state_words,
)
from repro.runner.summary import RunSummary
from repro.system.machine import Machine
from repro.system.refs import BARRIER, LOCK, READ, UNLOCK, WRITE

R, W, B, L, U = READ, WRITE, BARRIER, LOCK, UNLOCK

needs_backend = pytest.mark.skipif(
    get_backend() is None, reason=f"compiled backend unavailable: {backend_status()}"
)


def _node0_machine(ops):
    """A 4-node machine where node 0 runs ``ops`` and the rest are idle
    (a finished node satisfies every barrier).  References touch
    distinct blocks, barriers count up, locks use word 0."""
    params = MachineParams.scaled_down(factor=64, nodes=4, page_size=256)
    stream = []
    for i, op in enumerate(ops):
        if op in (R, W):
            stream.append((op, 64 * i))
        elif op == B:
            stream.append((op, sum(o == B for o in ops[:i])))
        else:
            stream.append((op, 0))

    def factory(node, ctx):
        base = ctx.segment("data").base
        for op, value in stream if node == 0 else ():
            yield op, value + base if op != B else value

    workload = CustomWorkload(
        [SegmentSpec("data", 32 * params.page_size)], factory, name="epochs"
    )
    return Machine(params, Scheme.V_COMA, workload)


def run_epochs(ops, max_refs=None, stream_key=None):
    """Run node 0's ``ops`` on the compiled engine and the scalar
    oracle; assert identical summaries and return the compiled run's
    ``(references done by node 0, barriers passed)``."""
    fast = Simulator(
        _node0_machine(ops), max_refs_per_node=max_refs, stream_key=stream_key
    ).run()
    scalar = Simulator(_node0_machine(ops), max_refs_per_node=max_refs, fast=False).run()
    assert fast.backend == "compiled"
    fast_summary = RunSummary.from_result(fast).to_dict()
    scalar_summary = RunSummary.from_result(scalar).to_dict()
    for summary in (fast_summary, scalar_summary):
        summary.pop("backend")
        summary.pop("fallback_reason")
    assert fast_summary == scalar_summary
    return fast.refs_per_node[0], fast.barriers


@needs_backend
class TestEpochSpans:
    def test_no_syncs(self):
        assert run_epochs([R, W, R]) == (3, 0)

    def test_empty_stream(self):
        assert run_epochs([]) == (0, 0)

    def test_sync_at_start(self):
        assert run_epochs([B, R, R]) == (2, 1)

    def test_sync_at_end(self):
        assert run_epochs([R, R, B]) == (2, 1)

    def test_adjacent_syncs(self):
        assert run_epochs([R, B, L, W, U]) == (2, 1)

    def test_truncation_before_first_sync(self):
        assert run_epochs([R, R, R, B, R], max_refs=2) == (2, 0)

    def test_truncation_exactly_at_sync(self):
        # 2 refs then a barrier: with max_refs=2 the barrier is NOT
        # executed — the scalar loop finishes the node before consuming
        # the sync op.
        assert run_epochs([R, W, B, R], max_refs=2) == (2, 0)

    def test_truncation_spanning_epochs(self):
        # 1 ref, barrier, then the cut lands inside the second epoch.
        assert run_epochs([R, B, W, W, W], max_refs=2) == (2, 1)

    def test_truncation_exactly_at_stream_end(self):
        # max_refs equals the total reference count: the node finishes
        # naturally.
        assert run_epochs([R, W, R], max_refs=3) == (3, 0)

    def test_truncation_exactly_at_stream_end_after_sync(self):
        assert run_epochs([R, B, W], max_refs=2) == (2, 1)

    def test_truncation_one_past_stream_end(self):
        assert run_epochs([R, W], max_refs=5) == (2, 0)

    def test_max_refs_zero(self):
        assert run_epochs([R, W], max_refs=0) == (0, 0)

    def test_spans_partition_the_stream(self):
        ops = [R, W, B, R, L, W, U, R, R, B, W]
        assert run_epochs(ops) == (7, 2)

    def test_columnar_input(self):
        # A shared stream key serves the second run its columns from
        # the stream cache instead of draining the generator again.
        ops = [R, B, W]
        assert run_epochs(ops, stream_key="epochs-columnar") == (2, 1)
        assert run_epochs(ops, stream_key="epochs-columnar") == (2, 1)


class TestMaterializeStream:
    def test_columns(self):
        ops, vals = materialize_stream([(R, 4096), (W, -1), (B, 3)])
        assert list(ops) == [R, W, B]
        assert list(vals) == [4096, -1, 3]
        # Both columns must expose the buffer protocol for ffi.from_buffer.
        assert (ops.typecode, vals.typecode) == ("B", "q")
        assert memoryview(ops).itemsize == 1
        assert memoryview(vals).itemsize == 8

    def test_empty(self):
        ops, vals = materialize_stream(iter(()))
        assert len(ops) == 0 and len(vals) == 0



class TestRngMarshalling:
    def test_round_trip_preserves_sequence(self):
        rng = random.Random(1234)
        rng.random()  # advance off the seed point
        words = rng_state_words(rng)
        assert len(words) == RNG_STATE_WORDS
        expected = [rng.getrandbits(32) for _ in range(10)]
        fresh = random.Random()
        load_rng_state(fresh, words)
        assert [fresh.getrandbits(32) for _ in range(10)] == expected

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            load_rng_state(random.Random(), array.array("I", [0] * 10))

    def test_rejects_pending_gauss(self):
        rng = random.Random(5)
        rng.gauss(0, 1)  # leaves a cached second variate in the state
        with pytest.raises(ValueError):
            rng_state_words(rng)



@needs_backend
class TestCompiledMersenneTwister:
    """The C engine must continue the exact CPython draw sequence."""

    def test_genrand_matches_cpython(self):
        backend = get_backend()
        rng = random.Random(98_08)  # the paper's tech-report number
        words = rng_state_words(rng)
        n = 1000
        out = backend.ffi.new("uint32_t[]", n)
        state = backend.ffi.from_buffer("uint32_t[]", words)
        backend.lib.fs_rng_selftest(state, out, n)
        assert list(out) == [rng.getrandbits(32) for _ in range(n)]

    def test_shuffle_matches_cpython(self):
        backend = get_backend()
        for seed in (0, 1, 42):
            rng = random.Random(seed)
            words = rng_state_words(rng)
            n = 97
            arr = backend.ffi.new("int32_t[]", list(range(n)))
            state = backend.ffi.from_buffer("uint32_t[]", words)
            backend.lib.fs_shuffle_selftest(state, arr, n)
            expected = list(range(n))
            rng.shuffle(expected)
            assert list(arr) == expected
