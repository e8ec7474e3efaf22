"""Record/replay must be bit-identical to the coupled scalar sweep.

The pipeline's whole claim is that miss counts are *exactly* those of a
:class:`~repro.system.taps.StudyAgent` run — not statistically close.
This suite runs the scalar reference path and the record/replay path on
the same specs and compares every number: per-scheme (all five of the
paper's translation schemes, via their tap points), per-organization,
per-size, plus the hierarchy-side summary the study rides on.  Both
engines are covered: the suite runs once on the compiled engine (when
it loads) and once with ``REPRO_NO_COMPILED`` forcing the scalar path.
"""

import pytest

from repro import MachineParams
from repro.core.schemes import SCHEME_ORDER, TAP_OF_SCHEME
from repro.core.timing_kernels import NO_COMPILED_ENV, get_backend
from repro.core.tlb import Organization
from repro.runner import JobSpec, TraceStore

WORKLOADS = ("radix", "ocean")
SIZES = (8, 32, 128)
ORGS = (
    Organization.FULLY_ASSOCIATIVE,
    Organization.SET_ASSOCIATIVE,
    Organization.DIRECT_MAPPED,
)


def surface(summary):
    """Everything simulated — the engine-provenance stamps are allowed
    (expected, even) to differ between the replay and scalar paths."""
    data = summary.to_dict()
    data.pop("backend", None)
    data.pop("fallback_reason", None)
    return data


@pytest.fixture(scope="module")
def params():
    return MachineParams.scaled_down(factor=256, nodes=2, page_size=256)


def make_spec(params, workload):
    return JobSpec.sweep(
        params,
        workload,
        sizes=SIZES,
        orgs=ORGS,
        max_refs_per_node=400,
        overrides={"intensity": 0.2},
    )


@pytest.fixture(scope="module")
def scalar_summaries(params):
    """The coupled reference runs, shared across every test."""
    return {
        workload: make_spec(params, workload).execute(replay=False)
        for workload in WORKLOADS
    }


@pytest.fixture(
    scope="module",
    params=["compiled", "scalar"],
    ids=["comp", "no-comp"],
)
def replay_summaries(request, params):
    """The replay runs (capture + bank replay), once per engine."""
    if request.param == "compiled" and get_backend() is None:
        pytest.skip("compiled backend unavailable in this environment")
    monkeypatch = pytest.MonkeyPatch()
    if request.param == "scalar":
        monkeypatch.setenv(NO_COMPILED_ENV, "1")
    try:
        return {
            workload: make_spec(params, workload).execute(replay=True)
            for workload in WORKLOADS
        }
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("workload", WORKLOADS)
class TestBitIdentical:
    def test_study_surface_identical(self, workload, scalar_summaries, replay_summaries):
        scalar = scalar_summaries[workload].study_results()
        replayed = replay_summaries[workload].study_results()
        assert replayed.to_dict() == scalar.to_dict()

    def test_every_scheme_every_design_point(
        self, workload, scalar_summaries, replay_summaries
    ):
        """All five paper schemes, every size × organization."""
        scalar = scalar_summaries[workload].study_results()
        replayed = replay_summaries[workload].study_results()
        for scheme in SCHEME_ORDER:
            tap = TAP_OF_SCHEME[scheme]
            for size in SIZES:
                for org in ORGS:
                    assert replayed.misses(tap, size, org) == scalar.misses(
                        tap, size, org
                    ), (scheme.value, size, org.value)
                    assert replayed.miss_rate(tap, size, org) == scalar.miss_rate(
                        tap, size, org
                    )

    def test_hierarchy_summary_identical(
        self, workload, scalar_summaries, replay_summaries
    ):
        """Time breakdowns/counters come from the recorded run and must
        equal the scalar run's (the capture agent never perturbs)."""
        assert surface(replay_summaries[workload]) == surface(
            scalar_summaries[workload]
        )


class TestThroughTraceStore:
    def test_disk_round_trip_preserves_equivalence(
        self, tmp_path, params, scalar_summaries
    ):
        """Record to disk, reload, replay: still bit-identical."""
        store = TraceStore(root=tmp_path)
        spec = make_spec(params, "radix")
        recorded = spec.execute(trace_store=store, replay=True)
        assert store.misses == 1 and len(store) == 1
        reloaded = spec.execute(trace_store=store, replay=True)
        assert store.hits == 1
        assert surface(recorded) == surface(scalar_summaries["radix"])
        assert surface(reloaded) == surface(scalar_summaries["radix"])

    def test_one_trace_serves_many_bank_grids(self, tmp_path, params):
        """Different sizes/orgs reuse the recording and still match."""
        store = TraceStore(root=tmp_path)
        first = JobSpec.sweep(
            params, "radix", sizes=(8, 32), max_refs_per_node=400,
            overrides={"intensity": 0.2},
        )
        second = JobSpec.sweep(
            params, "radix", sizes=(16, 64, 256),
            orgs=(Organization.SET_ASSOCIATIVE, Organization.DIRECT_MAPPED),
            max_refs_per_node=400, overrides={"intensity": 0.2},
        )
        first.execute(trace_store=store, replay=True)
        fast = second.execute(trace_store=store, replay=True)
        assert store.hits == 1 and len(store) == 1, "second grid must reuse the trace"
        slow = second.execute(replay=False)
        assert surface(fast) == surface(slow)
