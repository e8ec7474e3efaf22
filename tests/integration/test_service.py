"""End-to-end tests of the simulation service tier.

The acceptance scenarios for ``repro serve``: a grid POSTed over HTTP
comes back bit-identical to a direct :class:`BatchRunner` run of the
same specs; N concurrent identical submissions execute exactly one
job (request coalescing, observable through
``repro_coalesced_requests_total`` *and* the manifest); distinct specs
never coalesce; and warm specs answer straight from the result cache
without touching the executor.

Every test runs a real server (private event loop on a background
thread, real sockets on an ephemeral port) against the per-test cache
root the autouse conftest fixture provides.
"""

import json
import threading

import pytest

from repro import MachineParams, Scheme
from repro.obs.runtime import counter_value
from repro.runner import BatchRunner, JobSpec
from repro.service import ServiceClient, ServiceThread, SimulationService


@pytest.fixture(scope="module")
def params():
    return MachineParams.scaled_down(factor=256, nodes=2, page_size=256)


@pytest.fixture(scope="module")
def grid(params):
    """Four cheap timing jobs: 2 workloads x 2 entry counts."""
    return [
        JobSpec.timing(
            params,
            Scheme.V_COMA,
            name,
            entries,
            max_refs_per_node=300,
            overrides={"intensity": 0.2},
        )
        for name in ("fft", "radix")
        for entries in (8, 32)
    ]


@pytest.fixture(scope="module")
def baseline(grid):
    """Direct runner results, JSON-normalized like the HTTP payload."""
    jobs = BatchRunner(jobs=1).run(grid)
    return [json.loads(json.dumps(job.summary.to_dict())) for job in jobs]


@pytest.fixture
def service():
    """A live in-process server; cache root comes from the isolated
    ``REPRO_CACHE_DIR`` the conftest fixture points at tmp_path."""
    svc = SimulationService()
    thread = ServiceThread(svc)
    host, port = thread.start()
    yield svc, ServiceClient(host, port)
    thread.stop()


def test_jobspec_json_round_trip_preserves_identity(params):
    """`from_dict(key())` must reproduce the content hash — the whole
    submission format rests on this."""
    specs = [
        JobSpec.timing(params, Scheme.L0_TLB, "ocean", 128,
                       max_refs_per_node=300, overrides={"intensity": 0.3}),
        JobSpec.sweep(params, "radix", sizes=(8, 32),
                      max_refs_per_node=200),
    ]
    for spec in specs:
        wire = json.loads(json.dumps(spec.key()))
        assert JobSpec.from_dict(wire).content_hash() == spec.content_hash()


class TestEndToEnd:
    def test_submit_poll_fetch_bit_identical(self, service, grid, baseline):
        svc, client = service
        info = client.submit(grid)
        assert info["specs"] == len(grid) and not info["coalesced"]
        final = client.wait(info["run"], timeout=180)
        assert final["state"] == "done"
        assert final["sources"] == {"cache": 0, "coalesced": 0,
                                    "executed": len(grid)}
        payload = client.results(info["run"])
        assert [entry["summary"] for entry in payload["results"]] == baseline
        assert all(entry["source"] == "executed"
                   for entry in payload["results"])

    def test_warm_specs_serve_from_cache(self, service, grid, baseline):
        svc, client = service
        first = client.run(grid, timeout=180)
        assert first["state"] == "done"
        # Clear the submission table: the repeat POST must be satisfied
        # by the ResultCache ladder rung, not grid-identity replay.
        svc.submissions.clear()
        before = counter_value("repro_service_simulations_total")
        info = client.submit(grid)
        assert info["state"] == "done", "warm grid must finish synchronously"
        payload = client.results(info["run"])
        assert [entry["summary"] for entry in payload["results"]] == baseline
        assert all(entry["source"] == "cache" for entry in payload["results"])
        assert counter_value("repro_service_simulations_total") == before

    def test_status_exposes_manifest_heartbeats(self, service, grid):
        svc, client = service
        final = client.wait(client.submit(grid)["run"], timeout=180)
        manifest = final["manifest"]
        assert manifest["counts"]["ok"] == len(grid)
        assert manifest["pending"] == 0
        # Heartbeats carried the worker count the ETA divides by.
        assert manifest["workers"] == final["effective_jobs"] == 1

    def test_http_error_surface(self, service):
        svc, client = service
        status, body = client.request("GET", "/runs/nonexistent/status")
        assert status == 404
        status, body = client.request("POST", "/runs", {"specs": []})
        assert status == 400
        status, body = client.request("POST", "/runs",
                                      {"specs": [{"kind": "bogus"}]})
        assert status == 400 and "invalid job spec" in body["error"]
        status, body = client.request("GET", "/nope")
        assert status == 404
        assert client.healthz()["ok"] is True
        assert "repro_service_requests_total" in client.metrics()


def test_resubmitted_run_outlives_pruning(grid):
    """Pruning goes by last request: a grid POSTed again is the newest
    submission, so the run id just handed back still answers while an
    older, unrequested run is evicted instead."""
    svc = SimulationService(max_submissions=2)
    thread = ServiceThread(svc)
    client = ServiceClient(*thread.start())
    try:
        hot, cold, new = ([spec] for spec in grid[:3])
        hot_id = client.submit(hot)["run"]
        client.wait(hot_id, timeout=180)
        cold_id = client.submit(cold)["run"]
        client.wait(cold_id, timeout=180)
        assert client.submit(hot)["run"] == hot_id
        client.wait(client.submit(new)["run"], timeout=180)
        assert hot_id in svc.submissions and cold_id not in svc.submissions
        assert len(client.results(hot_id)["results"]) == 1
    finally:
        thread.stop()


class TestRequestCoalescing:
    def _concurrent_submits(self, client, specs, count):
        """POST the same grid from ``count`` threads at once."""
        barrier = threading.Barrier(count)
        infos, errors = [None] * count, []

        def post(slot):
            try:
                barrier.wait(timeout=10)
                infos[slot] = client.submit(specs)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=post, args=(slot,))
                   for slot in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        return infos

    def test_identical_submissions_execute_exactly_one_job(
        self, params, baseline, grid
    ):
        svc = SimulationService(execute_delay=1.0)
        thread = ServiceThread(svc)
        host, port = thread.start()
        client = ServiceClient(host, port)
        try:
            spec = grid[0]
            requests_before = counter_value("repro_coalesced_requests_total")
            sims_before = counter_value("repro_service_simulations_total")
            infos = self._concurrent_submits(client, [spec], count=6)
            # Every thread landed on the same run...
            assert len({info["run"] for info in infos}) == 1
            run_id = infos[0]["run"]
            final = client.wait(run_id, timeout=180)
            assert final["state"] == "done"
            assert final["requests"] == 6
            # ...the coalescing metric counted the five followers...
            assert (counter_value("repro_coalesced_requests_total")
                    - requests_before) == 5
            # ...exactly one simulation ran...
            assert (counter_value("repro_service_simulations_total")
                    - sims_before) == 1
            # ...and the manifest agrees: one landed job, total.
            manifest_path = svc.manifest_dir / f"{run_id}.jsonl"
            landed = [json.loads(line)
                      for line in manifest_path.read_text().splitlines()
                      if line.strip()]
            assert sum(1 for e in landed if e.get("status") == "ok") == 1
            # The coalesced result is still the real result.
            payload = client.results(run_id)
            assert payload["results"][0]["summary"] == baseline[0]
        finally:
            thread.stop()

    def test_distinct_specs_do_not_coalesce(self, grid):
        svc = SimulationService(execute_delay=0.5)
        thread = ServiceThread(svc)
        host, port = thread.start()
        client = ServiceClient(host, port)
        try:
            before = counter_value("repro_coalesced_requests_total")
            sims_before = counter_value("repro_service_simulations_total")
            results = [None, None]

            def post(slot, spec):
                results[slot] = client.submit([spec])

            threads = [threading.Thread(target=post, args=(slot, spec))
                       for slot, spec in enumerate(grid[:2])]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert results[0]["run"] != results[1]["run"]
            for info in results:
                assert client.wait(info["run"], timeout=180)["state"] == "done"
            assert counter_value("repro_coalesced_requests_total") == before
            assert (counter_value("repro_service_simulations_total")
                    - sims_before) == 2
        finally:
            thread.stop()

    def test_shared_spec_across_different_grids_coalesces(
        self, grid, baseline
    ):
        """Grid B arriving while grid A runs attaches to A's in-flight
        copy of their shared spec instead of re-executing it."""
        svc = SimulationService(execute_delay=1.0)
        thread = ServiceThread(svc)
        host, port = thread.start()
        client = ServiceClient(host, port)
        try:
            jobs_before = counter_value("repro_service_coalesced_jobs_total")
            sims_before = counter_value("repro_service_simulations_total")
            info_a = client.submit([grid[0], grid[1]])
            info_b = client.submit([grid[0], grid[2]])  # shares grid[0]
            assert info_a["run"] != info_b["run"]
            final_b = client.wait(info_b["run"], timeout=180)
            assert final_b["sources"]["coalesced"] == 1
            assert (counter_value("repro_service_coalesced_jobs_total")
                    - jobs_before) == 1
            client.wait(info_a["run"], timeout=180)
            # Three distinct specs -> exactly three simulations.
            assert (counter_value("repro_service_simulations_total")
                    - sims_before) == 3
            payload_b = client.results(info_b["run"])
            assert payload_b["results"][0]["summary"] == baseline[0]
            assert payload_b["results"][0]["source"] == "coalesced"
        finally:
            thread.stop()
