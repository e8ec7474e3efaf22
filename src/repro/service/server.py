"""The simulation service: an async job API over the batch runner.

Request lifecycle
-----------------
``POST /runs`` takes ``{"specs": [<JobSpec.key() dict>, ...]}`` and
answers with a run id + URLs.  Each spec in the grid resolves through
a three-level ladder, cheapest first:

1. **Warm** — a :class:`ResultCache` hit (fronted by an in-memory memo
   so repeat requests never touch disk) serves at memory speed.
2. **Coalesced** — the spec is already executing for another
   submission; this one attaches to the in-flight job's future instead
   of scheduling a duplicate (``repro_coalesced_requests_total`` /
   ``repro_service_coalesced_jobs_total``).
3. **Scheduled** — genuinely new work goes to a single-file executor
   thread that runs a :class:`BatchRunner` (optionally across the
   remote :class:`WorkerHub`), with the submission id as the manifest
   run id — so ``/runs/<id>/status`` gets heartbeat ETAs from
   :func:`read_status` for free.

Whole-grid coalescing sits above that: an identical grid (same sorted
content hashes) POSTed while in flight returns the *same* run id.

Everything here is deterministic-by-construction downstream: a
coalesced or cached result is bit-identical to a fresh run, so the
ladder is invisible in the payload except for the ``source`` field.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import queue as _queue
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import __version__
from repro.obs.export import to_openmetrics
from repro.obs.runtime import (
    record_coalesced_job,
    record_coalesced_request,
    record_service_request,
    record_service_simulations,
    record_spec_result,
    runtime_registry,
)
from repro.runner.batch import BatchRunner
from repro.runner.cache import ResultCache, default_cache_dir
from repro.runner.jobs import JobSpec
from repro.runner.manifest import read_status
from repro.runner.traces import TraceStore
from repro.service.http import HttpError, Request, read_request, response_bytes

#: Submission states.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"


def submission_id(spec_hashes: List[str]) -> str:
    """Grid identity: order-independent over the member spec hashes
    (and implicitly version-scoped, since each hash folds it in)."""
    blob = "\n".join(sorted(spec_hashes))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


class _SerialExecutor:
    """One daemon worker thread; grids execute strictly in order.

    A daemon thread (unlike ``ThreadPoolExecutor``'s non-daemon pool)
    cannot wedge interpreter shutdown if a simulation is mid-flight
    when a test or the CLI exits.
    """

    def __init__(self) -> None:
        self._queue: _queue.Queue = _queue.Queue()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="repro-service-exec"
        )
        self._thread.start()

    def submit(self, loop: asyncio.AbstractEventLoop, fn, *args) -> asyncio.Future:
        future = loop.create_future()
        self._queue.put((loop, future, fn, args))
        return future

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            loop, future, fn, args = item
            try:
                result = fn(*args)
            except BaseException as exc:  # delivered, not swallowed
                self._resolve_later(loop, future, None, exc)
            else:
                self._resolve_later(loop, future, result, None)

    @staticmethod
    def _resolve_later(loop, future, result, exc) -> None:
        def _set() -> None:
            if future.cancelled():
                return
            if exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(result)
        with contextlib.suppress(RuntimeError):  # loop already closed
            loop.call_soon_threadsafe(_set)

    def close(self) -> None:
        self._queue.put(None)


class Submission:
    """One POSTed grid and everything learned about it since."""

    __slots__ = ("id", "specs", "hashes", "created", "state", "sources",
                 "results", "failures", "owned", "attached", "requests",
                 "grid_stats", "effective_jobs", "error", "done_event",
                 "finished_at", "task")

    def __init__(self, sid: str, specs: List[JobSpec], hashes: List[str]) -> None:
        self.id = sid
        self.specs = specs
        self.hashes = hashes
        self.created = time.time()
        self.state = QUEUED
        #: Per-spec provenance, submission order: cache | coalesced | executed.
        self.sources: List[str] = []
        self.results: Dict[str, dict] = {}
        self.failures: Dict[str, dict] = {}
        self.owned: List[JobSpec] = []
        self.attached: Dict[str, asyncio.Future] = {}
        self.requests = 1
        self.grid_stats: Optional[dict] = None
        self.effective_jobs: Optional[int] = None
        self.error: Optional[str] = None
        self.done_event = asyncio.Event()
        self.finished_at: Optional[float] = None
        self.task: Optional[asyncio.Task] = None


class SimulationService:
    """The asyncio front-end behind ``repro serve``."""

    def __init__(
        self,
        cache_dir=None,
        *,
        jobs: int = 1,
        retries: int = 1,
        timeout: Optional[float] = None,
        replay: bool = True,
        hub=None,
        max_grid_jobs: int = 256,
        max_submissions: int = 1024,
        memo_entries: int = 4096,
        execute_delay: float = 0.0,
    ) -> None:
        root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.cache_root = root
        self.cache = ResultCache(root)
        self.trace_store = TraceStore(root / "traces")
        self.manifest_dir = root / "runs"
        self.jobs = jobs
        self.retries = retries
        self.timeout = timeout
        self.replay = replay
        self.hub = hub
        self.max_grid_jobs = max_grid_jobs
        self.max_submissions = max_submissions
        #: Deterministic pre-execution sleep — lets tests hold a spec
        #: in flight long enough to prove coalescing.
        self.execute_delay = execute_delay
        self.submissions: "OrderedDict[str, Submission]" = OrderedDict()
        #: content_hash -> future resolving to ("ok", summary_dict) or
        #: ("failed", failure_dict) — the spec-level coalescing table.
        self.inflight: Dict[str, asyncio.Future] = {}
        self._memo: "OrderedDict[str, dict]" = OrderedDict()
        self._memo_entries = memo_entries
        self._executor = _SerialExecutor()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self.address: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(self._handle_client, host, port)
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def serve_forever(self) -> None:
        assert self._server is not None
        await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        self.close()

    def close(self) -> None:
        """Synchronous teardown of the non-asyncio resources."""
        self._executor.close()
        if self.hub is not None:
            self.hub.close()

    # ------------------------------------------------------------------
    # connection loop
    # ------------------------------------------------------------------
    async def _handle_client(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(response_bytes(
                        exc.status, {"error": exc.reason}, keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break  # client hung up (possibly mid-request) — routine
                try:
                    status, payload, text, ctype = await self._route(request)
                except HttpError as exc:
                    status, payload, text, ctype = (
                        exc.status, {"error": exc.reason}, None, "application/json")
                except Exception as exc:
                    # A handler bug answers 500; it never tears down the
                    # connection loop or the server.
                    status, payload, text, ctype = (
                        500, {"error": f"{type(exc).__name__}: {exc}"},
                        None, "application/json")
                writer.write(response_bytes(
                    status, payload, text=text, content_type=ctype,
                    keep_alive=request.keep_alive))
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, TimeoutError, OSError):
            pass  # dropped connections are the client's prerogative
        except asyncio.CancelledError:
            raise
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _route(self, request: Request):
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/healthz":
            record_service_request("healthz")
            return 200, self._health(), None, "application/json"
        if path == "/metrics":
            record_service_request("metrics")
            return 200, None, to_openmetrics(runtime_registry()), \
                "application/openmetrics-text"
        if path == "/workers":
            record_service_request("workers")
            info = self.hub.workers_info() if self.hub is not None else []
            return 200, {"workers": info, "count": len(info)}, None, \
                "application/json"
        if path == "/runs":
            if method == "POST":
                record_service_request("submit")
                return await self._submit(request)
            if method == "GET":
                record_service_request("list")
                return 200, self._list_runs(), None, "application/json"
            raise HttpError(405)
        if path.startswith("/runs/"):
            parts = path.split("/")  # ['', 'runs', '<id>', <leaf>?]
            if method != "GET" or len(parts) not in (3, 4):
                raise HttpError(405 if method != "GET" else 404)
            sub = self.submissions.get(parts[2])
            if sub is None:
                raise HttpError(404, f"unknown run {parts[2]!r}")
            leaf = parts[3] if len(parts) == 4 else "status"
            if leaf == "status":
                record_service_request("status")
                return 200, self._status(sub), None, "application/json"
            if leaf == "results":
                record_service_request("results")
                return self._results(sub)
            raise HttpError(404)
        raise HttpError(404)

    def _health(self) -> dict:
        return {
            "ok": True,
            "version": __version__,
            "submissions": len(self.submissions),
            "inflight_specs": len(self.inflight),
            "workers": self.hub.worker_count() if self.hub is not None else 0,
        }

    def _list_runs(self) -> dict:
        return {"runs": [self._run_info(sub) for sub in self.submissions.values()]}

    # ------------------------------------------------------------------
    # POST /runs
    # ------------------------------------------------------------------
    async def _submit(self, request: Request):
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "body must be a JSON object")
        raw_specs = body.get("specs")
        if not isinstance(raw_specs, list) or not raw_specs:
            raise HttpError(400, "specs must be a non-empty list")
        if len(raw_specs) > self.max_grid_jobs:
            raise HttpError(413, f"grid exceeds {self.max_grid_jobs} jobs")
        try:
            specs = [JobSpec.from_dict(raw) for raw in raw_specs]
        except Exception as exc:
            raise HttpError(400, f"invalid job spec: {exc}") from None
        hashes = [spec.content_hash() for spec in specs]
        sid = submission_id(hashes)

        existing = self.submissions.get(sid)
        if existing is not None:
            existing.requests += 1
            # Eviction goes by last request: a reused run id must not
            # be the next one pruned while its client still polls it.
            self.submissions.move_to_end(sid)
            coalesced = existing.state in (QUEUED, RUNNING)
            if coalesced:
                record_coalesced_request()
            status = 202 if coalesced else 200
            return status, self._run_info(existing, coalesced=coalesced), \
                None, "application/json"

        sub = Submission(sid, specs, hashes)
        self.submissions[sid] = sub
        self._prune_submissions()
        seen_in_grid: Dict[str, str] = {}
        for spec, digest in zip(specs, hashes):
            if digest in seen_in_grid:
                sub.sources.append(seen_in_grid[digest])
                continue
            payload = self._lookup(spec, digest)
            if payload is not None:
                sub.results[digest] = payload
                sub.sources.append("cache")
                seen_in_grid[digest] = "cache"
                record_spec_result("cache")
                continue
            future = self.inflight.get(digest)
            if future is not None:
                sub.attached[digest] = future
                sub.sources.append("coalesced")
                seen_in_grid[digest] = "coalesced"
                record_coalesced_job()
                record_spec_result("coalesced")
                continue
            self.inflight[digest] = self._loop.create_future()
            sub.owned.append(spec)
            sub.sources.append("executed")
            seen_in_grid[digest] = "executed"
            record_spec_result("executed")

        if sub.owned or sub.attached:
            sub.task = asyncio.ensure_future(self._drive(sub))
            return 202, self._run_info(sub, coalesced=False), None, \
                "application/json"
        self._finish(sub)
        return 200, self._run_info(sub, coalesced=False), None, \
            "application/json"

    def _finish(self, sub: Submission) -> None:
        sub.state = FAILED if (sub.failures or sub.error) else DONE
        sub.finished_at = time.time()
        sub.done_event.set()

    def _prune_submissions(self) -> None:
        while len(self.submissions) > self.max_submissions:
            for sid, sub in self.submissions.items():
                if sub.state in (DONE, FAILED):
                    del self.submissions[sid]
                    break
            else:
                return  # everything live; let the table run hot

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    async def _drive(self, sub: Submission) -> None:
        try:
            if sub.owned:
                outcomes = await self._executor.submit(
                    self._loop, self._execute, sub)
                for spec, outcome in zip(sub.owned, outcomes):
                    digest = spec.content_hash()
                    if outcome is not None and outcome.ok:
                        payload = outcome.summary.to_dict()
                        self._remember(digest, payload)
                        sub.results[digest] = payload
                        value = ("ok", payload)
                    else:
                        failure = {
                            "error_type": getattr(outcome, "error_type", "JobError"),
                            "message": getattr(outcome, "message", "job vanished"),
                            "attempts": getattr(outcome, "attempts", 1),
                            "transient": getattr(outcome, "transient", False),
                        }
                        sub.failures[digest] = failure
                        value = ("failed", failure)
                    future = self.inflight.pop(digest, None)
                    if future is not None and not future.done():
                        future.set_result(value)
            for digest, future in sub.attached.items():
                kind, payload = await asyncio.shield(future)
                if kind == "ok":
                    sub.results[digest] = payload
                else:
                    sub.failures[digest] = dict(payload)
        except Exception as exc:
            sub.error = f"{type(exc).__name__}: {exc}"
            # Unblock anyone coalesced onto jobs this grid owned.
            for spec in sub.owned:
                digest = spec.content_hash()
                future = self.inflight.pop(digest, None)
                if future is not None and not future.done():
                    future.set_result(("failed", {
                        "error_type": type(exc).__name__,
                        "message": str(exc),
                        "attempts": 1,
                        "transient": False,
                    }))
        finally:
            self._finish(sub)

    def _execute(self, sub: Submission):
        """Runs on the executor thread: one BatchRunner per grid."""
        if self.execute_delay:
            time.sleep(self.execute_delay)
        sub.state = RUNNING
        pool = self.hub if (self.hub is not None
                            and self.hub.worker_count() > 0) else None
        runner = BatchRunner(
            jobs=self.jobs,
            cache=self.cache,
            trace_store=self.trace_store,
            replay=self.replay,
            retries=self.retries,
            timeout=self.timeout,
            keep_going=True,
            manifest_dir=self.manifest_dir,
            manifest_run_id=sub.id,
            worker_pool=pool,
        )
        try:
            return runner.run(sub.owned)
        finally:
            sub.grid_stats = runner.stats.to_dict()
            sub.effective_jobs = runner.effective_jobs
            record_service_simulations(runner.simulations_run)

    # ------------------------------------------------------------------
    # warm-result ladder
    # ------------------------------------------------------------------
    def _lookup(self, spec: JobSpec, digest: str) -> Optional[dict]:
        payload = self._memo.get(digest)
        if payload is not None:
            self._memo.move_to_end(digest)
            return payload
        summary = self.cache.get(spec)
        if summary is None:
            return None
        payload = summary.to_dict()
        self._remember(digest, payload)
        return payload

    def _remember(self, digest: str, payload: dict) -> None:
        self._memo[digest] = payload
        self._memo.move_to_end(digest)
        while len(self._memo) > self._memo_entries:
            self._memo.popitem(last=False)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def _run_info(self, sub: Submission, coalesced: bool = False) -> dict:
        return {
            "run": sub.id,
            "url": f"/runs/{sub.id}",
            "status_url": f"/runs/{sub.id}/status",
            "results_url": f"/runs/{sub.id}/results",
            "state": sub.state,
            "coalesced": coalesced,
            "specs": len(sub.specs),
            "requests": sub.requests,
        }

    def _status(self, sub: Submission) -> dict:
        sources = {key: sub.sources.count(key)
                   for key in ("cache", "coalesced", "executed")}
        payload = {
            "run": sub.id,
            "state": sub.state,
            "specs": len(sub.specs),
            "done": len(sub.results) + len(sub.failures),
            "failed": len(sub.failures),
            "requests": sub.requests,
            "created": sub.created,
            "sources": sources,
            "error": sub.error,
            "effective_jobs": sub.effective_jobs,
            "grid_stats": sub.grid_stats,
        }
        if sub.owned:
            try:
                manifest = read_status(sub.id, self.manifest_dir)
            except (FileNotFoundError, OSError):
                manifest = None  # still queued: manifest not created yet
            if manifest is not None:
                payload["manifest"] = {
                    "counts": manifest["counts"],
                    "pending": manifest["pending"],
                    "workers": manifest["workers"],
                    "avg_job_seconds": manifest["avg_job_seconds"],
                    "eta_seconds": manifest["eta_seconds"],
                }
        return payload

    def _results(self, sub: Submission):
        if sub.state in (QUEUED, RUNNING):
            payload = self._status(sub)
            payload["detail"] = "run not finished; poll status_url"
            return 202, payload, None, "application/json"
        entries = []
        for spec, digest, source in zip(sub.specs, sub.hashes, sub.sources):
            entry = {"label": spec.describe(), "hash": digest, "source": source}
            if digest in sub.results:
                entry["summary"] = sub.results[digest]
            else:
                entry["failure"] = sub.failures.get(digest)
            entries.append(entry)
        return 200, {
            "run": sub.id,
            "state": sub.state,
            "error": sub.error,
            "results": entries,
            "grid_stats": sub.grid_stats,
        }, None, "application/json"


class ServiceThread:
    """Run a :class:`SimulationService` on a background thread.

    The integration tests and the load benchmark need a live server
    inside one process: this owns a private event loop on a daemon
    thread and exposes just ``start() -> (host, port)`` / ``stop()``.
    """

    def __init__(self, service: SimulationService,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self._host = host
        self._port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.address: Optional[Tuple[str, int]] = None

    def start(self, timeout: float = 10.0) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="repro-service-loop")
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service did not start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"service failed to start: {self._startup_error}")
        assert self.address is not None
        return self.address

    def _run(self) -> None:
        loop = self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            self.address = loop.run_until_complete(
                self.service.start(self._host, self._port))
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            with contextlib.suppress(Exception):
                loop.run_until_complete(self.service.aclose())
            with contextlib.suppress(Exception):
                loop.close()

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServiceThread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
