"""service_mix: a closed loop of two connections against ``repro serve``.

The server runs in its own process (``serve.py`` -> ``repro serve
--jobs 1``).  Every repetition gets a fresh server on a fresh cache
root, started outside the measured window, whose warm set is filled
first: each of the eight hot specs is POSTed alone (simulated, written
to the result cache and the server's memo), then each of the eight hot
grids (two hot specs each) once.  The first server is part of set-up.

Each connection then sends its next session only when the previous one
has its results (closed loop).  A session runs from the POST to the
results GET that answers 200; a 202 is re-polled every ``POLL_S``
seconds, far below the session latency.  Sessions are dealt from a
seeded plan, in shuffled decks of :data:`DECK` that hold exactly the
shares below, so that every window meets the same mix (with independent
draws a 3 s window's cold sessions, each ~6x a warm one, moved its
throughput by up to 10%):

* warm (80%): one of the eight hot grids -- cache and memo reads;
* cold (14%): one unique spec (its own machine seed) -- simulated,
  written to the result cache and the run manifest;
* paired cold (6%): both connections, released together, POST grids
  that share one unique spec, so the second attaches to the first's
  in-flight job (coalescing).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
from collections import Counter
from time import perf_counter

import config
import layers
from checks import DigestBook, Tally, scalar_summary
from grids import Rep

WINDOW_S = 3.0
SMOKE_WINDOW_S = 0.5
POLL_S = 0.002
SESSION_TIMEOUT_S = 30.0
CONNECTIONS = 2
WARM_SHARE = 0.80
PAIR_SHARE = 0.06
DECK = 50
HOT_WORKLOADS = ("fft", "radix", "ocean", "fmm")
MAX_REFS = 300

_SIMULATIONS = re.compile(
    r"^repro_service_simulations_total(?:\{[^}]*\})?\s+([0-9.eE+-]+)", re.M)


def _timing_spec(params, name: str, entries: int):
    from repro import Scheme
    from repro.runner import JobSpec

    return JobSpec.timing(params, Scheme.V_COMA, name, entries,
                          max_refs_per_node=MAX_REFS, overrides={"intensity": 0.2})


class Plan:
    """The seeded session sequence shared by both connections."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        params = config.service_params(seed)
        self.hot = [_timing_spec(params, name, entries)
                    for name in HOT_WORKLOADS for entries in (8, 32)]
        self.hot_grids = [[self.hot[i], self.hot[(i + 3) % len(self.hot)]]
                          for i in range(len(self.hot))]
        #: content hash -> (digest label, spec) of every spec handed out.
        self.labels = {spec.content_hash(): (f"hot:{spec.workload}/{spec.entries}", spec)
                       for spec in self.hot}
        self.cold_count = 0
        warm, pair = round(DECK * WARM_SHARE), round(DECK * PAIR_SHARE)
        self.deck_kinds = ["warm"] * warm + ["pair"] * pair + ["cold"] * (DECK - warm - pair)
        self.deck = []

    def cold(self):
        index = self.cold_count
        self.cold_count += 1
        params = config.service_params(self.seed * 1_000_000 + 1 + index)
        spec = _timing_spec(params, self.rng.choice(HOT_WORKLOADS),
                            self.rng.choice((8, 16, 32)))
        self.labels[spec.content_hash()] = (f"cold:{index}", spec)
        return spec

    def next(self):
        """``(kind, grids)``: one grid, or two sharing a cold spec."""
        if not self.deck:
            self.deck = list(self.deck_kinds)
            self.rng.shuffle(self.deck)
        kind = self.deck.pop()
        if kind == "warm":
            return kind, [self.rng.choice(self.hot_grids)]
        spec = self.cold()
        if kind == "pair":
            return kind, [[spec], [spec, self.rng.choice(self.hot)]]
        return kind, [[spec]]


class Connection:
    """One keep-alive HTTP connection."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=SESSION_TIMEOUT_S)

    def request(self, method: str, path: str, payload=None):
        body = json.dumps(payload) if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            raise
        if "json" in response.headers.get("Content-Type", ""):
            return response.status, json.loads(raw)
        return response.status, raw.decode("utf-8")

    def close(self) -> None:
        self.conn.close()


class Session:
    """One POST -> results round trip and what came back."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.ok = False
        self.problem = ""
        self.latency_ms = 0.0
        self.post_ms = 0.0
        self.results_ms = 0.0
        self.entries = []
        self.grid_stats = None
        self.started = 0.0

    def run(self, conn: Connection, grid) -> "Session":
        self.started = started = perf_counter()
        try:
            status, info = conn.request("POST", "/runs",
                                        {"specs": [spec.key() for spec in grid]})
            self.post_ms = (perf_counter() - started) * 1000.0
            if status not in (200, 202):
                self.problem = f"POST answered {status}: {info}"
                return self
            path = f"/runs/{info['run']}/results"
            while True:
                sent = perf_counter()
                status, data = conn.request("GET", path)
                self.results_ms = (perf_counter() - sent) * 1000.0
                if status == 200:
                    break
                if status != 202 or perf_counter() - started > SESSION_TIMEOUT_S:
                    self.problem = f"results answered {status} after " \
                                   f"{perf_counter() - started:.1f}s"
                    return self
                time.sleep(POLL_S)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.problem = f"{type(exc).__name__}: {exc}"
            return self
        self.latency_ms = (perf_counter() - started) * 1000.0
        self.entries = data.get("results") or []
        self.grid_stats = data.get("grid_stats")
        missing = [entry.get("label") for entry in self.entries if "summary" not in entry]
        if data.get("state") != "done" or missing or len(self.entries) != len(grid):
            self.problem = f"run {data.get('state')}: no result for {missing}"
            return self
        self.ok = True
        return self


class Server:
    """``repro serve`` in its own process."""

    def __init__(self, cache_root: str, spans_path=None) -> None:
        here = os.path.dirname(os.path.abspath(__file__))
        command = [sys.executable, os.path.join(here, "serve.py")]
        if spans_path is not None:
            command += ["--spans", spans_path]
        command += ["--port", "0", "--jobs", "1", "--cache-dir", cache_root]
        self.spans_path = spans_path
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(60.0, self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                match = re.search(r"listening\s*:\s*http://([^:\s]+):(\d+)", line)
                if match:
                    self.host, self.port = match.group(1), int(match.group(2))
                    break
            else:
                raise RuntimeError("repro serve exited before listening")
        finally:
            watchdog.cancel()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(2)  # SIGINT: the CLI's clean shutdown
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class ServiceMix:
    name = "service_mix"
    lanes = 2  # the load process and the server
    cpus = 2

    def __init__(self, seed: int, smoke: bool, tmp: str, tally: Tally) -> None:
        self.seed = seed
        self.smoke = smoke
        self.tmp = tmp
        self.tally = tally
        self.book = DigestBook(self.name, seed, smoke)
        self.window_s = SMOKE_WINDOW_S if smoke else WINDOW_S
        self.server = None  # started, warm, and not yet measured
        self.servers = 0
        self.returned = {}  # content hash -> summary digest
        self.lock = threading.Lock()

    # -- set-up ----------------------------------------------------------
    def setup(self, traced: bool = False) -> None:
        self.plan = Plan(self.seed)
        self.server = self._start(probed=False)

    def _start(self, probed: bool) -> Server:
        """A server on a fresh cache root, with its warm set filled."""
        self.servers += 1
        root = os.path.join(self.tmp, f"server-{self.servers}")
        os.makedirs(root)
        server = Server(os.path.join(root, "cache"),
                        os.path.join(root, "spans.jsonl") if probed else None)
        conn = Connection(server.host, server.port)
        try:
            for grid in [[spec] for spec in self.plan.hot] + self.plan.hot_grids:
                self._record(Session("warm-fill").run(conn, grid))
        finally:
            conn.close()
        return server

    # -- the measured window -------------------------------------------
    def rep(self, recorder) -> Rep:
        """One window against a fresh, warm server (started outside the
        window), which is stopped afterwards."""
        probed = recorder is not None
        server = self.server
        if server is None or (server.spans_path is not None) != probed:
            self.close()
            server = self._start(probed)
        self.server = None
        try:
            return self._window(server, recorder)
        finally:
            server.stop()
            if probed:
                recorder.spans.extend(
                    span for span in layers.read_spans(server.spans_path)
                    if self._window_start <= span[layers.START] <= self._window_end)

    def _window(self, server: Server, recorder) -> Rep:
        metrics_conn = Connection(server.host, server.port)
        simulations = self._simulations(metrics_conn)
        sessions = []
        state = {"pair": None, "exited": [False] * CONNECTIONS}
        barrier = threading.Barrier(CONNECTIONS)
        started = perf_counter()
        deadline = started + self.window_s
        threads = [
            threading.Thread(target=self._client,
                             args=(i, server, deadline, state, barrier, sessions))
            for i in range(CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = perf_counter() - started
        self._window_start, self._window_end = started, started + wall
        simulations = self._simulations(metrics_conn) - simulations
        metrics_conn.close()

        refs = 0
        op_ms, op_starts, post_ms, results_ms = [], [], [], []
        sources = Counter()
        utilization, idle, retries = [], 0.0, 0
        for session in sessions:
            if not self._record(session):
                continue
            refs += sum(sum(entry["summary"]["refs_per_node"]) for entry in session.entries)
            op_ms.append(session.latency_ms)
            op_starts.append(session.started)
            post_ms.append(session.post_ms)
            results_ms.append(session.results_ms)
            sources.update(entry["source"] for entry in session.entries)
            stats = session.grid_stats
            if stats and session.kind != "warm":
                utilization.append(stats["utilization"])
                idle += stats["wall_seconds"] * stats["workers"] - stats["job_seconds"]
                retries += stats["retries"]
        total = sum(sources.values())
        return Rep(started, wall, refs, op_ms, op_starts=op_starts, extras={
            "service.post_ms": config.median(post_ms),
            "service.results_ms": config.median(results_ms),
            "service.warm_ratio": sources["cache"] / total if total else 0.0,
            "service.coalesced_ratio": sources["coalesced"] / total if total else 0.0,
            "service.simulations": simulations,
            "batch.utilization": config.median(utilization),
            "batch.idle_s": idle,
            "batch.retries": retries,
        })

    def _client(self, index, server, deadline, state, barrier, sessions) -> None:
        conn = Connection(server.host, server.port)
        try:
            while True:
                role = 0
                with self.lock:
                    if state["pair"] is not None:
                        kind, grids = state["pair"]
                        state["pair"] = None
                        role = 1
                    elif perf_counter() >= deadline:
                        state["exited"][index] = True
                        return
                    else:
                        kind, grids = self.plan.next()
                        if kind == "pair":
                            if any(state["exited"]):
                                kind, grids = "cold", grids[:1]
                            else:
                                state["pair"] = (kind, grids)
                if kind == "pair":
                    try:
                        barrier.wait(timeout=SESSION_TIMEOUT_S)
                    except threading.BrokenBarrierError:
                        failed = Session(kind)
                        failed.problem = "paired connection never arrived"
                        sessions.append(failed)
                        continue
                sessions.append(Session(kind).run(conn, grids[role]))
        finally:
            conn.close()

    @staticmethod
    def _simulations(conn: Connection) -> float:
        status, text = conn.request("GET", "/metrics")
        match = _SIMULATIONS.search(text) if status == 200 else None
        return float(match.group(1)) if match else 0.0

    def _record(self, session: Session) -> bool:
        """Tally one session and remember what each spec returned."""
        if not self.tally.attempt(session.ok, f"{session.kind} session: {session.problem}"):
            return False
        for entry in session.entries:
            summary = entry["summary"]
            self.tally.provenance(summary)
            if summary.get("backend") != "compiled":
                self.tally.fail(f"{entry['label']}: ran on {summary.get('backend')!r} "
                                f"({summary.get('fallback_reason')}), expected 'compiled'")
                return False
            value = config.summary_digest(summary)
            first = self.returned.setdefault(entry["hash"], value)
            if value != first:
                self.tally.fail(f"{entry['label']}: returned {value}, earlier {first}")
                return False
        return True

    # -- after the window --------------------------------------------------
    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def post_check(self) -> None:
        """Outside the measured windows: the warm set, the first cold
        specs and a seeded sample of the rest against in-process runs of
        their specs (and, at the committed seed, against their committed
        digests), and two of them against the scalar oracle."""
        rng = random.Random(self.seed)
        unknown = [h for h in self.returned if h not in self.plan.labels]
        self.tally.attempt(not unknown, f"results for unknown specs {unknown[:3]}")
        committed = {h for h in self.returned if h in self.plan.labels
                     and self._committed(self.plan.labels[h][0])}
        others = sorted(set(self.returned) - committed - set(unknown))
        checked = sorted(committed) + rng.sample(others, min(SAMPLED, len(others)))
        for digest_hash in checked:
            label, spec = self.plan.labels[digest_hash]
            value = config.summary_digest(spec.execute().to_dict())
            if self.tally.attempt(value == self.returned[digest_hash],
                                  f"{label}: service returned "
                                  f"{self.returned[digest_hash]}, in-process run {value}"):
                if digest_hash in committed:
                    self.book.check(self.tally, label, value)
        for digest_hash in rng.sample(checked, min(2, len(checked))):
            label, spec = self.plan.labels[digest_hash]
            value = config.summary_digest(scalar_summary(spec).to_dict())
            self.tally.attempt(value == self.returned[digest_hash],
                               f"{label}: service returned {self.returned[digest_hash]}, "
                               f"scalar oracle {value}")

    @staticmethod
    def _committed(label: str) -> bool:
        return label.startswith("hot:") or int(label.split(":")[1]) < COMMITTED_COLD


#: Cold specs whose digests are committed (they are generated in order).
COMMITTED_COLD = 32
#: Further returned results checked against an in-process run.
SAMPLED = 32
