"""Layer spans recorded from outside the program.

:class:`Probes` swaps the program's layer entry points for thin
wrappers that record one span per call — name, start, end, the span
that was open when the call began (its parent), the process id, and an
optional tag/count — and restores the originals on :meth:`Probes.remove`.
The simulator source is never edited: the wrappers replace module and
class attributes, and the compiled library is reached through a proxy
set on ``get_backend().lib``.

Spans stay in memory.  A forked worker leaves through ``os._exit`` and
never runs ``atexit``, so a process that is not the one that installed
the probes appends its spans to ``<flush_dir>/spans-<pid>.jsonl`` after
every job; :func:`read_flushed` merges them back.

:func:`layer_metrics` turns spans into the per-layer metrics.  Metrics
named ``*_s`` that :data:`SELF_TIME` lists are self times (a span's
duration minus the same-process child spans inside it); ``other_s``
closes their sum to ``lanes x wall``, where ``lanes`` counts the
processes that worked on the repetitions.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict

# Span record fields (lists, for cheap appends and JSON dumps).
ID, PARENT, NAME, START, END, PID, TAG, COUNT = range(8)

#: Span name -> per-layer self-time metric.  With ``other_s`` these
#: sum to lanes x wall.
SELF_TIME = {
    "workloads.drain": "workloads.drain_s",
    "machine.build": "machine.build_s",
    "machine.preload": "machine.preload_s",
    "fast_simulator.c": "fast_simulator.c_s",
    "fast_simulator.export": "fast_simulator.export_s",
    "fast_simulator.run": "fast_simulator.glue_s",
    "trace_store.get": "trace_store.get_s",
    "trace_store.put": "trace_store.put_s",
    "result_cache.get": "result_cache.get_s",
    "result_cache.put": "result_cache.put_s",
    "batch.run": "batch.dispatch_s",
    "profile.read": "profile.read_s",
    "profile.attribute": "profile.attribute_s",
}

#: Compiled-library entry points timed as ``fast_simulator.c``.
C_ENTRY_POINTS = ("fs_run", "fs_reference", "fs_bank_run")

#: ``repro.system.fast_simulator`` functions timed as export.
EXPORT_FUNCTIONS = (
    "_load_cache", "_load_directory", "_load_sweep_agent",
    "_load_study_agent", "_load_capture_agent", "_load_tlbs", "_run_bank",
)


class Recorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans = []
        self.owner_pid = os.getpid()
        #: Where forked workers append their spans (set per repetition).
        self.flush_dir = None
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        pid = os.getpid()
        record = [(pid << 32) | next(self._ids), stack[-1] if stack else None,
                  name, time.perf_counter(), 0.0, pid, None, None]
        stack.append(record[ID])
        return record

    def close(self, record: list, tag=None, count=None) -> None:
        record[END] = time.perf_counter()
        record[TAG] = tag
        record[COUNT] = count
        stack = self._stack()
        if stack and stack[-1] == record[ID]:
            stack.pop()
        self.spans.append(record)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a ``with`` block of the benchmark's own code."""
        record = self.open(name)
        try:
            yield
        finally:
            self.close(record)

    def after_fork_in_child(self) -> None:
        """A forked child starts with no spans of its own (the parent's
        open spans stay on the stack, so its jobs keep their cause)."""
        self.spans = []

    def flush_if_forked(self) -> None:
        """Append this process's spans to its flush file if it is a
        forked worker, which will leave without running ``atexit``."""
        if os.getpid() == self.owner_pid or not self.flush_dir or not self.spans:
            return
        path = os.path.join(self.flush_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
        self.spans = []

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def read_flushed(flush_dir: str) -> list:
    """Every span forked workers appended under ``flush_dir``."""
    spans = []
    if not os.path.isdir(flush_dir):
        return spans
    for name in sorted(os.listdir(flush_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            spans.extend(read_spans(os.path.join(flush_dir, name)))
    return spans


def read_spans(path: str) -> list:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------
def _timed(recorder: Recorder, name: str, fn, describe=None, after=None):
    """Wrap ``fn`` in a span named ``name``.  ``describe(args, kwargs,
    result)`` gives the span's ``(tag, count)``; ``after()`` runs once
    the span is closed."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        record = recorder.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tag, count = describe(args, kwargs, result) if describe else (None, None)
            recorder.close(record, tag, count)
            if after is not None:
                after()

    return wrapper


def _tagged(tag):
    return lambda args, kwargs, result: (tag, None)


def _hit(args, kwargs, result):
    return ("miss" if result is None else "hit"), None


class _LibProxy:
    """Stands in for the cffi library: times the C entry points and
    passes every other attribute through (cached on first use)."""

    def __init__(self, lib, recorder: Recorder) -> None:
        self._lib = lib
        for name in C_ENTRY_POINTS:
            setattr(self, name, _timed(recorder, "fast_simulator.c",
                                       getattr(lib, name), _tagged(name)))

    def __getattr__(self, name):
        value = getattr(self._lib, name)
        setattr(self, name, value)
        return value


class Probes:
    """Install/remove the layer wrappers around the program's entry points."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved = []
        self._backend = None
        self._lib = None

    def _patch(self, owner, attr: str, name: str, **options) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, _timed(self.recorder, name, original, **options))

    def install(self) -> "Probes":
        from repro.core import timing_kernels
        from repro.runner import batch, cache, jobs, traces
        from repro.system import fast_simulator, machine, taptrace

        self._patch(timing_kernels, "materialize_stream", "workloads.drain",
                    describe=lambda args, kwargs, columns: (
                        None, None if columns is None else len(columns[0])))
        self._patch(timing_kernels.StreamCache, "get", "stream_cache.get", describe=_hit)
        self._patch(machine.Machine, "__init__", "machine.build")
        self._patch(machine.Machine, "_preload", "machine.preload")
        self._patch(fast_simulator, "run_fast", "fast_simulator.run")
        for function in EXPORT_FUNCTIONS:
            self._patch(fast_simulator, function, "fast_simulator.export",
                        describe=_tagged(function))
        self._patch(taptrace, "capture_tap_traces", "taptrace.capture",
                    describe=lambda args, kwargs, result: (kwargs.get("stream_key"), None))
        self._patch(taptrace, "replay_study", "replay")
        self._patch(traces.TraceStore, "get", "trace_store.get", describe=_hit)
        self._patch(traces.TraceStore, "put", "trace_store.put")
        self._patch(cache.ResultCache, "get", "result_cache.get", describe=_hit)
        self._patch(cache.ResultCache, "put", "result_cache.put")
        self._patch(jobs.JobSpec, "execute", "batch.job",
                    after=self.recorder.flush_if_forked)
        self._patch(batch.BatchRunner, "run", "batch.run")
        backend = timing_kernels.get_backend()
        if backend is not None:
            self._backend, self._lib = backend, backend.lib
            backend.lib = _LibProxy(backend.lib, self.recorder)
        os.register_at_fork(after_in_child=self._after_fork)
        return self

    def _after_fork(self) -> None:
        if self._saved:
            self.recorder.after_fork_in_child()

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
        if self._backend is not None:
            self._backend.lib = self._lib
            self._backend = self._lib = None


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
class SpanIndex:
    """Self times, inclusive times and ancestry over a span list."""

    def __init__(self, spans) -> None:
        self.spans = spans
        self.by_id = {span[ID]: span for span in spans}
        self.child_time = defaultdict(float)
        for span in spans:
            parent = self.by_id.get(span[PARENT])
            if parent is not None and parent[PID] == span[PID]:
                self.child_time[span[PARENT]] += span[END] - span[START]

    def named(self, name: str) -> list:
        return [span for span in self.spans if span[NAME] == name]

    def inclusive(self, name: str) -> float:
        return sum(span[END] - span[START] for span in self.named(name))

    def self_time(self, name: str) -> float:
        return sum(span[END] - span[START] - self.child_time[span[ID]]
                   for span in self.named(name))

    def root(self, span) -> int:
        """Id of the outermost span above ``span``, across processes (a
        forked worker's job hangs under the parent's ``batch.run``)."""
        while span[PARENT] in self.by_id:
            span = self.by_id[span[PARENT]]
        return span[ID]

    def ancestor_named(self, span, names) -> str:
        """Nearest same-process ancestor whose name is in ``names``."""
        parent = self.by_id.get(span[PARENT])
        while parent is not None and parent[PID] == span[PID]:
            if parent[NAME] in names:
                return parent[NAME]
            parent = self.by_id.get(parent[PARENT])
        return None


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans, reps: int, wall: float, lanes: int) -> dict:
    """Per-repetition layer metrics from the spans of ``reps`` traced
    repetitions that took ``wall`` seconds in all."""
    index = SpanIndex(spans)
    per_rep = 1.0 / max(reps, 1)
    metrics = {}
    self_total = 0.0
    for name, metric in SELF_TIME.items():
        seconds = index.self_time(name)
        self_total += seconds
        metrics[metric] = seconds * per_rep
    metrics["other_s"] = (lanes * wall - self_total) * per_rep

    drains = index.named("workloads.drain")
    metrics["workloads.drained_refs"] = sum(span[COUNT] or 0 for span in drains) * per_rep
    lookups = index.named("stream_cache.get")
    metrics["stream_cache.hit_ratio"] = _ratio(
        sum(span[TAG] == "hit" for span in lookups), len(lookups))
    metrics["machine.builds"] = len(index.named("machine.build")) * per_rep

    c_in_run = c_in_replay = 0.0
    bank_runs = 0
    for span in index.named("fast_simulator.c"):
        owner = index.ancestor_named(span, ("fast_simulator.run", "replay"))
        if owner == "fast_simulator.run":
            c_in_run += span[END] - span[START]
        elif owner == "replay":
            c_in_replay += span[END] - span[START]
            bank_runs += span[TAG] == "fs_bank_run"
    metrics["fast_simulator.c_share"] = _ratio(c_in_run, index.inclusive("fast_simulator.run"))
    metrics["fast_simulator.compiled_runs"] = len(index.named("fast_simulator.run")) * per_rep

    captures = index.named("taptrace.capture")
    metrics["taptrace.capture_s"] = index.inclusive("taptrace.capture") * per_rep
    metrics["taptrace.captures"] = len(captures) * per_rep
    # Distinct recordings per grid: a repetition records each workload
    # once when no capture is duplicated.
    metrics["taptrace.capture_useful_ratio"] = _ratio(
        len({(index.root(span), span[TAG]) for span in captures}), len(captures))

    metrics["replay.s"] = index.inclusive("replay") * per_rep
    metrics["replay.bank_runs"] = bank_runs * per_rep
    metrics["replay.c_share"] = _ratio(c_in_replay, index.inclusive("replay"))

    for store in ("trace_store", "result_cache"):
        gets = index.named(f"{store}.get")
        metrics[f"{store}.hit_ratio"] = _ratio(
            sum(span[TAG] == "hit" for span in gets), len(gets))
    metrics["batch.job_s"] = index.inclusive("batch.job") * per_rep
    metrics["trace.run_s"] = index.inclusive("trace.run") * per_rep
    return metrics
