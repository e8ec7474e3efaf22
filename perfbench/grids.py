"""The three in-process workloads: timing_grid, sweep_grid, traced_timing.

Each repetition starts from the state a user's fresh grid meets: the
materialized-stream LRU is cleared and the sweep grid gets a fresh,
empty trace store.  No workload here uses the result cache.
"""

from __future__ import annotations

import contextlib
import os
import random
import shutil
from dataclasses import dataclass, field
from time import perf_counter

import config
import layers
from checks import DigestBook, Tally, scalar_summary


@dataclass
class Rep:
    """One repetition: when it started (``perf_counter``), its wall
    seconds, the simulated references of the operations that completed,
    and one latency per operation."""

    started: float
    wall: float
    refs: int
    op_ms: list
    extras: dict = field(default_factory=dict)
    #: When each operation started, where known (``perf_counter``).
    op_starts: list = None


def _span(recorder, name):
    return recorder.span(name) if recorder is not None else contextlib.nullcontext()


class _Grid:
    """A job grid run through ``BatchRunner`` once per repetition."""

    name = ""
    backend = ""
    lanes = 1
    cpus = 1

    def __init__(self, seed: int, smoke: bool, tmp: str, tally: Tally) -> None:
        self.seed = seed
        self.smoke = smoke
        self.tmp = tmp
        self.tally = tally
        self.book = DigestBook(self.name, seed, smoke)
        self.digests = {}
        self.reps = 0

    def output_digest(self, summary) -> str:
        raise NotImplementedError

    def runner(self, rep_dir: str):
        raise NotImplementedError

    def rep(self, recorder) -> Rep:
        from repro.core.timing_kernels import stream_cache

        self.reps += 1
        rep_dir = os.path.join(self.tmp, f"rep-{self.reps}")
        flush_dir = os.path.join(rep_dir, "spans")
        os.makedirs(flush_dir)
        if recorder is not None:
            recorder.flush_dir = flush_dir
        stream_cache().clear()
        runner = self.runner(rep_dir)
        started = perf_counter()
        results = runner.run(self.specs)
        wall = perf_counter() - started
        if recorder is not None:
            recorder.spans.extend(layers.read_flushed(flush_dir))
        shutil.rmtree(rep_dir, ignore_errors=True)

        refs = 0
        op_ms, op_starts = [], []
        # Serial jobs run back to back in submission order.
        job_start = started
        for job in results:
            label = job.spec.label
            job_started, job_start = job_start, job_start + job.elapsed
            if not self.tally.attempt(job.ok, f"{label}: {getattr(job, 'message', '')}"):
                continue
            summary = job.summary
            self.tally.provenance(summary)
            if summary.backend != self.backend:
                self.tally.fail(f"{label}: ran on {summary.backend!r} "
                                f"({summary.fallback_reason}), expected {self.backend!r}")
                continue
            value = self.output_digest(summary)
            self.digests[label] = value
            if not self.book.check(self.tally, label, value):
                continue
            refs += summary.total_references
            op_ms.append(job.elapsed * 1000.0)
            op_starts.append(job_started)
        stats = runner.stats
        workers = max(runner.effective_jobs or 1, 1)
        self.lanes = 1 + workers if workers > 1 else 1
        extras = {
            "batch.utilization": stats.utilization,
            "batch.idle_s": wall * workers - stats.job_seconds,
            "batch.retries": stats.retries,
            "fast_simulator.fallbacks": sum(
                1 for job in results if job.ok and job.summary.fallback_reason),
        }
        return Rep(started, wall, refs, op_ms, extras,
                   op_starts if workers == 1 else None)

    def oracle_candidates(self) -> list:
        raise NotImplementedError

    def post_check(self) -> None:
        """Outside the timed region: one seeded job against the scalar
        oracle."""
        spec = random.Random(self.seed).choice(self.oracle_candidates())
        if spec.label not in self.digests:
            return
        value = self.output_digest(scalar_summary(spec))
        self.tally.attempt(
            value == self.digests[spec.label],
            f"{spec.label}: compiled output {self.digests[spec.label]} differs "
            f"from the scalar oracle's {value}",
        )

    def close(self) -> None:
        pass


class TimingGrid(_Grid):
    """Coupled timing cells, serially, no result cache."""

    name = "timing_grid"
    backend = "compiled"

    def setup(self, traced: bool = False) -> None:
        self.specs = config.timing_grid_specs(self.seed, self.smoke)
        self.specs.sort(key=lambda spec: config.PAPER_ORDER.index(spec.workload))

    def output_digest(self, summary) -> str:
        return config.summary_digest(summary.to_dict())

    def oracle_candidates(self) -> list:
        # radix and fft cells: the quickest on the scalar engine.
        return [spec for spec in self.specs if spec.workload in ("radix", "fft")]

    def runner(self, rep_dir: str):
        from repro.runner import BatchRunner

        return BatchRunner(jobs=1, cache=None, keep_going=True)


class SweepGrid(_Grid):
    """Record/replay sweeps on forked workers with a fresh trace store."""

    name = "sweep_grid"
    backend = "compiled+replay"
    cpus = config.SWEEP_JOBS

    def setup(self, traced: bool = False) -> None:
        self.specs = config.sweep_grid_specs(self.seed, self.smoke)

    def output_digest(self, summary) -> str:
        return config.study_digest(summary)

    def runner(self, rep_dir: str):
        from repro.runner import BatchRunner, TraceStore

        return BatchRunner(
            jobs=config.SWEEP_JOBS, cache=None, keep_going=True,
            trace_store=TraceStore(os.path.join(rep_dir, "traces")),
        )

    def oracle_candidates(self) -> list:
        # The coupled scalar sweep is the slowest oracle: the cheapest
        # bank grid of each workload.
        return [spec for spec in self.specs if spec.label.endswith("/table2")]


class TracedTiming:
    """One traced V-COMA radix run, then read, attribute, reconcile."""

    name = "traced_timing"
    lanes = 1
    cpus = 1

    def __init__(self, seed: int, smoke: bool, tmp: str, tally: Tally) -> None:
        self.seed = seed
        self.smoke = smoke
        self.tmp = tmp
        self.tally = tally
        self.book = DigestBook(self.name, seed, smoke)
        self.reps = 0
        self.summary_digest = None

    def setup(self, traced: bool = False) -> None:
        from repro import Scheme

        self.params = config.bench_params(self.seed)
        self.scheme = Scheme.V_COMA

    def _workload(self):
        from repro import make_workload

        return make_workload("radix", intensity=config.traced_intensity(self.smoke))

    def rep(self, recorder) -> Rep:
        from repro.analysis import run_timing
        from repro.core.timing_kernels import stream_cache
        from repro.obs import Tracer, read_trace
        from repro.obs.profile import attribute_costs
        from repro.runner import RunSummary

        self.reps += 1
        path = os.path.join(self.tmp, f"trace-{self.reps}.jsonl")
        stream_cache().clear()
        problem = None
        started = perf_counter()
        with _span(recorder, "trace.run"):
            with Tracer(path) as tracer:
                result = run_timing(self.params, self.scheme, self._workload(), 8,
                                    tracer=tracer)
        with _span(recorder, "profile.read"):
            records = read_trace(path)
        with _span(recorder, "profile.attribute"):
            summary = RunSummary.from_result(result)
            try:
                attribute_costs(records).reconcile(summary.to_metrics(), strict=True)
            except AssertionError as exc:
                problem = f"reconcile(strict=True) failed: {exc}"
        wall = perf_counter() - started
        size = os.path.getsize(path)
        os.unlink(path)

        extras = {
            "trace.bytes": size,
            "trace.records": len(records),
            "trace.compiled_runs": int(summary.backend == "compiled"),
            "fast_simulator.fallbacks": int(bool(summary.fallback_reason)),
        }
        self.tally.provenance(summary)
        ok = self.tally.attempt(problem is None, f"traced run: {problem}")
        engine_ok = summary.backend == "compiled" or (
            summary.backend == "scalar" and summary.fallback_reason == "tracing attached")
        ok = ok and self.tally.attempt(
            engine_ok, f"traced run: unexpected engine {summary.backend!r} "
                       f"({summary.fallback_reason})")
        self.summary_digest = config.summary_digest(summary.to_dict())
        ok = ok and self.book.check(self.tally, "summary", self.summary_digest)
        ok = ok and self.book.check(self.tally, "records", len(records))
        return Rep(started, wall, result.total_references if ok else 0,
                   [wall * 1000.0] if ok else [], extras, [started] if ok else [])

    def post_check(self) -> None:
        """The traced run took the scalar engine; an untraced run on the
        default engine must produce the same summary."""
        from repro.analysis import run_timing
        from repro.runner import RunSummary

        if self.summary_digest is None:
            return
        untraced = RunSummary.from_result(
            run_timing(self.params, self.scheme, self._workload(), 8))
        value = config.summary_digest(untraced.to_dict())
        self.tally.attempt(value == self.summary_digest,
                           f"traced summary {self.summary_digest} differs from "
                           f"the untraced run's {value}")

    def close(self) -> None:
        pass
