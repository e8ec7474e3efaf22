"""The repository benchmark: one workload per run, end to end or by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Run from the root of a checkout.  The last line of standard output is
one JSON object::

    {"correct": true, "attempted": 96, "failed": 0,
     "metrics": {"refs_per_s": {"value": 539121.7, "unit": "refs/s"}, ...}}

``--trace 0`` reports the end-to-end metrics (:data:`END_TO_END`),
``--trace 1`` the per-layer metrics (:data:`PER_LAYER`): repetitions
then alternate between untraced and span-recording ones, and
``span.overhead`` is the ratio of their throughputs.  ``--smoke``
shrinks every workload for the benchmark's own test.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

import time

_STARTED = time.perf_counter()  # set-up time is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import config  # noqa: E402

#: End-to-end metrics, reported with ``--trace 0``: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "refs_per_s": "refs/s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics, reported with ``--trace 1``: name -> unit.  A
#: metric a workload does not exercise reads 0.
PER_LAYER = {
    "workloads.drain_s": "s",
    "workloads.drained_refs": "count",
    "stream_cache.hit_ratio": "ratio",
    "machine.build_s": "s",
    "machine.preload_s": "s",
    "machine.builds": "count",
    "fast_simulator.c_s": "s",
    "fast_simulator.export_s": "s",
    "fast_simulator.glue_s": "s",
    "fast_simulator.c_share": "ratio",
    "fast_simulator.compiled_runs": "count",
    "fast_simulator.fallbacks": "count",
    "taptrace.capture_s": "s",
    "taptrace.captures": "count",
    "taptrace.capture_useful_ratio": "ratio",
    "replay.s": "s",
    "replay.bank_runs": "count",
    "replay.c_share": "ratio",
    "trace_store.get_s": "s",
    "trace_store.put_s": "s",
    "trace_store.hit_ratio": "ratio",
    "result_cache.get_s": "s",
    "result_cache.put_s": "s",
    "result_cache.hit_ratio": "ratio",
    "batch.job_s": "s",
    "batch.dispatch_s": "s",
    "batch.utilization": "ratio",
    "batch.idle_s": "s",
    "batch.retries": "count",
    "service.post_ms": "ms",
    "service.results_ms": "ms",
    "service.warm_ratio": "ratio",
    "service.coalesced_ratio": "ratio",
    "service.simulations": "count",
    "trace.run_s": "s",
    "trace.bytes": "bytes",
    "trace.records": "count",
    "profile.read_s": "s",
    "profile.attribute_s": "s",
    "trace.compiled_runs": "count",
    "other_s": "s",
    "span.overhead": "ratio",
    "host.slowdown": "ratio",
}

#: Set-up is sampled this many times per run (this process plus fresh
#: ``--setup-only`` processes); ``setup_s`` is the median.
SETUP_SAMPLES = 3

#: Environment knobs that would take a run off the default engines.
_ENGINE_KNOBS = (
    "REPRO_NO_FAST_TIMING", "REPRO_NO_FAST_SWEEP", "REPRO_NO_NUMBA",
    "REPRO_NO_NUMPY", "REPRO_NO_REPLAY", "REPRO_NO_CACHE",
    "REPRO_STREAM_CACHE_MB", "REPRO_FASTSIM_CFLAGS", "REPRO_FAULT",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=config.WORKLOADS)
    parser.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads, for the benchmark's own test")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print {\"setup_window\": [start, end]} and exit")
    return parser.parse_args(argv)


def prepare_environment(tmp: str) -> None:
    """Keep every cache inside the checkout, on the default engines."""
    for knob in _ENGINE_KNOBS:
        os.environ.pop(knob, None)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(tmp, "cache")
    os.environ["REPRO_HISTORY_DIR"] = os.path.join(tmp, "history")
    os.environ["REPRO_FASTSIM_CACHE"] = config.LIB_DIR
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None


def make_workload(args, tmp: str, tally):
    config.use_source_tree()
    import grids
    import service_load

    classes = {
        "timing_grid": grids.TimingGrid,
        "sweep_grid": grids.SweepGrid,
        "traced_timing": grids.TracedTiming,
        "service_mix": service_load.ServiceMix,
    }
    return classes[args.workload](args.seed, args.smoke, tmp, tally)


def setup(args, workload) -> None:
    """Imports, compiled-backend resolution, workload inputs, and for
    service_mix the server start and warm-set fill."""
    from repro.core.replay import get_numpy
    from repro.core.timing_kernels import backend_status

    status = backend_status()
    get_numpy()  # the engines import numpy lazily on first use
    print(f"perfbench: compiled backend: {status}", file=sys.stderr)
    workload.setup(traced=bool(args.trace))


def measure(workload, seconds: float, trace: bool):
    """Repetitions until ``seconds`` have passed.  With ``trace`` every
    second repetition records layer spans (at least one of each)."""
    import layers

    reps = []
    recorder = layers.Recorder() if trace else None
    started = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        probes = layers.Probes(recorder).install() if traced else None
        try:
            rep = workload.rep(recorder if traced else None)
        finally:
            if probes is not None:
                probes.remove()
        reps.append((rep, traced))
        print(f"perfbench: repetition {len(reps)}{' (spans)' if traced else ''}: "
              f"{rep.wall:.3f} s, {len(rep.op_ms)} ops, {rep.refs} refs", file=sys.stderr)
        if time.perf_counter() - started >= seconds and (not trace or len(reps) >= 2):
            return reps, recorder


def peak_rss_mb() -> float:
    """This process plus its largest waited child: a forked worker or,
    for service_mix, a stopped server."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def child_setup_window(args):
    """``(start, end)`` of a fresh process's set-up (``perf_counter`` is
    system-wide, so the host-speed samples cover it)."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=config.ROOT, capture_output=True, text=True,
                          timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{done.stderr}")
    return tuple(json.loads(done.stdout.strip().splitlines()[-1])["setup_window"])


def end_to_end(reps, setup_windows, rss_mb: float, host) -> dict:
    """Medians over the untraced repetitions, in reference-host time:
    each duration is divided by the host-speed factor measured over it
    (``hostspeed.py``) -- an operation's own interval where its start is
    known, else its repetition's.  Latency percentiles are taken per
    repetition, then their median."""
    rates, op_rates, p50s, p90s = [], [], [], []
    for rep, traced in reps:
        if traced:
            continue
        factor = host.factor(rep.started, rep.started + rep.wall)
        rates.append(rep.refs * factor / rep.wall)
        op_rates.append(len(rep.op_ms) * factor / rep.wall)
        if rep.op_starts is None:  # parallel jobs: the repetition's factor
            latencies = [ms / factor for ms in rep.op_ms]
        else:
            latencies = [ms / host.factor(start, start + ms / 1000.0)
                         for start, ms in zip(rep.op_starts, rep.op_ms)]
        p50s.append(config.median(latencies))
        p90s.append(config.percentile(latencies, 90))
    return {
        "setup_s": config.median([(end - start) / host.factor(start, end)
                                  for start, end in setup_windows]),
        "refs_per_s": config.median(rates),
        "ops_per_s": config.median(op_rates),
        "op_p50_ms": config.median(p50s),
        "op_p90_ms": config.median(p90s),
        "peak_rss_mb": rss_mb,
    }


def per_layer(reps, recorder, lanes: int, host) -> dict:
    """Per-layer metrics of the span-recording repetitions, their times
    in reference-host time like the end-to-end metrics."""
    import layers

    factors = {id(rep): host.factor(rep.started, rep.started + rep.wall)
               for rep, _ in reps}
    traced = [rep for rep, was_traced in reps if was_traced]
    plain = [rep for rep, was_traced in reps if not was_traced]
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(layers.layer_metrics(
        recorder.spans, len(traced), sum(rep.wall for rep in traced), lanes))
    for key in {key for rep in traced for key in rep.extras}:
        values = [rep.extras.get(key, 0.0) for rep in traced]
        metrics[key] = sum(values) / len(values)
    slowdown = sum(factors[id(rep)] for rep in traced) / len(traced)
    for name, unit in PER_LAYER.items():
        if unit in ("s", "ms"):
            metrics[name] /= slowdown
    metrics["host.slowdown"] = slowdown

    def rate(group):
        return config.median([len(rep.op_ms) * factors[id(rep)] / rep.wall
                              for rep in group])

    metrics["span.overhead"] = rate(plain) / rate(traced) if rate(traced) else 0.0
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not config.program_present():
        print(f"perfbench: no program sources under {config.SRC}", file=sys.stderr)
        return 2
    os.makedirs(config.TMP_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=config.TMP_DIR)
    prepare_environment(tmp)

    from checks import Tally

    tally = Tally()
    workload = host = None
    try:
        workload = make_workload(args, tmp, tally)
        if not args.setup_only:
            from hostspeed import HostSpeed

            host = HostSpeed(tmp, workload.cpus)
        setup(args, workload)
        setup_windows = [(_STARTED, time.perf_counter())]
        if args.setup_only:
            print(json.dumps({"setup_window": setup_windows[0]}))
            return 0
        reps, recorder = measure(workload, args.seconds, bool(args.trace))
        workload.close()
        rss_mb = peak_rss_mb()
        if not args.trace:
            setup_windows += [child_setup_window(args)
                              for _ in range(SETUP_SAMPLES - 1)]
        host.stop()
        for index, (rep, _) in enumerate(reps, 1):
            print(f"perfbench: repetition {index}: host slowdown "
                  f"{host.factor(rep.started, rep.started + rep.wall):.3f}",
                  file=sys.stderr)
        workload.post_check()

        if args.trace:
            metrics = per_layer(reps, recorder, workload.lanes, host)
            units = PER_LAYER
            os.makedirs(config.SPAN_DIR, exist_ok=True)
            recorder.dump(os.path.join(config.SPAN_DIR, f"{args.workload}.jsonl"))
        else:
            metrics = end_to_end(reps, setup_windows, rss_mb, host)
            units = END_TO_END
        if tally.backends:
            print(f"perfbench: engines {dict(tally.backends)}; fallbacks "
                  f"{dict(tally.fallbacks)}", file=sys.stderr)
        result = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                        for name, unit in units.items()},
        }
        print(json.dumps(result))
        return 0
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        if workload is not None:
            workload.close()
        if host is not None:
            host.stop()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
