"""Host-speed sampling, so that a slow phase of the host does not read
as a slower program.

On a shared host each CPU's speed drifts: while another tenant loads
the core, the same instructions take up to twice as long, in phases of
seconds to minutes.  Wall time and CPU time both grow with it, so
neither separates host speed from code speed.

One sampler process per CPU the benchmark runs on times a fixed
pure-Python kernel (:func:`kernel`, no program code) in thread CPU
time every :data:`PERIOD_S` seconds.  CPU time excludes the time a
sampler waits for its CPU, so a sample measures how fast that CPU
executes, not how busy it is.  The benchmark pins itself to the CPUs
it samples: one for a serial workload, two when workers or a server
run beside it.  ``factor(t0, t1)`` is the mean sample
over ``[t0, t1]`` divided by :data:`NOMINAL_S`, the kernel's time on
an idle CPU of the host the benchmark was written on; dividing a
duration by it gives reference-host seconds.  The samplers take about
5% of each CPU, the same on every run.

    python3 perfbench/hostspeed.py CPU PATH    # one sampler (internal)
"""

from __future__ import annotations

import bisect
import os
import signal
import subprocess
import sys
import time

KERNEL_ITERATIONS = 20_000
PERIOD_S = 0.1
#: Kernel CPU seconds on an idle CPU of the reference host (a 2-vCPU
#: 2.0 GHz x86-64 VM); only sets the scale of the reported values.
NOMINAL_S = 0.0033
def kernel() -> None:
    table = {}
    acc = 0
    for i in range(KERNEL_ITERATIONS):
        table[i & 4095] = acc
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF


def sample(cpu: int, path: str) -> None:
    """Sample ``cpu`` until SIGTERM, appending ``time cpu_seconds`` lines."""
    os.sched_setaffinity(0, {cpu})
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    with open(path, "w") as out:
        while not stop:
            started = time.thread_time()
            kernel()
            out.write(f"{time.perf_counter()} {time.thread_time() - started}\n")
            out.flush()
            time.sleep(PERIOD_S)


class HostSpeed:
    """The samplers of one benchmark run and the samples they took."""

    def __init__(self, directory: str, cpus: int) -> None:
        """Pin this process (and so its children) to ``cpus`` CPUs and
        sample each: a serial workload runs where it is measured."""
        cpus = sorted(os.sched_getaffinity(0))[:cpus]
        os.sched_setaffinity(0, cpus)
        self.paths = [os.path.join(directory, f"host-cpu{cpu}.txt") for cpu in cpus]
        self.procs = [
            subprocess.Popen([sys.executable, os.path.abspath(__file__), str(cpu), path])
            for cpu, path in zip(cpus, self.paths)
        ]
        self.samples = []

    def stop(self) -> None:
        """Stop the samplers (once) and load their samples."""
        if not self.procs:
            return
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []
        for path in self.paths:
            if os.path.exists(path):
                with open(path) as handle:
                    for line in handle:
                        fields = line.split()
                        if len(fields) == 2:
                            self.samples.append((float(fields[0]), float(fields[1])))
        self.samples.sort()
        self.times = [when for when, _ in self.samples]

    def factor(self, start: float, end: float) -> float:
        """Mean slowdown against the reference host over ``[start, end]``
        (the four samples nearest its middle when it holds fewer than
        two)."""
        if not self.samples:
            raise RuntimeError("no host-speed samples were taken")
        low = bisect.bisect_left(self.times, start)
        high = bisect.bisect_right(self.times, end)
        if high - low < 2:
            middle = bisect.bisect_left(self.times, (start + end) / 2)
            low, high = max(0, middle - 2), middle + 2
        inside = [cpu for _, cpu in self.samples[low:high]]
        return sum(inside) / len(inside) / NOMINAL_S


if __name__ == "__main__":
    sample(int(sys.argv[1]), sys.argv[2])
