"""Workload shapes, paths and small helpers shared by the benchmark.

Everything the simulator receives is generated here from the workload
seed (``--seed``), which becomes ``MachineParams.seed``: every random
substream of a run, the reference streams included, derives from it.
The shapes mirror the paper benches (``benchmarks/bench_common.py``,
``benchmarks/bench_throughput.py``, ``benchmarks/bench_service.py``)
but are copied, not imported, so a change to those scripts never
changes what this benchmark measures.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

#: Root of the checkout the benchmark runs in (the parent of this directory).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Everything the benchmark writes lives under this ignored directory.
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
#: Benchmark-private compiled-backend cache (``REPRO_FASTSIM_CACHE``).
LIB_DIR = os.path.join(OUT_DIR, "fastsim")
#: Parent of the per-run temporary roots (result/trace caches, traces).
TMP_DIR = os.path.join(OUT_DIR, "tmp")
#: Span dumps of the last layer-span run of each workload.
SPAN_DIR = os.path.join(OUT_DIR, "spans")

#: Committed output digests (see ``make_digests.py``).
DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

#: The seed the committed digests were generated at (the paper's year,
#: which is also ``MachineParams``' default seed).
DEFAULT_SEED = 1998

WORKLOADS = ("timing_grid", "sweep_grid", "service_mix", "traced_timing")

#: Paper presentation order and the per-workload intensities of the
#: paper benches (~12-20k references per node on the bench machine).
PAPER_ORDER = ("radix", "fft", "fmm", "ocean", "raytrace", "barnes")
INTENSITY = {
    "radix": 0.45,
    "fft": 0.25,
    "fmm": 1.0,
    "ocean": 0.2,
    "raytrace": 3.0,
    "barnes": 1.0,
}

#: Forked workers for ``sweep_grid``.
SWEEP_JOBS = 2


def use_source_tree() -> None:
    """Make ``import repro`` resolve to this checkout's ``src``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def bench_params(seed: int):
    """The paper benches' machine: 8 nodes, 512 B pages, memories / 8."""
    from repro import MachineParams

    return MachineParams.scaled_down(factor=8, nodes=8, page_size=512, seed=seed)


def service_params(seed: int):
    """The service bench's tiny 2-node machine."""
    from repro import MachineParams

    return MachineParams.scaled_down(factor=256, nodes=2, page_size=256, seed=seed)


def bank_configs():
    """The five (label, sizes, orgs) bank grids of the sweep grid."""
    from repro.core.tlb import Organization

    fa = Organization.FULLY_ASSOCIATIVE
    sa = Organization.SET_ASSOCIATIVE
    dm = Organization.DIRECT_MAPPED
    return (
        ("fig8", (8, 32, 128, 512), (fa, dm)),
        ("table2", (8, 32, 128), (fa,)),
        ("small", (8, 16, 32, 64), (fa, sa)),
        ("medium", (16, 64, 256), (fa, dm)),
        ("assoc", (32, 128, 512), (sa, dm)),
    )


def timing_grid_specs(seed: int, smoke: bool = False) -> list:
    """Table 4 / Figure 10: six workloads x {L0-TLB, V-COMA} x {8, 16} FA."""
    from repro import Scheme
    from repro.runner import JobSpec

    params = bench_params(seed)
    names = PAPER_ORDER[:2] if smoke else PAPER_ORDER
    entries = (8,) if smoke else (8, 16)
    return [
        JobSpec.timing(
            params, scheme, name, size,
            overrides={"intensity": INTENSITY[name] / (4 if smoke else 1)},
            label=f"{name}/{scheme.value}/{size}",
        )
        for name in names
        for scheme in (Scheme.L0_TLB, Scheme.V_COMA)
        for size in entries
    ]


def sweep_grid_specs(seed: int, smoke: bool = False) -> list:
    """Figures 8/9, Tables 2/3: six workloads x five bank grids."""
    from repro.runner import JobSpec

    params = bench_params(seed)
    names = PAPER_ORDER[:2] if smoke else PAPER_ORDER
    configs = bank_configs()[:2] if smoke else bank_configs()
    return [
        JobSpec.sweep(
            params, name, sizes=sizes, orgs=orgs,
            overrides={"intensity": INTENSITY[name] / (4 if smoke else 1)},
            label=f"{name}/{label}",
        )
        for name in names
        for label, sizes, orgs in configs
    ]


def traced_intensity(smoke: bool) -> float:
    return 0.05 if smoke else 0.2


def digest(payload) -> str:
    """Short SHA-256 of a JSON-canonical payload (tuples become lists)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def summary_digest(summary_dict: dict) -> str:
    """Digest of a serialized RunSummary minus its engine tags."""
    payload = {k: v for k, v in summary_dict.items()
               if k not in ("backend", "fallback_reason")}
    return digest(json.loads(json.dumps(payload)))


def study_digest(summary) -> str:
    """Digest of a sweep's miss counts (the bench's ``study_fingerprint``)."""
    return digest(json.loads(json.dumps(summary.study_results().to_dict())))


def load_digests() -> dict:
    with open(DIGEST_FILE) as handle:
        return json.load(handle)


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))  # ceil
    return ordered[int(min(rank, len(ordered))) - 1]
