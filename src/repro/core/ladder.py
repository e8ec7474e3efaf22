"""The supervised degradation ladder: compiled → pure-Python.

Every simulation in this package can be produced by two engines, the
faster one needing gcc + cffi and the slower one nothing:

1. **compiled** — the ``fastsim.c`` columnar engine (gcc + cffi),
   ~8-12x the seed throughput.  Timing runs, uncoupled sweeps, trace
   captures and bank replay of recorded traces.
2. **scalar** — the pure-Python reference engines.  Always available;
   the differential-testing oracle the compiled tier is gated against.

Both tiers are bit-identical by construction (the equivalence suites
enforce it), so degrading is always *safe* — the ladder's job is to
make it **supervised**: each tier is probed for health, every
degradation is recorded with a structured ``fallback_reason`` (stamped
through ``RunResult`` → ``RunSummary`` → ``GridStats``), counted in the
runtime metrics registry (:mod:`repro.obs.runtime`), and reported to
the user exactly once.  ``repro doctor`` renders the resolved ladder
and exits non-zero when only the last-resort tier is left.

Deterministic failure injection for tests and CI lives here too:
``REPRO_FASTSIM_FAULT`` forces the compiled engine to fail in a chosen
way (``oom``, ``internal``, ``create``) so the degrade-to-scalar path
is provable without actually exhausting memory.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import ReproError

#: Force a deterministic compiled-engine failure: ``oom`` (allocation
#: failure after the C preload), ``create`` (engine construction
#: fails), or ``internal`` (sticky internal error status, after the C
#: preload).  Test/CI hook only.
FAULT_ENV = "REPRO_FASTSIM_FAULT"


class EngineDegraded(ReproError):
    """The compiled engine failed in a way the scalar oracle recovers
    from (allocation failure, internal error, injected fault) — the
    caller should re-run on the next ladder tier, not crash.

    Genuine simulation errors (``ProtocolError``, ``CapacityError``,
    deadlocks) are *not* wrapped: the scalar engine would raise them
    too, so degrading would only burn time reproducing the failure.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def injected_fault() -> Optional[str]:
    """The :data:`FAULT_ENV` fault kind, or None."""
    value = os.environ.get(FAULT_ENV, "").strip().lower()
    return value or None


# ---------------------------------------------------------------------------
# tier health probes
# ---------------------------------------------------------------------------


@dataclass
class TierHealth:
    """One ladder tier's probe result."""

    tier: str
    healthy: bool
    detail: str
    #: Tier-specific identity: library digest, Python version.
    version: Optional[str] = None
    extra: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "tier": self.tier,
            "healthy": self.healthy,
            "detail": self.detail,
            "version": self.version,
            **({"extra": dict(self.extra)} if self.extra else {}),
        }


def probe_compiled() -> TierHealth:
    """Health of the compiled fastsim tier (build + dlopen + self-test)."""
    from repro.core import timing_kernels as tk

    health = tk.backend_health()
    return TierHealth(
        tier="compiled",
        healthy=health["status"] == "ok",
        detail=health["detail"],
        version=health["digest"],
        extra={
            "path": health["path"],
            "cflags": list(health["cflags"]),
            "quarantined_libraries": health["quarantined_libraries"],
        },
    )


def probe_scalar() -> TierHealth:
    """The pure-Python last resort — healthy by definition."""
    return TierHealth(
        tier="scalar",
        healthy=True,
        detail="pure-Python reference engines (differential oracle)",
        version=sys.version.split()[0],
    )


def degradation_ladder() -> List[TierHealth]:
    """Probe every tier, fastest first."""
    return [probe_compiled(), probe_scalar()]


def resolved_tier(ladder: Optional[List[TierHealth]] = None) -> TierHealth:
    """The tier runs will actually execute on (first healthy rung)."""
    for tier in ladder or degradation_ladder():
        if tier.healthy:
            return tier
    raise ReproError("no healthy engine tier")  # scalar is unconditional


def only_last_resort(ladder: Optional[List[TierHealth]] = None) -> bool:
    """True when every tier above pure-Python is unhealthy (the
    condition under which ``repro doctor`` exits non-zero)."""
    rungs = ladder or degradation_ladder()
    return not any(tier.healthy for tier in rungs if tier.tier != "scalar")


def render_ladder(ladder: Optional[List[TierHealth]] = None) -> str:
    """Human-readable ladder report (the body of ``repro doctor``)."""
    from repro.obs.runtime import fallback_counts

    rungs = ladder or degradation_ladder()
    fallbacks = fallback_counts()
    lines = ["degradation ladder (fastest first):"]
    resolved = resolved_tier(rungs).tier
    for tier in rungs:
        mark = "ok " if tier.healthy else "BAD"
        arrow = " <- active" if tier.tier == resolved else ""
        version = f" [{tier.version}]" if tier.version else ""
        lines.append(f"  {mark}  {tier.tier:<9}{version} {tier.detail}{arrow}")
        path = tier.extra.get("path")
        if path:
            lines.append(f"       library: {path}")
        cflags = tier.extra.get("cflags")
        if cflags:
            lines.append(f"       cflags: {' '.join(cflags)}")
        quarantined = tier.extra.get("quarantined_libraries")
        if quarantined:
            lines.append(f"       quarantined libraries: {quarantined}")
        degraded = fallbacks.get(tier.tier)
        if degraded:
            lines.append(f"       degraded runs this process: {degraded}")
    return "\n".join(lines)
