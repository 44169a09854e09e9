"""Unified observability: metrics registry, trace spans, DRAM
attribution.

The evaluation of the source paper is a telemetry exercise — DRAM
accesses by category (Figures 6–7), merge-resolved CAS races (§5.1.1) —
and this package makes the whole serving stack observable with the same
rigor, one mechanism per job:

* :mod:`repro.obs.registry` — labeled counters and gauges, each read
  through a callback off the silo that owns its value, with one output:
  the Prometheus text exposition (``stats prom``);
* :mod:`repro.obs.adapters` — the registrations of the silos
  (``ServerMetrics``, ``ReplicationMetrics``, ``DramStats``, the store,
  the memo, …), so one registry exposes everything without changing
  the silos' own output;
* :mod:`repro.obs.trace` — spans with an injectable monotonic clock,
  propagated request → commit batch → group commit → replication
  root advance, exportable as JSONL and Chrome ``trace_event``; a
  :class:`DramProbe` around a span's work attaches its DRAM deltas.

Tracing is off by default (:data:`~repro.obs.trace.NULL_RECORDER` is a
no-op) and deterministic under a testing clock, so fuzz traces stay
bit-reproducible. See ``docs/observability.md``.
"""

from repro.obs.registry import MetricsRegistry, parse_exposition
from repro.obs.trace import (
    NULL_RECORDER,
    DramProbe,
    StepClock,
    TraceRecorder,
)

__all__ = [
    "MetricsRegistry",
    "parse_exposition",
    "NULL_RECORDER",
    "DramProbe",
    "StepClock",
    "TraceRecorder",
]
