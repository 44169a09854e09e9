"""Unified observability: metrics registry, trace spans, DRAM
attribution.

The evaluation of the source paper is a telemetry exercise — DRAM
accesses by category (Figures 6–7), merge-resolved CAS races (§5.1.1) —
and this package makes the whole serving stack observable with the same
rigor:

* :mod:`repro.obs.registry` — labeled counters, gauges and fixed-bucket
  histograms with Prometheus text exposition and a JSON snapshot;
* :mod:`repro.obs.adapters` — callback-backed registration of the three
  legacy silos (``ServerMetrics``, ``ReplicationMetrics``,
  ``DramStats``) so one registry exposes everything without changing
  the silos' own output;
* :mod:`repro.obs.trace` — spans with an injectable monotonic clock,
  propagated request → commit-queue batch → group commit → replication
  root advance, exportable as JSONL and Chrome ``trace_event``; DRAM
  deltas attach to the enclosing span (``DramProbe``).

Tracing is off by default (:data:`~repro.obs.trace.NULL_RECORDER` is a
no-op) and deterministic under a testing clock, so fuzz traces stay
bit-reproducible. See ``docs/observability.md``.
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_exposition,
)
from repro.obs.trace import (
    NULL_RECORDER,
    DramProbe,
    NullRecorder,
    Span,
    StepClock,
    TraceRecorder,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_exposition",
    "NULL_RECORDER",
    "DramProbe",
    "NullRecorder",
    "Span",
    "StepClock",
    "TraceRecorder",
]
