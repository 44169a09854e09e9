"""Latency percentiles: the one definition every report uses.

The ``stats`` command (:class:`~repro.net.metrics.ServerMetrics`) and
the ``stats prom`` exposition (:mod:`repro.obs.adapters`) both
summarize a latency population through :func:`latency_summary`, so
their numbers agree on definitions.
"""

from __future__ import annotations

from typing import Dict, Sequence


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile; 0.0 on an empty population."""
    if not samples:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction out of [0, 1]")
    ordered = sorted(samples)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def latency_summary(samples_ms: Sequence[float]) -> Dict[str, float]:
    """p50/p90/p99/max of a latency population, in milliseconds."""
    return {
        "p50_ms": round(percentile(samples_ms, 0.50), 3),
        "p90_ms": round(percentile(samples_ms, 0.90), 3),
        "p99_ms": round(percentile(samples_ms, 0.99), 3),
        "max_ms": round(max(samples_ms), 3) if samples_ms else 0.0,
    }
