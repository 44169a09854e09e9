"""The metrics registry: one namespace over every counter in the stack.

The paper's evaluation is a telemetry exercise — Figures 6–7 count DRAM
accesses by category, §5.1.1 counts merge-resolved CAS races — and the
repo grew three disconnected silos for exactly those numbers
(:class:`~repro.net.metrics.ServerMetrics`,
:class:`~repro.replication.metrics.ReplicationMetrics`,
:class:`~repro.memory.stats.DramStats`). This module is the single pane
of glass over all of them: instruments are *registered once* and *read
at collection time* through callbacks, so the silos keep their hot-path
layout (plain dataclass fields) and their legacy ``stats`` /
``stats json`` output stays byte-identical while the registry gains a
Prometheus text exposition and a JSON snapshot of the same values.

Three instrument kinds, mirroring the Prometheus data model:

* :class:`Counter` — monotonically increasing totals (ops, bytes,
  commit batches, DRAM accesses);
* :class:`Gauge` — point-in-time values (queue high-watermarks,
  replication lag, latency quantiles from the reservoir);
* :class:`Histogram` — fixed-bucket distributions with cumulative
  ``le`` bucket semantics (a sample equal to a bound lands *in* that
  bound's bucket).

Everything is single-threaded-asyncio friendly: no locks, collection is
a pure read.
"""

from __future__ import annotations

import json
import math
import re
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_exposition",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError("bad metric name %r" % name)
    return name


def _format_value(value) -> str:
    """Prometheus sample formatting: ints stay ints, floats round-trip."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


class _Metric:
    """Shared plumbing for all instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = (),
                 fn: Optional[Callable] = None) -> None:
        self.name = _check_name(name)
        self.help = help
        self.label_names = tuple(labels)
        for label in self.label_names:
            if not _LABEL_RE.match(label):
                raise ValueError("bad label name %r" % label)
        #: read-at-collect callback; returns a number (unlabeled) or a
        #: ``{label value(s): number}`` mapping (labeled)
        self.fn = fn
        self._values: Dict[Tuple[str, ...], float] = {}

    # -- write side (no-op when a callback owns the value) -------------

    def _key(self, label_values: Tuple[str, ...]) -> Tuple[str, ...]:
        if len(label_values) != len(self.label_names):
            raise ValueError(
                "%s expects %d label value(s), got %d"
                % (self.name, len(self.label_names), len(label_values)))
        return tuple(str(v) for v in label_values)

    # -- read side -----------------------------------------------------

    def samples(self) -> List[Tuple[Tuple[str, ...], float]]:
        """``(label values, value)`` pairs, deterministically ordered."""
        if self.fn is not None:
            raw = self.fn()
            if self.label_names:
                return [((str(k),) if not isinstance(k, tuple)
                         else tuple(str(p) for p in k), v)
                        for k, v in sorted(
                            raw.items(), key=lambda kv: str(kv[0]))]
            return [((), raw)]
        return sorted(self._values.items())

    def snapshot_value(self):
        """JSON-safe value for :meth:`MetricsRegistry.snapshot`."""
        samples = self.samples()
        if not self.label_names:
            return samples[0][1] if samples else 0
        return {",".join(labels): value for labels, value in samples}


class Counter(_Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def inc(self, amount: float = 1, *label_values) -> None:
        key = self._key(tuple(label_values))
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, *label_values) -> float:
        return self._values.get(self._key(tuple(label_values)), 0)


class Gauge(_Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def set(self, value: float, *label_values) -> None:
        self._values[self._key(tuple(label_values))] = value

    def value(self, *label_values) -> float:
        return self._values.get(self._key(tuple(label_values)), 0)


class Histogram(_Metric):
    """A fixed-bucket distribution with cumulative ``le`` buckets.

    ``buckets`` are the finite upper bounds, strictly increasing; a
    ``+Inf`` bucket is implicit. A sample exactly equal to a bound is
    counted in that bound's bucket (``value <= le``).
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = (), labels: Sequence[str] = ()
                 ) -> None:
        if not buckets:
            raise ValueError("histogram %s needs explicit buckets" % name)
        bounds = [float(b) for b in buckets]
        if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must strictly increase")
        super().__init__(name, help, labels)
        self.bounds = bounds
        #: label values -> (per-bucket counts incl. +Inf, sum, count)
        self._series: Dict[Tuple[str, ...], List] = {}

    def observe(self, value: float, *label_values) -> None:
        key = self._key(tuple(label_values))
        series = self._series.get(key)
        if series is None:
            series = [[0] * (len(self.bounds) + 1), 0.0, 0]
            self._series[key] = series
        counts, _, _ = series
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
        series[1] += value
        series[2] += 1

    def series(self) -> List[Tuple[Tuple[str, ...], List[int], float, int]]:
        """``(labels, cumulative bucket counts, sum, count)`` rows."""
        rows = []
        for key in sorted(self._series):
            counts, total, count = self._series[key]
            cumulative, running = [], 0
            for c in counts:
                running += c
                cumulative.append(running)
            rows.append((key, cumulative, total, count))
        return rows

    def snapshot_value(self):
        out = {}
        for labels, cumulative, total, count in self.series():
            bucket_map = {
                _format_value(b): c
                for b, c in zip(self.bounds, cumulative)}
            bucket_map["+Inf"] = cumulative[-1]
            out[",".join(labels)] = {
                "count": count,
                "sum": total,
                "buckets": bucket_map,
            }
        if not self.label_names:
            return out.get("", {"count": 0, "sum": 0.0, "buckets": {}})
        return out


class MetricsRegistry:
    """A named collection of instruments with two exposition formats."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    # -- registration --------------------------------------------------

    def _add(self, metric: _Metric) -> _Metric:
        if metric.name in self._metrics:
            raise ValueError("metric %r already registered" % metric.name)
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = (),
                fn: Optional[Callable] = None) -> Counter:
        return self._add(Counter(name, help, labels, fn))

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = (),
              fn: Optional[Callable] = None) -> Gauge:
        return self._add(Gauge(name, help, labels, fn))

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = (),
                  labels: Sequence[str] = ()) -> Histogram:
        return self._add(Histogram(name, help, buckets, labels))

    # -- read side -----------------------------------------------------

    def get(self, name: str) -> _Metric:
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self) -> Dict:
        """JSON-safe ``{metric name: value(s)}`` document."""
        return {name: self._metrics[name].snapshot_value()
                for name in self.names()}

    def snapshot_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True)

    def exposition(self) -> str:
        """Prometheus text exposition format, version 0.0.4."""
        lines: List[str] = []
        for name in self.names():
            metric = self._metrics[name]
            if metric.help:
                lines.append("# HELP %s %s" % (name, metric.help))
            lines.append("# TYPE %s %s" % (name, metric.kind))
            if isinstance(metric, Histogram):
                self._expose_histogram(lines, metric)
                continue
            for label_values, value in metric.samples():
                lines.append("%s%s %s" % (
                    name,
                    self._label_block(metric.label_names, label_values),
                    _format_value(value)))
        return "\n".join(lines) + "\n"

    @staticmethod
    def _label_block(names: Sequence[str],
                     values: Sequence[str],
                     extra: Sequence[Tuple[str, str]] = ()) -> str:
        pairs = [(n, str(v)) for n, v in zip(names, values)]
        pairs.extend(extra)
        if not pairs:
            return ""
        return "{%s}" % ",".join(
            '%s="%s"' % (n, _escape_label(v)) for n, v in pairs)

    def _expose_histogram(self, lines: List[str],
                          metric: Histogram) -> None:
        for labels, cumulative, total, count in metric.series():
            bounds = [_format_value(b) for b in metric.bounds] + ["+Inf"]
            for bound, c in zip(bounds, cumulative):
                lines.append("%s_bucket%s %d" % (
                    metric.name,
                    self._label_block(metric.label_names, labels,
                                      extra=[("le", bound)]),
                    c))
            block = self._label_block(metric.label_names, labels)
            lines.append("%s_sum%s %s"
                         % (metric.name, block, _format_value(total)))
            lines.append("%s_count%s %d" % (metric.name, block, count))


def parse_exposition(text: str) -> Dict[Tuple[str, Tuple[Tuple[str, str],
                                                         ...]], float]:
    """Parse Prometheus text exposition into ``{(name, labels): value}``.

    ``labels`` is a sorted tuple of ``(label, value)`` pairs. Used by the
    ``repro metrics`` CLI and the smoke test that cross-checks the
    exposition against ``stats json``.
    """
    out: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ValueError("unparseable sample line %r" % line)
        labels: List[Tuple[str, str]] = []
        name = name_part
        if "{" in name_part:
            name, _, rest = name_part.partition("{")
            body = rest.rsplit("}", 1)[0]
            for item in re.findall(r'(\w+)="((?:[^"\\]|\\.)*)"', body):
                label, raw = item
                value = raw.replace('\\"', '"').replace("\\n", "\n") \
                    .replace("\\\\", "\\")
                labels.append((label, value))
        if value_part == "+Inf":
            value = math.inf
        elif value_part == "-Inf":
            value = -math.inf
        else:
            value = float(value_part)
        out[(name, tuple(sorted(labels)))] = value
    return out


def sample(parsed: Dict, name: str, **labels) -> float:
    """Convenience lookup into :func:`parse_exposition` output."""
    return parsed[(name, tuple(sorted(
        (k, str(v)) for k, v in labels.items())))]
