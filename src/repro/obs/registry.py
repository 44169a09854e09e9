"""The metrics registry: one namespace over every counter in the stack.

The paper's evaluation is a telemetry exercise — Figures 6–7 count DRAM
accesses by category, §5.1.1 counts merge-resolved CAS races — and the
repo grew separate silos for exactly those numbers
(:class:`~repro.net.metrics.ServerMetrics`,
:class:`~repro.replication.metrics.ReplicationMetrics`,
:class:`~repro.memory.stats.DramStats`, …). This module is one view
over all of them: an instrument is *registered once* with a callback
and *read at collection time*, so the silo that owns a value stays its
single source of truth, keeps its hot-path layout (plain dataclass
fields bumped inline), and its ``stats`` / ``stats json`` output stays
byte-identical. The registry owns no values and has one output: the
Prometheus text exposition (:meth:`MetricsRegistry.exposition`, served
in-band by ``stats prom``).

An instrument's ``kind`` is ``"counter"`` (a monotonically increasing
total: ops, bytes, commit batches, DRAM accesses) or ``"gauge"`` (a
point-in-time value: pipeline depth, replication lag, latency
quantiles read off a silo's reservoir).

Everything is single-threaded-asyncio friendly: no locks, collection is
a pure read.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = [
    "MetricsRegistry",
    "parse_exposition",
    "sample",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_ESCAPED_RE = re.compile(r"\\(.)")


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


def _unescape_label(value: str) -> str:
    """Invert :func:`_escape_label` in one left-to-right pass."""
    return _ESCAPED_RE.sub(
        lambda m: "\n" if m.group(1) == "n" else m.group(1), value)


class Instrument:
    """A named counter or gauge whose value a silo owns.

    ``fn`` is read at collection time and returns a number (unlabeled)
    or a ``{label value(s): number}`` mapping (labeled).
    """

    def __init__(self, kind: str, name: str, help: str,
                 labels: Sequence[str], fn: Callable) -> None:
        if not _NAME_RE.match(name):
            raise ValueError("bad metric name %r" % name)
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError("bad label name %r" % label)
        self.kind = kind
        self.name = name
        self.help = help
        self.label_names = tuple(labels)
        self.fn = fn

    def samples(self) -> List[Tuple[Tuple[str, ...], float]]:
        """``(label values, value)`` pairs, deterministically ordered."""
        raw = self.fn()
        if not self.label_names:
            return [((), raw)]
        return [((str(k),) if not isinstance(k, tuple)
                 else tuple(str(p) for p in k), v)
                for k, v in sorted(raw.items(), key=lambda kv: str(kv[0]))]


class MetricsRegistry:
    """A named collection of instruments with one exposition format."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Instrument] = {}

    def _add(self, metric: Instrument) -> None:
        if metric.name in self._metrics:
            raise ValueError("metric %r already registered" % metric.name)
        self._metrics[metric.name] = metric

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = (), *, fn: Callable) -> None:
        self._add(Instrument("counter", name, help, labels, fn))

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = (), *, fn: Callable) -> None:
        self._add(Instrument("gauge", name, help, labels, fn))

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def exposition(self) -> str:
        """Prometheus text exposition format, version 0.0.4."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append("# HELP %s %s" % (name, metric.help))
            lines.append("# TYPE %s %s" % (name, metric.kind))
            for label_values, value in metric.samples():
                lines.append("%s%s %s" % (
                    name,
                    _label_block(metric.label_names, label_values),
                    _format_value(value)))
        return "\n".join(lines) + "\n"


def _label_block(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    return "{%s}" % ",".join(
        '%s="%s"' % (n, _escape_label(str(v))) for n, v in zip(names, values))


def parse_exposition(text: str) -> Dict[Tuple[str, Tuple[Tuple[str, str],
                                                         ...]], float]:
    """Parse Prometheus text exposition into ``{(name, labels): value}``.

    ``labels`` is a sorted tuple of ``(label, value)`` pairs. This is
    the exposition's reference parser: the tests read metrics through it
    (the smoke test cross-checks it against ``stats json``). The
    ``repro metrics`` CLI prints the raw exposition.
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
            for label, raw in re.findall(r'(\w+)="((?:[^"\\]|\\.)*)"', body):
                labels.append((label, _unescape_label(raw)))
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
