"""Trace spans with DRAM-traffic attribution.

A *span* is one timed operation — a request, a commit batch, a
group commit, a replication root advance — with a name, a parent link,
and free-form attributes. The recorder follows the same discipline as
:class:`~repro.net.metrics.ServerMetrics`: the clock is injectable, so
under a deterministic testing clock a recorded trace is a pure function
of the workload and two runs of the same fuzz seed produce byte-identical
JSONL.

Tracing is **zero-cost when disabled**: the default recorder everywhere
is the module-level :data:`NULL_RECORDER`, whose ``enabled`` flag lets
hot paths skip even building attribute dicts::

    rec = router.recorder
    span = rec.begin("commit_batch", shard=shard) if rec.enabled else None
    ...
    if span is not None:
        rec.end(span, writes=writes)

**DRAM attribution** rides on spans: wrap the span's work in a
:class:`DramProbe` over the store's
:class:`~repro.memory.stats.DramStats` and close the span with
``rec.end(span, **probe.attrs())``; the per-category access deltas
accumulated inside it are attached as ``dram_reads``, ``dram_lookups``,
… attributes — one trace then answers *which memcached command caused
these lookup/refcount accesses* (the Figure 6 categories, attributed
per operation).

Export formats: JSONL (one span per line, stable field order) and the
Chrome ``trace_event`` format (load the file at ``chrome://tracing`` or
https://ui.perfetto.dev).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

__all__ = [
    "DramProbe",
    "NULL_RECORDER",
    "NullRecorder",
    "Span",
    "StepClock",
    "TraceRecorder",
    "load_jsonl",
    "render_spans",
    "to_chrome_trace",
]


class StepClock:
    """A monotonic clock advancing a fixed step per reading.

    Deterministic traces in tests: timestamps become call counts, so a
    trace's bytes depend only on the sequence of recorded events.
    """

    def __init__(self, step: float = 0.001, start: float = 0.0) -> None:
        self.step = step
        self.t = start

    def __call__(self) -> float:
        self.t += self.step
        return self.t


@dataclass
class Span:
    """One recorded operation; ``end`` is None while still open."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: Optional[float] = None
    attrs: Dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def to_dict(self) -> Dict:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class DramProbe:
    """Context manager capturing a DRAM-access delta around a block.

    ``probe.delta`` (a :class:`~repro.memory.stats.DramStats`) is valid
    after exit; :meth:`attrs` renders it as span attributes. Deferred
    traffic (cache writebacks, RC evictions) lands when it reaches DRAM,
    not necessarily inside the probed block — call
    :meth:`~repro.memory.system.MemorySystem.drain` first for exact
    per-operation attribution.
    """

    def __init__(self, dram) -> None:
        self.dram = dram
        self.delta = None
        self._before = None

    def __enter__(self) -> "DramProbe":
        self._before = self.dram.snapshot()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.delta = self.dram.delta(self._before)
        return False

    def attrs(self) -> Dict[str, int]:
        """``dram_<category>`` attributes for the captured delta."""
        if self.delta is None:
            return {}
        return {"dram_" + name: count
                for name, count in self.delta.as_dict().items()}


class NullRecorder:
    """The no-op recorder: every operation returns immediately.

    ``enabled`` is False so instrumented code can skip building
    attributes entirely; when a call does land here anyway it does no
    work and allocates nothing.
    """

    enabled = False

    def begin(self, name: str, parent: Optional[int] = None,
              **attrs) -> None:
        return None

    def end(self, span_id, **attrs) -> None:
        pass

    def attach(self, span_id, **attrs) -> None:
        pass


#: The process-wide default recorder — tracing off, zero overhead.
NULL_RECORDER = NullRecorder()


class TraceRecorder:
    """Records spans with an injectable monotonic clock."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.monotonic
                 ) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._by_id: Dict[int, Span] = {}
        self._next_id = 1

    # -- recording -----------------------------------------------------

    def begin(self, name: str, parent: Optional[int] = None,
              **attrs) -> int:
        """Open a span; returns its id (parent links are explicit —
        async interleaving makes an implicit stack wrong)."""
        span = Span(self._next_id, parent, name, self.clock(),
                    attrs=attrs)
        self._next_id += 1
        self.spans.append(span)
        self._by_id[span.span_id] = span
        return span.span_id

    def end(self, span_id: Optional[int], **attrs) -> None:
        if span_id is None:
            return
        span = self._by_id.get(span_id)
        if span is None or span.end is not None:
            return
        if attrs:
            span.attrs.update(attrs)
        span.end = self.clock()

    def attach(self, span_id: Optional[int], **attrs) -> None:
        """Add attributes to an open or closed span."""
        if span_id is None:
            return
        span = self._by_id.get(span_id)
        if span is not None:
            span.attrs.update(attrs)

    # -- queries -------------------------------------------------------

    def find(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, span_id: int) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span_id]

    # -- export --------------------------------------------------------

    def export_jsonl(self) -> str:
        """One span per line, stable field order — byte-reproducible
        under a deterministic clock."""
        return "".join(
            json.dumps(span.to_dict(), sort_keys=True,
                       separators=(",", ":")) + "\n"
            for span in self.spans)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.export_jsonl())


# ----------------------------------------------------------------------
# file-format helpers (the ``repro trace`` CLI works on these)


def load_jsonl(path) -> List[Dict]:
    """Load a recorded trace file back into span dicts."""
    spans = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


def to_chrome_trace(spans: List[Dict]) -> Dict:
    """Convert span dicts to the Chrome ``trace_event`` format.

    Spans become complete ("X") duration events, timestamped in
    microseconds; the connection attribute (when present) maps to the
    thread lane so concurrent connections render side by side.
    """
    events = []
    for span in spans:
        start = span["start"]
        end = span["end"] if span["end"] is not None else start
        attrs = span.get("attrs", {})
        tid = attrs.get("conn", 0)
        events.append({
            "name": span["name"],
            "ph": "X",
            "ts": round(start * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "pid": 1,
            "tid": tid if isinstance(tid, int) else 0,
            "args": dict(attrs, id=span["id"], parent=span["parent"]),
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def render_spans(spans: List[Dict], limit: int = 0) -> str:
    """Plain-text span dump: indentation follows parent links."""
    depth: Dict[int, int] = {}
    lines = ["%6s  %10s  %s" % ("id", "ms", "span")]
    shown = spans if limit <= 0 else spans[:limit]
    for span in shown:
        parent = span.get("parent")
        d = depth.get(parent, -1) + 1 if parent is not None else 0
        depth[span["id"]] = d
        start = span["start"]
        end = span["end"] if span["end"] is not None else start
        attrs = span.get("attrs", {})
        blob = " ".join("%s=%s" % (k, attrs[k]) for k in sorted(attrs))
        lines.append("%6d  %10.3f  %s%s%s"
                     % (span["id"], (end - start) * 1000.0,
                        "  " * d, span["name"],
                        (" [%s]" % blob) if blob else ""))
    if limit > 0 and len(spans) > limit:
        lines.append("... %d more span(s)" % (len(spans) - limit))
    return "\n".join(lines)
