"""Trace recorder: spans, determinism, DRAM attribution, exports."""

import json

import pytest

from repro.errors import ReplicationError
from repro.memory.stats import CATEGORIES, DramStats
from repro.obs.trace import (
    NULL_RECORDER,
    DramProbe,
    NullRecorder,
    StepClock,
    TraceRecorder,
    load_jsonl,
    render_spans,
    to_chrome_trace,
)
from repro.replication import wire
from repro.replication.follower import ReplicationFollower


# ----------------------------------------------------------------------
# clocks


def test_step_clock_advances_deterministically():
    clock = StepClock(step=0.5)
    assert clock() == 0.5
    assert clock() == 1.0
    assert clock() == 1.5


# ----------------------------------------------------------------------
# recording


def test_begin_end_records_one_span():
    rec = TraceRecorder(clock=StepClock())
    sid = rec.begin("request", conn=1)
    rec.end(sid, response_bytes=8)
    (span,) = rec.spans
    assert span.name == "request"
    assert span.attrs == {"conn": 1, "response_bytes": 8}
    assert span.end is not None and span.end > span.start
    assert span.duration > 0


def test_parent_links_are_explicit():
    rec = TraceRecorder(clock=StepClock())
    parent = rec.begin("commit_batch")
    child = rec.begin("merge_update", parent=parent)
    rec.end(child)
    rec.end(parent)
    assert [s.span_id for s in rec.children(parent)] == [child]
    assert rec.find("merge_update")[0].parent_id == parent


def test_end_is_idempotent_and_tolerates_none():
    rec = TraceRecorder(clock=StepClock())
    sid = rec.begin("x")
    rec.end(sid)
    first_end = rec.spans[0].end
    rec.end(sid)          # second end must not move the timestamp
    rec.end(None)         # the disabled-path sentinel
    rec.end(999)          # unknown id
    assert rec.spans[0].end == first_end


def test_attach_adds_attrs_without_closing():
    rec = TraceRecorder(clock=StepClock())
    sid = rec.begin("batch")
    rec.attach(sid, vsid=3)
    assert rec.spans[0].end is None
    assert rec.spans[0].attrs == {"vsid": 3}
    rec.attach(None)  # no-op


def test_advance_apply_span_closes_on_exception():
    """A follower's ``advance_apply`` span closes, with its DRAM
    delta attached, when applying the root advance raises."""
    rec = TraceRecorder(clock=StepClock())
    follower = ReplicationFollower("127.0.0.1", 0, recorder=rec)
    payload = wire.encode_advance_payload(0, 1, 1, 0, 0, 0)
    with pytest.raises(ReplicationError):
        follower._handle_advance(None, payload[:5])
    (span,) = rec.find("advance_apply")
    assert span.end is not None
    assert {k: v for k, v in span.attrs.items() if k.startswith("dram_")} \
        == {"dram_" + c: 0 for c in CATEGORIES}


# ----------------------------------------------------------------------
# the null recorder


def test_null_recorder_is_disabled_and_inert():
    assert NULL_RECORDER.enabled is False
    assert isinstance(NULL_RECORDER, NullRecorder)
    assert NULL_RECORDER.begin("x", conn=1) is None
    NULL_RECORDER.end(None)
    NULL_RECORDER.attach(None, a=1)


# ----------------------------------------------------------------------
# DRAM attribution


def test_dram_probe_captures_delta():
    dram = DramStats(reads=10)
    with DramProbe(dram) as probe:
        dram.reads += 5
        dram.lookups += 2
    assert probe.delta.reads == 5
    assert probe.delta.lookups == 2
    assert probe.attrs() == {("dram_" + c): getattr(probe.delta, c)
                             for c in CATEGORIES}


def test_span_with_dram_attaches_categories():
    rec = TraceRecorder(clock=StepClock())
    dram = DramStats()
    span = rec.begin("commit")
    with DramProbe(dram) as probe:
        dram.writes += 3
    rec.end(span, **probe.attrs())
    assert rec.spans[0].attrs["dram_writes"] == 3
    assert rec.spans[0].attrs["dram_reads"] == 0


# ----------------------------------------------------------------------
# exports


def _small_trace() -> TraceRecorder:
    rec = TraceRecorder(clock=StepClock())
    a = rec.begin("request", conn=1, command="set")
    b = rec.begin("commit_batch", parent=a, shard=0)
    rec.end(b, writes=1)
    rec.end(a, response_bytes=8)
    return rec


def test_jsonl_export_is_byte_reproducible():
    assert _small_trace().export_jsonl() == _small_trace().export_jsonl()


def test_jsonl_round_trip(tmp_path):
    rec = _small_trace()
    path = tmp_path / "trace.jsonl"
    rec.write_jsonl(path)
    spans = load_jsonl(path)
    assert [s["name"] for s in spans] == ["request", "commit_batch"]
    assert spans[1]["parent"] == spans[0]["id"]
    assert spans[0]["attrs"]["command"] == "set"
    # the file really is one JSON document per line
    lines = path.read_text().splitlines()
    assert all(json.loads(line) for line in lines)


def test_chrome_export_shape(tmp_path):
    rec = _small_trace()
    doc = to_chrome_trace([s.to_dict() for s in rec.spans])
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert len(events) == 2
    assert all(e["ph"] == "X" for e in events)
    request = events[0]
    assert request["name"] == "request"
    assert request["tid"] == 1          # conn attr -> thread lane
    assert request["dur"] > 0           # µs duration
    # open spans export with zero duration rather than crashing
    rec2 = TraceRecorder(clock=StepClock())
    rec2.begin("open")
    assert to_chrome_trace(
        [s.to_dict() for s in rec2.spans])["traceEvents"][0]["dur"] == 0


def test_render_spans_indents_children_and_limits():
    rec = _small_trace()
    text = render_spans([s.to_dict() for s in rec.spans])
    lines = text.splitlines()
    assert "request" in lines[1]
    assert "  commit_batch" in lines[2]   # child indented under parent
    limited = render_spans([s.to_dict() for s in rec.spans], limit=1)
    assert "1 more span(s)" in limited
