"""Span propagation through the live stack, end to end.

request → commit-queue batch → merge-update on the serving side;
ship_delta → root_advance on the leader and advance_apply (with DRAM
attribution) on the follower; plus the reproducibility contract: a
traced fuzz episode is byte-identical across runs of the same seed.
"""

import asyncio

import pytest

from repro.net.server import MemcachedServer
from repro.obs.trace import StepClock, TraceRecorder
from repro.replication import (
    FollowerServer,
    ReplicationFollower,
    ReplicationLeader,
)
from repro.testing.fuzz import EpisodeConfig, run_episode

CRLF = b"\r\n"


async def _pipelined(port: int, request: bytes, responses: int) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(request)
    await writer.drain()
    out = b""
    for _ in range(responses):
        out += await reader.readline()
    writer.write(b"quit\r\n")
    writer.close()
    try:
        await writer.wait_closed()
    except Exception:
        pass
    return out


def test_request_to_commit_batch_to_bulk_commit_links_by_default():
    async def scenario():
        rec = TraceRecorder(clock=StepClock())
        async with MemcachedServer(port=0, shard_count=1,
                                   recorder=rec) as server:
            segmap = server.router.machine.segmap
            attempts = segmap.cas_attempts
            burst = b"".join(b"set k%d 0 0 2\r\nv%d\r\n" % (i, i)
                             for i in range(8))
            out = await _pipelined(server.port, burst, 8)
            await server.router.drain()
            return rec, out, server, segmap.cas_attempts - attempts

    rec, out, server, cas_attempts = asyncio.run(scenario())
    assert out == (b"STORED" + CRLF) * 8
    # the run is one group commit: one root CAS, one bulk_commit span
    # hanging off the one commit_batch span that carried all 8 requests
    assert cas_attempts == 1
    requests = {s.span_id for s in rec.find("request")}
    (batch,) = rec.find("commit_batch")
    assert sorted(batch.attrs["requests"]) == sorted(requests)
    assert batch.attrs["writes"] == 8
    assert [c.name for c in rec.children(batch.span_id)] == ["bulk_commit"]
    assert rec.find("merge_update") == []
    assert batch.attrs["dram_lookups"] > 0
    assert all(s.end is not None for s in rec.spans)


def test_disabled_recorder_leaves_no_spans_and_serves_fine():
    async def scenario():
        async with MemcachedServer(port=0, shard_count=1) as server:
            out = await _pipelined(server.port,
                                   b"set a 0 0 2\r\nhi\r\n", 1)
            assert out == b"STORED" + CRLF
            assert server.recorder.enabled is False

    asyncio.run(scenario())


def test_replication_spans_link_leader_and_follower():
    async def scenario():
        rec = TraceRecorder(clock=StepClock())
        frec = TraceRecorder(clock=StepClock())
        async with MemcachedServer(port=0, shard_count=1,
                                   recorder=rec) as server:
            leader = ReplicationLeader(server.router, port=0)
            await leader.start()
            follower = ReplicationFollower("127.0.0.1", leader.port,
                                           recorder=frec)
            await follower.start()
            try:
                burst = b"".join(b"set r%d 0 0 2\r\nv%d\r\n" % (i, i)
                                 for i in range(4))
                await _pipelined(server.port, burst, 4)
                await server.router.drain()
                for _ in range(300):
                    if follower.metrics.root_advances \
                            and follower.metrics.max_lag == 0:
                        break
                    await asyncio.sleep(0.01)
            finally:
                await follower.stop()
                await leader.stop()
        return rec, frec, follower

    rec, frec, follower = asyncio.run(scenario())
    ships = {s.span_id: s for s in rec.find("ship_delta")}
    advances = rec.find("root_advance")
    assert ships and advances
    # every shipped advance parents back to its delta and carries the
    # (vsid, seq) pair that correlates with commit_batch spans
    for span in advances:
        assert span.parent_id in ships
        assert {"stream", "seq", "vsid"} <= set(span.attrs)
    applies = frec.find("advance_apply")
    assert len(applies) == follower.metrics.root_advances
    for span in applies:
        assert span.end is not None
        assert "dram_lookups" in span.attrs  # attribution on apply


def test_follower_front_end_exposes_replication_metrics():
    async def scenario():
        async with MemcachedServer(port=0, shard_count=1) as server:
            leader = ReplicationLeader(server.router, port=0)
            await leader.start()
            follower = ReplicationFollower("127.0.0.1", leader.port)
            await follower.start()
            front = FollowerServer(follower, "127.0.0.1", server.port,
                                   port=0)
            await front.start()
            try:
                await _pipelined(server.port,
                                 b"set s0 0 0 2\r\nhi\r\n", 1)
                await server.router.drain()
                for _ in range(300):
                    if follower.metrics.root_advances \
                            and follower.metrics.max_lag == 0:
                        break
                    await asyncio.sleep(0.01)
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", front.port)
                writer.write(b"stats\r\n")
                await writer.drain()
                buf = b""
                while not buf.endswith(b"END" + CRLF):
                    chunk = await reader.read(1 << 16)
                    if not chunk:
                        break
                    buf += chunk
                writer.close()
            finally:
                await front.stop()
                await follower.stop()
                await leader.stop()
        return buf, follower.metrics.snapshot()

    buf, snap = asyncio.run(scenario())
    stats = {}
    for line in buf.decode().splitlines():
        if line.startswith("STAT "):
            _, name, value = line.split(" ", 2)
            stats[name] = value
    # the full ReplicationMetrics snapshot rides the stats command
    snap.pop("lag_by_stream")
    for name, value in snap.items():
        assert stats["replication_" + name] == str(value)
    # the pre-registry keys survive unchanged
    assert "replication_dedup_on_arrival" in stats
    assert "replication_dedup_ratio" in stats
    assert "footprint_bytes" in stats
    assert int(stats["replication_root_advances"]) >= 1


@pytest.mark.parametrize("seed", [3, 11])
def test_fuzz_episode_trace_is_byte_identical(seed):
    """The reproducibility contract extended to traces: same seed, same
    bytes. One client keeps the interleaving fully sequential."""

    def capture() -> str:
        rec = TraceRecorder(clock=StepClock())
        cfg = EpisodeConfig(clients=1, ops_per_client=24)
        result = run_episode(seed, cfg, trace_recorder=rec)
        assert result.ok, result.failures
        return rec.export_jsonl()

    first, second = capture(), capture()
    assert first == second
    assert '"name":"request"' in first
