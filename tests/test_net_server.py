"""End-to-end tests: the asyncio server on a real TCP socket.

The acceptance test drives a live server with four concurrent pipelined
recording clients (:mod:`repro.testing.fuzz`) and checks three
criteria: a linearizable history with no protocol errors, nonzero
pipelined-request and group-commit counters, and a graceful shutdown
that leaves a machine the strict audit passes.
"""

import asyncio
import contextlib
import json

import pytest

from repro.cluster.node import ClusterRouter
from repro.cluster.placement import NodeInfo, initial_topology
from repro.net import router as router_module
from repro.net.framing import read_line
from repro.net.metrics import ServerMetrics
from repro.net.router import ShardRouter
from repro.net.server import MemcachedServer
from repro.obs.trace import StepClock, TraceRecorder
from repro.replication import (
    FollowerRouter,
    ReplicationFollower,
    ReplicationLeader,
)
from repro.testing.auditors import audit_machine
from repro.testing.fuzz import (
    READBACK_CLIENT,
    EpisodeConfig,
    RecordingClient,
    build_script,
)
from repro.testing.history import HistoryRecorder, check_history


async def request(port, payload, terminators=(b"END\r\n",), lines=None):
    """One raw TCP exchange; reads until a terminator (or N lines)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    if lines is not None:
        out = b"".join([await reader.readline() for _ in range(lines)])
    else:
        out = b""
        while not any(out.endswith(t) for t in terminators):
            chunk = await reader.read(1 << 16)
            if not chunk:
                break
            out += chunk
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass
    return out


async def play_recorded(port, seed, cfg):
    """Play ``cfg.clients`` seeded scripts concurrently against ``port``,
    then read every key back; returns the clients and their history."""
    recorder = HistoryRecorder()
    clients = [RecordingClient(cid, build_script(seed, cid, cfg), recorder)
               for cid in range(cfg.clients)]
    for client in clients:
        await client.connect(port)
    await asyncio.gather(*(client.run() for client in clients))
    readback = RecordingClient(READBACK_CLIENT, [[
        ("get", b"k%02d" % j) for j in range(cfg.key_space)]], recorder)
    await readback.connect(port)
    await readback.run()
    return clients, recorder


class TestServerEndToEnd:
    def test_acceptance_concurrent_pipelined_loadgen(self):
        """Four pipelined clients over real TCP, held to linearizability."""
        cfg = EpisodeConfig(clients=4, ops_per_client=60, pipeline_depth=8)

        async def go():
            async with MemcachedServer(port=0, shard_count=4) as server:
                clients, recorder = await play_recorded(server.port, 1, cfg)
                body = await request(server.port, b"stats json\r\n")
                snapshot = json.loads(body.split(b"\r\n")[0])
                return server, clients, recorder, snapshot

        server, clients, recorder, snapshot = asyncio.run(go())
        # (1) the history, final read-back included, is linearizable
        assert [client.protocol_errors for client in clients] == [[]] * 4
        assert not any(op.pending for op in recorder.ops)
        assert check_history(recorder.operations()).ok
        # (2) stats show pipelining and batched commits happened
        assert snapshot["pipelined_requests"] > 0
        assert 0 < snapshot["commit_batches"] \
            < sum(snapshot["commits_by_vsid"].values())
        assert snapshot["ops_total"] >= 4 * 60
        # (3) graceful shutdown left exact state behind
        assert audit_machine(server.router.machine, strict=True).ok

    def test_pipelined_burst_group_commits_by_default(self):
        """A burst to one shard is one group commit."""

        async def go():
            rec = TraceRecorder(clock=StepClock())
            async with MemcachedServer(port=0, shard_count=1,
                                       recorder=rec) as server:
                segmap = server.router.machine.segmap
                attempts = segmap.cas_attempts
                burst = b"".join(b"set key%d 0 0 2\r\nv%d\r\n" % (i, i)
                                 for i in range(8))
                out = await request(server.port, burst, lines=8)
                body = await request(server.port, b"stats json\r\n")
                snapshot = json.loads(body.split(b"\r\n")[0])
                return (out, snapshot, rec,
                        segmap.cas_attempts - attempts)

        out, snapshot, rec, cas_attempts = asyncio.run(go())
        assert out == b"STORED\r\n" * 8
        assert snapshot["server"]["sets"] == 8
        assert cas_attempts == 1
        (batch,) = rec.find("commit_batch")
        assert [c.name for c in rec.children(batch.span_id)] \
            == ["bulk_commit"]

    def test_set_get_over_socket(self):
        async def go():
            async with MemcachedServer(port=0, shard_count=2) as server:
                out = await request(
                    server.port,
                    b"set hello 0 0 5\r\nworld\r\nget hello\r\n")
                return out

        out = asyncio.run(go())
        assert out.startswith(b"STORED\r\n")
        assert b"VALUE hello 0 5\r\nworld\r\n" in out

    def test_stats_command_over_socket(self):
        async def go():
            async with MemcachedServer(port=0, shard_count=3) as server:
                return await request(
                    server.port, b"set k 0 0 1\r\nv\r\nstats\r\n")

        out = asyncio.run(go())
        assert b"STAT shards 3" in out
        assert b"STAT curr_items 1" in out
        assert b"STAT commit_batches" in out
        assert out.endswith(b"END\r\n")

    def test_malformed_frame_connection_survives(self):
        async def go():
            async with MemcachedServer(port=0, shard_count=1) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(b"set k 0 0 banana\r\n")
                await writer.drain()
                first = await reader.readline()
                # same connection keeps working after the error
                writer.write(b"set k 0 0 2\r\nok\r\nget k\r\n")
                await writer.drain()
                second = await read_line(reader)
                value = b""
                while not value.endswith(b"END\r\n"):
                    value += await reader.readline()
                writer.close()
                await writer.wait_closed()
                return first, second, value

        first, second, value = asyncio.run(go())
        assert first.startswith(b"CLIENT_ERROR")
        assert second == b"STORED\r\n"
        assert b"ok" in value

    def test_read_timeout_drops_idle_connection(self):
        async def go():
            async with MemcachedServer(port=0, shard_count=1,
                                       read_timeout=0.05) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                # idle past the timeout: server must close on us
                eof = await asyncio.wait_for(reader.read(), timeout=2.0)
                writer.close()
                await writer.wait_closed()
                return eof, server.metrics.read_timeouts

        eof, timeouts = asyncio.run(go())
        assert eof == b""
        assert timeouts == 1

    def test_quit_closes_connection(self):
        async def go():
            async with MemcachedServer(port=0, shard_count=1) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(b"set k 0 0 1\r\nx\r\nquit\r\n")
                await writer.drain()
                out = await asyncio.wait_for(reader.read(), timeout=2.0)
                writer.close()
                await writer.wait_closed()
                return out

        out = asyncio.run(go())
        # the pipelined set is answered before the close
        assert out == b"STORED\r\n"

    def test_shutdown_commits_enqueued_writes(self):
        """Writes accepted before shutdown land even if the client never
        reads the responses."""

        async def go():
            server = MemcachedServer(port=0, shard_count=2)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            raw = b"".join(b"set k%d 0 0 2\r\nv%d\r\n" % (i, i)
                           for i in range(10))
            writer.write(raw + b"quit\r\n")
            await writer.drain()
            await asyncio.wait_for(reader.read(), timeout=2.0)
            await server.shutdown()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            return server

        server = asyncio.run(go())
        assert sum(s.item_count() for s in server.router.servers) == 10

    def test_single_client_pipelined_cas_flow(self):
        cfg = EpisodeConfig(clients=1, ops_per_client=40, pipeline_depth=6)

        async def go():
            async with MemcachedServer(port=0, shard_count=2) as server:
                return await play_recorded(server.port, 9, cfg)

        (client,), recorder = asyncio.run(go())
        played = [op for op in recorder.ops if op.client == 0]
        assert len(played) == 40
        assert client.protocol_errors == []
        # the script's gets-then-cas pairs store with the tokens read
        assert ("cas", ("stored",)) in {(op.kind, op.result) for op in played}
        assert check_history(recorder.operations()).ok


# ----------------------------------------------------------------------
# answer, else enqueue: what needs no queue is answered without a future


async def read_reply(reader):
    """One response: a single line, or VALUE/STAT lines through END."""
    reply = line = await asyncio.wait_for(reader.readline(), 5.0)
    if line.startswith((b"VALUE ", b"STAT ")):
        while line != b"END\r\n":
            line = await asyncio.wait_for(reader.readline(), 5.0)
            reply += line
    return reply


def _put(key, value):
    return b"set %s 0 0 %d\r\n%s\r\n" % (key, len(value), value)


def _topology():
    """Two leaders; this front is ``n1``, and ``n2`` owns the rest."""
    return initial_topology([NodeInfo("n1", "127.0.0.1", 0),
                             NodeInfo("n2", "127.0.0.1", 1)], [])


def _script_keys():
    """``a`` and ``b`` owned by ``n1`` on different shards of two, and
    ``m`` owned by ``n2``."""
    topology, probe = _topology(), ShardRouter(shard_count=2)
    keys = [b"key%d" % i for i in range(200)]
    mine = [k for k in keys if topology.owner_of(k) == "n1"]
    a = mine[0]
    b = next(k for k in mine
             if probe.shard_index(k) != probe.shard_index(a))
    m = next(k for k in keys if topology.owner_of(k) == "n2")
    return a, b, m


async def _start_front(kind, stack):
    """``(serving port, leader port)`` of a started two-shard front:
    a ``ShardRouter``, a ``ClusterRouter`` or a follower's
    ``FollowerRouter``; ``stack`` tears it down."""
    if kind == "cluster":
        router = ClusterRouter("n1", shard_count=2)
        router.topology = _topology()
        server = MemcachedServer(router=router)
    else:
        server = MemcachedServer(port=0, shard_count=2)
    await server.start()
    stack.push_async_callback(server.shutdown)
    if kind != "follower":
        return server.port, server.port
    leader = ReplicationLeader(server.router, heartbeat_interval=None)
    await leader.start()
    stack.push_async_callback(leader.stop)
    follower = ReplicationFollower("127.0.0.1", leader.port,
                                   reconnect_delay=0.01)
    await follower.start()
    stack.push_async_callback(follower.stop)
    front = MemcachedServer(router=FollowerRouter(
        follower, "127.0.0.1", server.port))
    await front.start()
    stack.push_async_callback(front.shutdown)
    return front.port, server.port


class TestAnswerElseEnqueue:
    def test_pipelined_gets_take_no_dispatch_and_no_future(
            self, monkeypatch):
        calls = {"dispatch": 0, "completed": 0}
        completed = router_module._completed

        def counting_completed(response):
            calls["completed"] += 1
            return completed(response)

        monkeypatch.setattr(router_module, "_completed", counting_completed)

        async def go():
            async with MemcachedServer(port=0, shard_count=4) as server:
                await request(server.port, _put(b"k", b"v"), lines=1)
                router = server.router
                dispatch = router.dispatch

                async def counting_dispatch(*args):
                    calls["dispatch"] += 1
                    return await dispatch(*args)

                router.dispatch = counting_dispatch
                calls.update(dispatch=0, completed=0)
                burst = b"".join(b"get k\r\n" if i % 2 else b"get no%d\r\n" % i
                                 for i in range(64))
                return await request(server.port, burst, lines=32 * 3 + 32)

        out = asyncio.run(go())
        assert out == (b"END\r\n" + b"VALUE k 0 1\r\nv\r\nEND\r\n") * 32
        assert calls == {"dispatch": 0, "completed": 0}

    def test_one_read_of_eight_gets_reads_the_clock_twice(self):
        class CountingClock:
            def __init__(self):
                self.reads = 0

            def __call__(self):
                self.reads += 1
                return float(self.reads)

        clock = CountingClock()
        metrics = ServerMetrics(clock=clock)

        async def go():
            server = MemcachedServer(
                port=0, router=ShardRouter(shard_count=2, metrics=metrics))
            async with server:
                await request(server.port, _put(b"k", b"v"), lines=1)
                before = (clock.reads, metrics.ops_total,
                          metrics.frames_decoded)
                burst = b"".join(b"get k\r\n" if i % 2 else b"get no\r\n"
                                 for i in range(8))
                out = await request(server.port, burst, lines=4 * 3 + 4)
                after = (clock.reads, metrics.ops_total,
                         metrics.frames_decoded)
            return out, before, after

        out, before, after = asyncio.run(go())
        assert out == (b"END\r\n" + b"VALUE k 0 1\r\nv\r\nEND\r\n") * 4
        assert metrics.max_pipeline_depth == 8  # one read carried all 8
        clock_reads, ops, frames = (x - y for x, y in zip(after, before))
        assert clock_reads <= 2
        assert ops == frames == 8
        assert metrics.ops_by_command == {"set": 1, "get": 8}

    @pytest.mark.parametrize("front", ["shard", "cluster", "follower"])
    def test_mixed_pipeline_keeps_order_and_read_after_write(self, front):
        a, b, m = _script_keys()
        script = (b"get %s\r\n" % a            # answered inline
                  + _put(b, b"vb")             # queued (or forwarded)
                  + b"get %s\r\n" % b          # fenced behind the set
                  + _put(m, b"vm")             # MOVED on the cluster node
                  + b"get %s %s\r\n" % (a, b)  # multi-get across shards
                  + b"stats\r\n" + b"version\r\n")

        async def go():
            async with contextlib.AsyncExitStack() as stack:
                port, leader_port = await _start_front(front, stack)
                await request(leader_port, _put(a, b"va"), lines=1)
                deadline = asyncio.get_running_loop().time() + 10.0
                while b"va" not in await request(port, b"get %s\r\n" % a):
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.02)
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                writer.write(script)
                replies = [await read_reply(reader) for _ in range(7)]
                writer.close()
                await writer.wait_closed()
                return replies

        replies = asyncio.run(go())
        va = b"VALUE %s 0 2\r\nva\r\n" % a
        vb = b"VALUE %s 0 2\r\nvb\r\n" % b
        assert replies[0] == va + b"END\r\n"
        assert replies[1] == b"STORED\r\n"
        assert replies[3] == (b"MOVED 1 n2 127.0.0.1:1\r\n"
                              if front == "cluster" else b"STORED\r\n")
        assert replies[5].startswith(b"STAT ")
        assert replies[6].startswith(b"VERSION ")
        if front == "follower":
            # a replica read sees some prefix of the leader's history,
            # and a later read on one connection never sees less
            assert replies[2] in (vb + b"END\r\n", b"END\r\n")
            assert replies[4] in (va + vb + b"END\r\n", va + b"END\r\n")
            assert replies[2] == b"END\r\n" or vb in replies[4]
        else:
            assert replies[2] == vb + b"END\r\n"
            assert replies[4] == va + vb + b"END\r\n"
