"""A write lands in the read callback that decoded it.

A write whose shard has nothing queued and no batch in hand is staged
in ``data_received``, and each shard's staged writes land through
``ShardRouter.land`` as one commit batch before anything reads them:
(a) one read of eight fresh sets is one root CAS per touched shard and
no ordered task; (b) a get behind a set of its key in one chunk reads
what that set wrote; (c) a shard with a write in hand sends the chunk
down the ordered path, behind that write; (d) a fault-injected server
and a follower front never land inline; (e) a chunk of fresh sets costs
one read callback, within a call ceiling the ordered path exceeded.
"""

import asyncio
import contextlib
import socket
import sys

import pytest

from repro.net import server as server_module
from repro.net.framing import FrameDecoder
from repro.net.router import ConnectionState, shard_of
from repro.net.server import MemcachedServer
from repro.replication import FollowerRouter
from repro.testing.faults import POINTS, FaultInjector, FaultPlan
from tests.test_net_server import _put, _start_front, read_reply, request

SHARDS = 4
FRESH = [b"fresh%d" % i for i in range(8)]


def _spy_ordered(monkeypatch):
    """Count the ordered tasks connections start from here on."""
    started = {"tasks": 0}
    serve = server_module._Connection._serve

    def counting(self, *args):
        started["tasks"] += 1
        return serve(self, *args)

    monkeypatch.setattr(server_module._Connection, "_serve", counting)
    return started


# ----------------------------------------------------------------------
# (a) one chunk, one landing per shard


def test_fresh_sets_land_inline_one_root_cas_per_shard(monkeypatch):
    started = _spy_ordered(monkeypatch)

    async def go():
        async with MemcachedServer(port=0, shard_count=SHARDS) as server:
            metrics, segmap = server.metrics, server.router.machine.segmap
            before = (metrics.inline_requests, segmap.cas_attempts,
                      metrics.commit_batches)
            burst = b"".join(_put(key, b"v" + key) for key in FRESH)
            out = await request(server.port, burst, lines=len(FRESH))
            after = (metrics.inline_requests, segmap.cas_attempts,
                     metrics.commit_batches)
            stored = [server.router.servers[shard_of(k, SHARDS)].get(k)
                      for k in FRESH]
            return out, before, after, metrics.max_pipeline_depth, stored

    out, before, after, depth, stored = asyncio.run(go())
    assert depth == len(FRESH)  # one read carried all eight
    assert out == b"STORED\r\n" * len(FRESH)
    assert stored == [b"v" + key for key in FRESH]
    inline, cas_attempts, batches = (y - x for x, y in zip(before, after))
    touched = len({shard_of(key, SHARDS) for key in FRESH})
    assert 1 < touched < len(FRESH)  # some shard lands a run of two
    assert inline == len(FRESH)
    assert cas_attempts == batches == touched
    assert started["tasks"] == 0


# ----------------------------------------------------------------------
# (b) a read of a staged key lands it first


def test_get_behind_a_set_of_its_key_reads_that_set(monkeypatch):
    started = _spy_ordered(monkeypatch)
    chunk = (_put(b"k", b"v1") + b"get k\r\n"
             + _put(b"k", b"v2") + b"get k\r\n")

    async def go():
        async with MemcachedServer(port=0, shard_count=2) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(chunk)
            replies = [await read_reply(reader) for _ in range(4)]
            writer.close()
            await writer.wait_closed()
            return replies, server.metrics.inline_requests

    replies, inline = asyncio.run(go())
    assert replies == [b"STORED\r\n", b"VALUE k 0 2\r\nv1\r\nEND\r\n",
                       b"STORED\r\n", b"VALUE k 0 2\r\nv2\r\nEND\r\n"]
    assert inline == 4 and started["tasks"] == 0


# ----------------------------------------------------------------------
# (c) a shard with a write in hand: the ordered path, behind it


def test_busy_shard_sends_the_chunk_down_the_ordered_path(monkeypatch):
    started = _spy_ordered(monkeypatch)

    async def go():
        async with MemcachedServer(port=0, shard_count=2) as server:
            router = server.router
            shard = router.shard_index(b"k")
            gate = asyncio.Event()
            apply_batch = router._apply_batch

            async def gated(*args):
                await gate.wait()
                await apply_batch(*args)

            router._apply_batch = gated
            try:
                return await scenario(server, router, shard, gate)
            finally:
                gate.set()  # a failed step must not wedge the drain

    async def scenario(server, router, shard, gate):
        # another connection's ordered path: two writes the worker holds
        # mid-batch, one queued behind them
        other = ConnectionState()
        first, second = [await router.dispatch(frame, other)
                         for frame in FrameDecoder().feed(
                             _put(b"k", b"a1") + _put(b"k", b"a2"))]
        assert router._mid_batch[shard] is False
        await asyncio.sleep(0)
        assert router._mid_batch[shard] is True
        (third,) = [await router.dispatch(frame, other) for frame in
                    FrameDecoder().feed(_put(b"k", b"a3"))]
        assert router.pending_commits() == 1
        inline = server.metrics.inline_requests
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        writer.write(_put(b"k", b"b") + b"get k\r\n")
        deadline = asyncio.get_running_loop().time() + 5.0
        while not started["tasks"]:
            assert asyncio.get_running_loop().time() < deadline
            await asyncio.sleep(0)
        assert not first.done()
        gate.set()
        replies = [await read_reply(reader) for _ in range(2)]
        writer.close()
        await writer.wait_closed()
        return (replies, [await f for f in (first, second, third)],
                server.metrics.inline_requests - inline,
                router.servers[shard].get(b"k"))

    replies, others, inline, final = asyncio.run(go())
    assert others == [b"STORED\r\n"] * 3
    assert replies == [b"STORED\r\n", b"VALUE k 0 1\r\nb\r\nEND\r\n"]
    assert final == b"b"  # queued writes of k first, then this chunk's
    assert inline == 0 and started["tasks"] == 1


# ----------------------------------------------------------------------
# (d) fault-injected servers and follower fronts never land inline


def test_injected_server_sends_every_write_down_the_ordered_path():
    plan = FaultPlan(0, {point: 0.0 for point in POINTS})

    async def go():
        server = MemcachedServer(port=0, shard_count=SHARDS,
                                 injector=FaultInjector(plan))
        async with server:
            router = server.router
            dispatched = 0
            dispatch = router.dispatch

            async def counting(*args):
                nonlocal dispatched
                dispatched += 1
                return await dispatch(*args)

            router.dispatch = counting
            burst = b"".join(_put(key, b"v") for key in FRESH)
            out = await request(server.port, burst, lines=len(FRESH))
            frame = FrameDecoder().feed(_put(b"k", b"v"))[0]
            return (out, dispatched, server.metrics.inline_requests,
                    router.idle_shard(frame))

    out, dispatched, inline, idle = asyncio.run(go())
    assert out == b"STORED\r\n" * len(FRESH)
    assert dispatched == len(FRESH) and inline == 0 and idle is None


def test_follower_front_forwards_every_write(monkeypatch):
    forwarded = []
    forward = FollowerRouter._forward

    async def counting(self, raw):
        forwarded.append(raw)
        return await forward(self, raw)

    monkeypatch.setattr(FollowerRouter, "_forward", counting)

    async def go():
        async with contextlib.AsyncExitStack() as stack:
            port, leader_port = await _start_front("follower", stack)
            out = await request(port, _put(b"k", b"v"), lines=1)
            deadline = asyncio.get_running_loop().time() + 10.0
            while b"VALUE" not in await request(port, b"get k\r\n"):
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)
            return out, await request(leader_port, b"get k\r\n")

    out, leader_reply = asyncio.run(go())
    assert out == b"STORED\r\n"
    assert forwarded == [_put(b"k", b"v")]
    assert leader_reply == b"VALUE k 0 1\r\nv\r\nEND\r\n"


# ----------------------------------------------------------------------
# (e) a chunk of fresh sets costs one read callback


#: Python + C calls (``sys.setprofile``, builtins included) the loop
#: thread makes while a two-shard server lands one read of eight fresh
#: sets, the probing client's own polling included: 4 601 with each
#: write queued to its shard worker (an ordered task, a future per set,
#: a worker wake-up per shard and more loop turns), 4 168 with the writes
#: landed in ``data_received`` (CPython 3.11). The group commits
#: themselves are most of either count, so the ceiling sits ~5 % above
#: the last, below the first.
FRESH_CHUNK_CALL_CEILING = 4400


@pytest.mark.skipif(sys.getprofile() is not None,
                    reason="another profiler is installed")
def test_fresh_set_chunk_call_ceiling():
    def burst(tag):
        return b"".join(_put(b"%s%d" % (tag, i), b"v%d" % i)
                        for i in range(8))

    async def go():
        async with MemcachedServer(port=0, shard_count=2) as server:
            loop = asyncio.get_running_loop()
            client = socket.socket()
            client.setblocking(False)
            await loop.sock_connect(client, ("127.0.0.1", server.port))
            calls = 0

            def count(_frame, event, _arg):
                nonlocal calls
                if event in ("call", "c_call"):
                    calls += 1

            async def exchange(request, profile=None):
                # the request is in the server's socket before the
                # profiled turns start; they end with the reply read
                reply = b"STORED\r\n" * 8
                client.send(request)
                got = b""
                sys.setprofile(profile)
                try:
                    while len(got) < len(reply):
                        await asyncio.sleep(0)
                        try:
                            got += client.recv(1 << 16)
                        except BlockingIOError:
                            pass
                finally:
                    sys.setprofile(None)
                assert got == reply

            await exchange(burst(b"warm"))
            await exchange(burst(b"fresh"), count)
            client.close()
            return calls

    # debug mode (python -X dev) adds checks to every loop turn
    assert asyncio.run(go(), debug=False) <= FRESH_CHUNK_CALL_CEILING
