"""A follower's front is the leader's serving stack over the replica.

``FollowerRouter`` is a ``ShardRouter`` over the follower's per-stream
backends, and the replica runs the leader's machine configuration (store
held, memo on) whether or not a front serves it. Three consequences are
pinned here: a memo-on and a memo-off replica of one leader converge to
one state, a hot read through a follower front costs what it costs on
the leader, and a follower's ``stats prom`` carries the leader's machine
families beside its replication counters.
"""

import asyncio
import random
import socket
import sys
from contextlib import AsyncExitStack

import pytest

from repro.net.framing import FrameDecoder
from repro.net.router import ConnectionState
from repro.net.server import MemcachedServer
from repro.obs.registry import parse_exposition
from repro.replication import (
    FollowerRouter,
    ReplicationFollower,
    ReplicationLeader,
)
from repro.segments import dag
from repro.testing.auditors import audit_machine
from tests.test_net_transport import _put


async def wait_until(predicate, timeout=10.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(0.01)
    return False


def leader_fingerprints(leader):
    return {s: dag.segment_fingerprint(leader.machine, v)
            for s, v in leader.streams().items()}


def seeded_script(seed: int, ops: int = 160) -> bytes:
    """Sets, overwrites and deletes over a small key space."""
    rng = random.Random(seed)
    keys = [b"k%02d" % i for i in range(24)]
    out = []
    for _ in range(ops):
        key = rng.choice(keys)
        if rng.random() < 0.2:
            out.append(b"delete %s\r\n" % key)
        else:
            out.append(_put(key, b"value-%d" % rng.randrange(8)))
    return b"".join(out)


def test_memo_on_and_memo_off_followers_show_one_state():
    async def go():
        async with MemcachedServer(port=0, shard_count=2) as server:
            leader = ReplicationLeader(server.router,
                                       heartbeat_interval=None)
            await leader.start()
            twins = [ReplicationFollower("127.0.0.1", leader.port,
                                         reconnect_delay=0.01)
                     for _ in range(2)]
            twins[1].machine.mem.memo.enabled = False
            for follower in twins:
                await follower.start()
            try:
                conn = ConnectionState()
                for frame in FrameDecoder().feed(seeded_script(45)):
                    await (await server.router.dispatch(frame, conn))
                await server.router.drain()
                target = leader_fingerprints(leader)
                for follower in twins:
                    assert await wait_until(
                        lambda: follower.fingerprints() == target)
                prints = [follower.fingerprints() for follower in twins]
            finally:
                for follower in twins:
                    await follower.stop()
                await leader.stop()
        return twins, prints

    twins, (on, off) = asyncio.run(go())
    assert on == off
    # the memo-on replica answered its fingerprints from the digest table
    assert twins[0].machine.mem.memo.digests
    assert not twins[1].machine.mem.memo.digests
    assert twins[0].machine.footprint_lines() \
        == twins[1].machine.footprint_lines()
    for follower in twins:
        audit_machine(follower.machine, strict=True).raise_if_failed()


async def _follower_front(stack):
    """A two-shard leader, a follower of it and the follower's front,
    all torn down by ``stack``; returns ``(leader server, follower,
    front)``."""
    server = MemcachedServer(port=0, shard_count=2)
    await server.start()
    stack.push_async_callback(server.shutdown)
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
    return server, follower, front


#: The leader's clockless count for one read of eight hot gets
#: (``HOT_CHUNK_CALL_CEILING`` in test_net_transport.py) through a
#: follower's front: 256 calls on CPython 3.10 and 3.11 (255 on 3.12), a
#: leader's 248 plus the follower's own ``answer``, one call per get. The
#: ceiling sits ~8 % above.
FRONT_HOT_CHUNK_CALL_CEILING = 277


@pytest.mark.skipif(sys.getprofile() is not None,
                    reason="another profiler is installed")
def test_hot_chunk_through_a_follower_front_costs_what_it_costs_a_leader():
    """A hot read through a follower's front costs a leader's calls
    plus one per get (``FRONT_HOT_CHUNK_CALL_CEILING``), where a
    follower that built a map per get with the memo off made 1 151."""
    burst = b"get k\r\n" * 8
    expected = b"VALUE k 0 1\r\nv\r\nEND\r\n" * 8

    async def go():
        async with AsyncExitStack() as stack:
            server, follower, front = await _follower_front(stack)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(_put(b"k", b"v"))
            assert await reader.readline() == b"STORED\r\n"
            writer.close()
            await writer.wait_closed()
            assert await wait_until(
                lambda: sum(follower.applied_seq.values()) == 1)
            loop = asyncio.get_running_loop()
            client = socket.socket()
            client.setblocking(False)
            await loop.sock_connect(client, ("127.0.0.1", front.port))
            calls = 0

            def count(_frame, event, _arg):
                nonlocal calls
                if event in ("call", "c_call"):
                    calls += 1

            async def exchange(profile=None):
                # the request is in the front's socket before the
                # profiled turns start; they end with the reply read
                client.send(burst)
                got = b""
                sys.setprofile(profile)
                try:
                    while len(got) < len(expected):
                        await asyncio.sleep(0)
                        try:
                            got += client.recv(1 << 16)
                        except BlockingIOError:
                            pass
                finally:
                    sys.setprofile(None)
                assert got == expected

            await exchange()  # the read table holds k
            await exchange(count)
            client.close()
            return calls

    assert asyncio.run(go(), debug=False) <= FRONT_HOT_CHUNK_CALL_CEILING


def test_follower_exposition_carries_the_leader_machine_families():
    async def go():
        async with AsyncExitStack() as stack:
            server, follower, front = await _follower_front(stack)
            assert await wait_until(lambda: len(follower.streams) == 2)
            families = []
            for port in (server.port, front.port):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                writer.write(b"stats prom\r\n")
                body = await reader.readuntil(b"END\r\n")
                writer.close()
                await writer.wait_closed()
                families.append({name for name, _ in parse_exposition(
                    body[:-len(b"END\r\n")].decode())})
            return families

    on_leader, on_follower = asyncio.run(go())
    for prefix in ("repro_memo_", "repro_reclaim_", "repro_index_",
                   "repro_dram_accesses_total", "repro_replication_"):
        assert any(name.startswith(prefix) for name in on_follower), prefix
    # every family a leader's router exposes, a follower's exposes too
    # (the leader's replication gauges describe its sessions instead)
    assert {name for name in on_leader
            if not name.startswith("repro_replication_")} <= on_follower
