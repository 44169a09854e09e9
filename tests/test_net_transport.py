"""The connection as an ``asyncio.Protocol``: what the transport does
to a byte stream must not show in the replies.

(a) one pipelined script gives the same reply bytes however its bytes
are cut into reads; (b) a client that pipelines and reads nothing stops
the server reading, so the server's write buffer stays bounded; (c) EOF
right behind pipelined sets still gets every reply, and every set
lands; (d) the idle timer drops an idle connection but not one whose
reply waits on a stalled commit, and what a client pipelines behind
that commit queues only up to the backlog limit; (e) a chunk of hot
gets is answered in the read callback, within a call ceiling the
streams loop exceeded.
"""

import asyncio
import re
import socket
import sys

import pytest

from repro.net.metrics import ServerMetrics
from repro.net.router import ShardRouter
from repro.net.server import BACKLOG_LIMIT, MemcachedServer
from repro.testing.faults import COMMIT_STALL, FaultInjector, FaultPlan


def _put(key: bytes, value: bytes) -> bytes:
    return b"set %s 0 0 %d\r\n%s\r\n" % (key, len(value), value)


async def _connect(server):
    return await asyncio.open_connection("127.0.0.1", server.port)


async def _until(predicate, timeout=5.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition never held"
        await asyncio.sleep(0)


# ----------------------------------------------------------------------
# (a) the same replies whatever the reads


SCRIPT = (b"get a\r\n"                   # a miss, inline
          + _put(b"a", b"va")            # ordered
          + b"get a\r\n"                 # fenced behind the set
          + _put(b"b", b"vbb")
          + b"get a b c\r\n"             # one get over both shards
          + b"delete a\r\n"
          + b"get a\r\n"
          + b"stats\r\n"
          + b"version\r\n"
          + b"set k 0 0 banana\r\n"      # malformed: CLIENT_ERROR
          + b"get b\r\n"
          + b"quit\r\n")


def _stats_values_masked(replies: bytes) -> bytes:
    # a stats reply counts reads, bytes and latencies, which depend on
    # how the bytes were cut; its names and the item count do not
    return re.sub(rb"STAT (?!curr_items )(\S+) [^\r]*\r\n",
                  rb"STAT \1 *\r\n", replies)


def _run_script(parts) -> bytes:
    """``SCRIPT`` sent as ``parts``, each read by the server before the
    next is sent; every reply byte until the server closes."""
    async def go():
        async with MemcachedServer(port=0, shard_count=2) as server:
            reader, writer = await _connect(server)
            sent = 0
            for part in parts:
                writer.write(part)
                sent += len(part)
                await _until(lambda: server.metrics.bytes_in >= sent)
            out = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            await writer.wait_closed()
            return out

    return asyncio.run(go())


def test_replies_do_not_depend_on_how_reads_cut_the_script():
    whole = _run_script([SCRIPT])
    assert whole.startswith(b"END\r\nSTORED\r\nVALUE a 0 2\r\nva\r\nEND\r\n")
    assert b"CLIENT_ERROR" in whole
    assert whole.endswith(b"VALUE b 0 3\r\nvbb\r\nEND\r\n")
    expected = _stats_values_masked(whole)
    assert b"STAT curr_items 1\r\n" in expected
    for cut in range(1, len(SCRIPT)):
        got = _run_script([SCRIPT[:cut], SCRIPT[cut:]])
        assert _stats_values_masked(got) == expected, cut
    one_byte = [SCRIPT[i:i + 1] for i in range(len(SCRIPT))]
    assert _stats_values_masked(_run_script(one_byte)) == expected


# ----------------------------------------------------------------------
# (b) a client that reads nothing stops the server reading


def test_unread_replies_pause_reading_and_bound_the_write_buffer():
    key, value = b"k" * 200, b"v" * 100
    request = b"get %s\r\n" % key
    reply = b"VALUE %s 0 %d\r\n%s\r\nEND\r\n" % (key, len(value), value)
    count = (4 << 20) // len(request)  # 4 MB of gets

    async def go():
        async with MemcachedServer(port=0, shard_count=2) as server:
            reader, writer = await _connect(server)
            writer.write(_put(key, value))
            assert await reader.readline() == b"STORED\r\n"
            loop = asyncio.get_running_loop()
            client = socket.socket()
            client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            client.setblocking(False)
            await loop.sock_connect(client, ("127.0.0.1", server.port))
            await _until(lambda: len(server._connections) == 2)
            (connection,) = [
                c for c in server._connections
                if c.transport.get_extra_info("peername")
                == client.getsockname()]
            # small kernel buffers: the transport's own buffer fills
            connection.transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            sending = loop.create_task(
                loop.sock_sendall(client, request * count))
            seen = -1
            while server.metrics.bytes_in != seen:
                seen = server.metrics.bytes_in
                await asyncio.sleep(0.05)
            # the server stopped reading with most gets still unread,
            # holding at most its high-water mark and one group of
            # max_inflight replies
            assert seen < len(request) * count // 2
            _, high = connection.transport.get_write_buffer_limits()
            held = connection.transport.get_write_buffer_size()
            assert high < held <= high + server.max_inflight * len(reply)
            got = bytearray()
            while len(got) < len(reply) * count:
                got += await loop.sock_recv(client, 1 << 16)
            await sending
            client.close()
            writer.close()
            await writer.wait_closed()
            return bytes(got)

    assert asyncio.run(go()) == reply * count


# ----------------------------------------------------------------------
# (c) EOF behind pipelined sets


def test_eof_after_pipelined_sets_gets_every_reply_and_commit():
    items = {b"k%02d" % i: b"value-%02d" % i for i in range(24)}

    async def go():
        async with MemcachedServer(port=0, shard_count=2) as server:
            reader, writer = await _connect(server)
            writer.write(b"".join(_put(k, v) for k, v in items.items()))
            writer.write_eof()
            out = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            await writer.wait_closed()
            router = server.router
            stored = {key: router.servers[router.shard_index(key)].get(key)
                      for key in items}
            return out, stored

    out, stored = asyncio.run(go())
    assert out == b"STORED\r\n" * len(items)
    assert stored == items


# ----------------------------------------------------------------------
# (d) the idle timer


class _SlowCommits(FaultInjector):
    """Every commit batch stalls ``STALL_S`` seconds: a COMMIT_STALL far
    longer than the read timeout."""

    STALL_S = 0.3

    async def before_commit(self, shard: int) -> None:
        self.fired[COMMIT_STALL] += 1
        await asyncio.sleep(self.STALL_S)


def test_idle_timer_drops_an_idle_connection_and_spares_a_busy_one():
    timeout = 0.1

    async def go():
        injector = _SlowCommits(FaultPlan(0))
        router = ShardRouter(shard_count=1, injector=injector)
        async with MemcachedServer(router=router,
                                   read_timeout=timeout) as server:
            loop = asyncio.get_running_loop()
            # idle from the start: dropped and counted
            reader, writer = await _connect(server)
            assert await asyncio.wait_for(reader.read(), 2.0) == b""
            writer.close()
            assert server.metrics.read_timeouts == 1
            # a set whose commit stalls past the timeout: the timer
            # waits for the reply, then for a timeout of idleness
            reader, writer = await _connect(server)
            started = loop.time()
            writer.write(_put(b"k", b"v"))
            reply = await asyncio.wait_for(reader.readline(), 2.0)
            answered = loop.time()
            assert await asyncio.wait_for(reader.read(), 2.0) == b""
            dropped = loop.time()
            writer.close()
            return (reply, answered - started, dropped - answered,
                    server.metrics.read_timeouts, injector.fired)

    reply, waited, idle, timeouts, fired = asyncio.run(go())
    assert reply == b"STORED\r\n"
    assert fired[COMMIT_STALL] == 1
    assert waited >= _SlowCommits.STALL_S > 2 * timeout
    assert idle >= timeout * 0.9
    assert timeouts == 2


def test_bytes_behind_a_stalled_commit_queue_up_to_the_backlog_limit():
    get = b"get k\r\n"
    reply = b"VALUE k 0 1\r\nv\r\nEND\r\n"
    count = (BACKLOG_LIMIT * 2) // len(get)

    async def go():
        router = ShardRouter(shard_count=1,
                             injector=_SlowCommits(FaultPlan(0)))
        async with MemcachedServer(router=router) as server:
            reader, writer = await _connect(server)
            await _until(lambda: server._connections)
            (connection,) = server._connections
            writer.write(_put(b"k", b"v") + get * count)
            # the set's ordered task waits out the stall; the gets
            # behind it queue, and reading stops past the limit: sample
            # the backlog once it has
            await _until(lambda: not connection.transport.is_reading())
            queued = connection.backlog_bytes
            paused = not connection.transport.is_reading()
            out = await asyncio.wait_for(
                reader.readexactly(8 + len(reply) * count), 5.0)
            resumed = connection.transport.is_reading()
            writer.close()
            await writer.wait_closed()
            return queued, paused, out, resumed

    queued, paused, out, resumed = asyncio.run(go())
    # one socket read at most past the limit (asyncio reads 256 KiB)
    assert BACKLOG_LIMIT < queued <= BACKLOG_LIMIT + (1 << 18)
    assert paused and resumed
    assert out == b"STORED\r\n" + reply * count


# ----------------------------------------------------------------------
# (e) a hot chunk costs one read callback


#: Python + C calls (``sys.setprofile``, builtins included) the loop
#: thread makes while the server answers one read of eight gets of a
#: present key, the probing client's own polling included: 441 with the
#: streams loop (a StreamReader waiter, a task wake-up and one more
#: event-loop turn), 351 with the reply written from ``data_received``
#: (CPython 3.11 and 3.12; 438 and 349 on 3.10), 335-340 with a dataclass
#: frame and a get entering its handler through ``execute``, and 248
#: (3.10 and 3.11; 247 on 3.12) with a slotted frame split in the
#: decoder, one read loop in the router's ``answer`` and a one-probe
#: read table. The ceiling sits ~8 % above the last.
HOT_CHUNK_CALL_CEILING = 268


@pytest.mark.skipif(sys.getprofile() is not None,
                    reason="another profiler is installed")
def test_hot_chunk_call_ceiling():
    burst = b"get k\r\n" * 8
    expected = b"VALUE k 0 1\r\nv\r\nEND\r\n" * 8

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

            async def exchange(request, reply, profile=None):
                # the request is in the server's socket before the
                # profiled turns start; they end with the reply read
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

            await exchange(_put(b"k", b"v"), b"STORED\r\n")
            await exchange(burst, expected)  # the read table holds k
            await exchange(burst, expected, count)
            client.close()
            return calls

    # debug mode (python -X dev) adds checks to every loop turn
    assert asyncio.run(go(), debug=False) <= HOT_CHUNK_CALL_CEILING


def test_stats_json_reports_the_inline_share():
    async def go():
        async with MemcachedServer(port=0, shard_count=2) as server:
            reader, writer = await _connect(server)
            writer.write(_put(b"k", b"v") + b"get k\r\n")
            await reader.readuntil(b"END\r\n")
            writer.write(b"get k\r\nget k\r\nget no\r\n")
            for _ in range(3):
                await reader.readuntil(b"END\r\n")
            snap = server.metrics.snapshot()
            writer.close()
            await writer.wait_closed()
            return snap

    snap = asyncio.run(go())
    # the set lands in the read callback (its shard is idle) and the
    # get behind it reads what landed: nothing took the ordered path
    assert snap["ops_total"] == 5
    assert snap["inline_requests"] == 5
    assert ServerMetrics().snapshot()["inline_requests"] == 0
