"""Graceful-drain edge cases and fences under injected commit stalls.

Satellites: shutdown with non-empty commit queues, in-flight fences at
shutdown, a client still connected when the drain starts, and the
ShardRouter read-after-write fence under forced commit-queue stalls.
"""

import asyncio
import gc
import socket
import warnings

from repro.net.framing import FrameDecoder
from repro.net.router import ConnectionState, ShardRouter
from repro.net.server import MemcachedServer
from repro.testing.faults import COMMIT_STALL, FaultInjector, FaultPlan

STALL_EVERY_BATCH = {COMMIT_STALL: 1.0}


def frame(wire: bytes):
    """Decode exactly one frame from raw wire bytes."""
    frames = FrameDecoder().feed(wire)
    assert len(frames) == 1
    return frames[0]


def stalling_injector(seed=0, max_stall=20):
    return FaultInjector(FaultPlan(seed, STALL_EVERY_BATCH,
                                   max_stall=max_stall))


class TestRouterFenceUnderStall:
    def test_read_after_write_sees_value_despite_stall(self):
        """Satellite: a pipelined get behind a set of the same key must
        return the new value even when every commit batch is stalled."""

        async def go():
            injector = stalling_injector()
            router = ShardRouter(shard_count=2, injector=injector)
            await router.start()
            conn = ConnectionState()
            set_future = await router.dispatch(
                frame(b"set k 0 0 2\r\nhi\r\n"), conn)
            # the write is enqueued, not applied: the worker has not run
            assert router.pending_commits() > 0
            get_future = await router.dispatch(frame(b"get k\r\n"), conn)
            response = await get_future
            assert await set_future == b"STORED\r\n"
            await router.stop()
            return injector, response

        injector, response = asyncio.run(go())
        assert b"VALUE k 0 2\r\nhi\r\n" in response
        assert injector.fired[COMMIT_STALL] > 0

    def test_unrelated_connection_reads_stay_inline(self):
        """Another connection's read takes the no-fence snapshot path —
        it may run before the stalled commit lands (and must not hang)."""

        async def go():
            router = ShardRouter(shard_count=2,
                                 injector=stalling_injector(max_stall=50))
            await router.start()
            writer_conn, reader_conn = ConnectionState(), ConnectionState()
            set_future = await router.dispatch(
                frame(b"set k 0 0 2\r\nhi\r\n"), writer_conn)
            early = await (await router.dispatch(frame(b"get k\r\n"),
                                                 reader_conn))
            await set_future
            late = await (await router.dispatch(frame(b"get k\r\n"),
                                                reader_conn))
            await router.stop()
            return early, late

        early, late = asyncio.run(go())
        assert early == b"END\r\n"  # snapshot read before the commit
        assert b"VALUE k 0 2\r\nhi\r\n" in late


class TestGracefulDrain:
    def test_shutdown_with_nonempty_commit_queues(self):
        """Shutdown must commit every enqueued write before stopping."""

        async def go():
            server = MemcachedServer(port=0, shard_count=2,
                                     injector=stalling_injector(max_stall=40))
            await server.start()
            conn = ConnectionState()
            futures = []
            for i in range(8):
                futures.append(await server.router.dispatch(
                    frame(b"set k%02d 0 0 2\r\nv%d\r\n" % (i, i)), conn))
            # nothing has been applied yet: the queues are non-empty at
            # the moment the drain starts
            assert server.router.pending_commits() > 0
            await asyncio.wait_for(server.shutdown(), timeout=10)
            return server, futures

        server, futures = asyncio.run(go())
        assert server.metrics.pending_at_shutdown == 0
        assert all(f.done() and f.result() == b"STORED\r\n"
                   for f in futures)
        # the committed values are really in the cache
        for i in range(8):
            key = b"k%02d" % i
            backend = server.router.servers[server.router.shard_index(key)]
            assert backend.get(key) == b"v%d" % i

    def test_shutdown_resolves_inflight_fences(self):
        """A fenced read in flight when shutdown starts must resolve
        (with the fenced write's value), not deadlock the drain."""

        async def go():
            server = MemcachedServer(port=0, shard_count=2,
                                     injector=stalling_injector(max_stall=40))
            await server.start()
            conn = ConnectionState()
            set_future = await server.router.dispatch(
                frame(b"set k 0 0 2\r\nhi\r\n"), conn)
            get_future = await server.router.dispatch(
                frame(b"get k\r\n"), conn)
            await asyncio.wait_for(server.shutdown(), timeout=10)
            return await set_future, await get_future

        set_response, get_response = asyncio.run(go())
        assert set_response == b"STORED\r\n"
        assert b"VALUE k 0 2\r\nhi\r\n" in get_response

    def test_client_connected_mid_drain(self):
        """An idle connected client must not stall shutdown, and its
        socket is closed by the drain."""

        async def go():
            server = MemcachedServer(port=0, shard_count=2)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(b"set a 0 0 1\r\nx\r\n")
            await writer.drain()
            await asyncio.wait_for(server.shutdown(), timeout=10)
            # the server closed its side; the client reads EOF
            eof = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            # new connections are refused once the drain has finished
            refused = False
            try:
                await asyncio.open_connection("127.0.0.1", server.port)
            except OSError:
                refused = True
            return server, eof, refused

        server, eof, refused = asyncio.run(go())
        assert server.metrics.pending_at_shutdown == 0
        assert eof.endswith(b"") and refused

    def test_a_connection_accepted_as_shutdown_begins_is_closed(self):
        """A client connects, and shutdown begins in the turn after the
        loop accepts it, before asyncio has made its transport. The
        server must still take the connection and close it (asyncio
        3.11's ``Server._attach`` asserted on a transport made after
        ``close()``, and the socket was left to the collector).

        Shutdown runs as its own task so that it starts a turn later on
        every Python: 3.12's ``wait_for`` would run it inline, before
        the accept callback of the same turn, which would never run."""

        async def go():
            loop = asyncio.get_running_loop()
            server = MemcachedServer(port=0, shard_count=1)
            await server.start()
            client = socket.create_connection(("127.0.0.1", server.port))
            client.setblocking(False)
            try:
                # the loop's next poll queues the accept behind this
                # task; the accept schedules the transport's making,
                # and shutdown starts first, in the turn after
                await asyncio.sleep(0)
                stopping = asyncio.create_task(server.shutdown())
                await asyncio.wait_for(stopping, timeout=10)
                eof = await asyncio.wait_for(loop.sock_recv(client, 1),
                                             timeout=5)
            finally:
                client.close()
            return server, eof

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            server, eof = asyncio.run(go())
            gc.collect()
        assert eof == b""
        assert server.metrics.connections_opened == 1
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)] == []

    def test_shutdown_is_idempotent_after_quiet_run(self):
        async def go():
            server = MemcachedServer(port=0, shard_count=2)
            await server.start()
            await server.shutdown()
            return server

        server = asyncio.run(go())
        assert server.router.pending_commits() == 0
