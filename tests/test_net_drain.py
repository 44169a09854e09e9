"""Graceful-drain edge cases and read-after-write under injected
commit stalls.

Shutdown with a write stalled before it lands, a read in flight behind
a stalled write at shutdown, a client still connected when the drain
starts, and ``ShardRouter.dispatch``'s read-after-write when every
write stalls before it lands.
"""

import asyncio
import gc
import socket
import warnings

from repro.net.framing import FrameDecoder
from repro.net.router import ConnectionState, ShardRouter
from repro.net.server import MemcachedServer
from repro.testing.auditors import audit_machine
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
        """A get behind a set of the same key must return the new value
        even when every write is stalled before it lands."""

        async def go():
            injector = stalling_injector()
            router = ShardRouter(shard_count=2, injector=injector)
            await router.start()
            conn = ConnectionState()
            set_future = await router.dispatch(
                frame(b"set k 0 0 2\r\nhi\r\n"), conn)
            # the write has landed by the time dispatch returns
            assert set_future.result() == b"STORED\r\n"
            get_future = await router.dispatch(frame(b"get k\r\n"), conn)
            response = await get_future
            await router.stop()
            return injector, response

        injector, response = asyncio.run(go())
        assert b"VALUE k 0 2\r\nhi\r\n" in response
        assert injector.fired[COMMIT_STALL] > 0

    def test_unrelated_connection_reads_stay_inline(self):
        """Another connection's read is a snapshot read answered inline —
        it runs while the stalled write has not landed (and must not
        hang)."""

        async def go():
            router = ShardRouter(shard_count=2,
                                 injector=stalling_injector(max_stall=50))
            await router.start()
            writer_conn, reader_conn = ConnectionState(), ConnectionState()
            landing = asyncio.ensure_future(router.dispatch(
                frame(b"set k 0 0 2\r\nhi\r\n"), writer_conn))
            await asyncio.sleep(0)  # the write is in its stall
            early = router.answer(frame(b"get k\r\n"))
            assert not landing.done()
            await (await landing)
            late = await (await router.dispatch(frame(b"get k\r\n"),
                                                reader_conn))
            await router.stop()
            return early, late

        early, late = asyncio.run(go())
        assert early == b"END\r\n"  # snapshot read before the commit
        assert b"VALUE k 0 2\r\nhi\r\n" in late


class TestGracefulDrain:
    def test_shutdown_with_a_write_stalled_before_it_lands(self):
        """Shutdown while a pipelined burst of sets is stalled on the
        connection's ordered task: the task is cancelled, so every write
        answered has landed, the one in its stall has not, and the
        machine audits clean."""

        async def go():
            server = MemcachedServer(port=0, shard_count=2,
                                     injector=stalling_injector(max_stall=40))
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(b"".join(b"set k%02d 0 0 2\r\nv%d\r\n" % (i, i)
                                  for i in range(8)))
            await writer.drain()
            while server.metrics.commit_batches < 2:
                await asyncio.sleep(0)
            await asyncio.wait_for(server.shutdown(), timeout=10)
            replies = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            return server, replies

        server, replies = asyncio.run(go())
        landed = server.metrics.commit_batches
        assert 2 <= landed < 8
        # every write answered has landed
        answered = replies.count(b"STORED\r\n")
        assert replies == b"STORED\r\n" * answered and answered <= landed
        for i in range(8):
            key = b"k%02d" % i
            backend = server.router.servers[server.router.shard_index(key)]
            assert backend.get(key) == (b"v%d" % i if i < landed else None)
        assert audit_machine(server.router.machine, strict=True).ok

    def test_shutdown_resolves_inflight_fences(self):
        """A read dispatched behind a stalled write before shutdown
        starts answers with the write's value, and the drain does not
        deadlock."""

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

        _, eof, refused = asyncio.run(go())
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
            await server.shutdown()
            return server

        server = asyncio.run(go())
        assert server.metrics.connections_opened == 0
