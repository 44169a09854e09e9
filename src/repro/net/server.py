"""The asyncio TCP front end: HICAMP memcached on a real socket.

``MemcachedServer`` accepts connections, feeds each socket's bytes
through a :class:`~repro.net.framing.FrameDecoder` (partial reads and
pipelined requests both work), and routes every complete frame through a
router: a leader's :class:`~repro.net.router.ShardRouter`, or a
follower's :class:`~repro.replication.follower.FollowerRouter` (reads
from the replica, writes forwarded to the leader). Responses are written
strictly in request order per connection — the memcached contract —
while commits proceed asynchronously on the shard workers, so a
pipelining client overlaps its requests with the server's commit work.

Connection lifecycle:

* per-connection **read timeout** (idle clients are dropped);
* **bounded in-flight** pipelining: at most ``max_inflight`` responses
  outstanding per connection before the reader stops dispatching, on top
  of the bounded per-shard commit queues (the write-side backpressure);
* ``quit`` and EOF both drain outstanding responses before closing;
* **graceful shutdown**: stop accepting, unblock reads, flush every
  commit queue, then stop the workers — no commit is ever dropped.

Example::

    async def main():
        server = MemcachedServer(port=0, shard_count=4)
        await server.start()
        print("listening on", server.port)
        await server.serve_forever()

    asyncio.run(main())
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.core.machine import Machine
from repro.net.framing import FrameDecoder
from repro.net.metrics import ServerMetrics
from repro.net.router import WRITE_COMMANDS, ConnectionState, ShardRouter

#: Largest chunk requested from a socket per read.
READ_CHUNK = 1 << 16


class MemcachedServer:
    """Asyncio TCP server speaking the memcached ASCII protocol.

    A router is anything with ``answer``, ``dispatch``, ``metrics``,
    ``recorder``, ``injector`` and the ``start``/``drain``/
    ``pending_commits``/``stop``/``abort`` lifecycle; without one the
    server builds a :class:`~repro.net.router.ShardRouter` from the
    remaining arguments. ``answer(frame, conn)`` returns the response
    bytes of a frame that needs no queue, else ``None``, and only then
    is ``await dispatch(frame, conn, span)`` called: an awaitable of the
    response.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 router: Optional[ShardRouter] = None,
                 machine: Optional[Machine] = None,
                 shard_count: int = 4,
                 read_timeout: Optional[float] = None,
                 max_inflight: int = 64,
                 injector=None,
                 recorder=None,
                 **router_kwargs) -> None:
        self.host = host
        self.port = port
        self.read_timeout = read_timeout
        self.max_inflight = max(1, max_inflight)
        #: optional :class:`repro.testing.faults.FaultInjector`. Hook
        #: points: split socket reads, reset-after-write-dispatch,
        #: delayed flushes, split response writes — plus the router's
        #: commit-stall hook. ``None`` keeps every hook a no-op.
        self.injector = injector
        self.router = router if router is not None else ShardRouter(
            machine=machine, shard_count=shard_count, injector=injector,
            recorder=recorder, **router_kwargs)
        if router is not None and injector is not None \
                and router.injector is None:
            router.injector = injector
        #: trace recorder shared with the router (no-op by default);
        #: request spans open at dispatch and close when the response
        #: is flushed, parenting the commit-batch spans downstream
        self.recorder = self.router.recorder
        self.metrics: ServerMetrics = self.router.metrics
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        self._closing = False

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        """Start the shard workers and begin accepting connections."""
        await self.router.start()
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Graceful stop: drain connections, flush commits, stop workers.

        After this returns, every accepted write has been committed —
        ``metrics.pending_at_shutdown`` records the (always zero) count
        of commits still queued when the workers stopped.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
        # unblock connection readers stuck in read(); already-enqueued
        # commits still land — the queues drain below. Cancel before
        # wait_closed(): on 3.12+ wait_closed waits for these handlers.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        await self.router.drain()
        self.metrics.pending_at_shutdown = self.router.pending_commits()
        await self.router.stop()
        self._server = None

    async def abort(self) -> None:
        """Crash-stop: drop connections and queued commits on the floor.

        The fault-model counterpart of :meth:`shutdown` — nothing drains,
        nothing flushes. Used by the cluster harness to kill a leader the
        way a power cut would.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        await self.router.abort()

    async def __aenter__(self) -> "MemcachedServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.shutdown()

    # ------------------------------------------------------------------
    # per-connection protocol loop

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        metrics, router = self.metrics, self.router
        metrics.connections_opened += 1
        conn_id = metrics.connections_opened
        recorder = self.recorder
        injector = self.injector
        scope = injector.next_connection() if injector is not None else -1
        decoder = FrameDecoder()
        conn = ConnectionState()
        inflight = []  # (decode time, command, bytes or awaitable, span)
        try:
            while not self._closing:
                data = b""
                if injector is not None:
                    data = injector.held_bytes(scope)
                if not data:
                    data = await self._read(reader)
                    if data is False:
                        self.metrics.read_timeouts += 1
                        break
                    if not data:
                        break
                    if injector is not None:
                        data = injector.on_read(scope, data)
                frames = decoder.feed(data)
                metrics.observe_read(len(data), len(frames))
                # a request's latency runs from here, its bytes decoded,
                # to its reply being ready to write (read in _flush)
                decoded = metrics.now()
                quit_seen = False
                for frame in frames:
                    if frame.command == b"quit":
                        quit_seen = True
                        break
                    if len(inflight) >= self.max_inflight:
                        await self._flush(inflight, writer, scope)
                    span = None
                    if recorder.enabled:
                        span = recorder.begin(
                            "request", conn=conn_id,
                            command=frame.command.decode("ascii",
                                                         "replace"))
                    response = router.answer(frame, conn)
                    if response is None:
                        response = await router.dispatch(frame, conn, span)
                    inflight.append((decoded, frame.command, response, span))
                    if injector is not None \
                            and frame.command in WRITE_COMMANDS:
                        # may raise InjectedReset: the commit is already
                        # enqueued, the response is never flushed — the
                        # "connection reset mid-commit" scenario
                        injector.after_dispatch(scope, frame.command)
                await self._flush(inflight, writer, scope)
                if quit_seen:
                    break
        except (asyncio.CancelledError, ConnectionResetError,
                BrokenPipeError):
            pass
        finally:
            self.metrics.connections_closed += 1
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    async def _read(self, reader: asyncio.StreamReader):
        """The next chunk: ``b""`` at EOF, ``False`` once ``read_timeout``
        passes with nothing read."""
        if self.read_timeout is None:
            return await reader.read(READ_CHUNK)
        return await wait_within(reader.read(READ_CHUNK), self.read_timeout)

    async def _flush(self, inflight, writer: asyncio.StreamWriter,
                     scope: int = -1) -> None:
        """Write outstanding responses (bytes, or awaitables of queued
        ones) in request order.

        Consecutive ready responses leave as one write; what is held is
        written *before* suspending on an unresolved one, so no reply
        waits on a later request's commit. A reply is ready to write at
        the flush's start, or after the suspension that resolved it.
        """
        injector = self.injector
        if injector is not None and inflight:
            await injector.before_flush(scope)
        metrics = self.metrics
        ready = metrics.now()
        held = []
        for started, command, response, span in inflight:
            if not isinstance(response, bytes):
                suspends = not response.done()
                if suspends and held:
                    writer.write(b"".join(held))
                    held.clear()
                response = await response
                if suspends:
                    ready = metrics.now()
            metrics.observe_request(command, ready - started, len(response))
            if span is not None:
                self.recorder.end(span, response_bytes=len(response))
            if injector is not None:
                for chunk in injector.split_write(scope, response):
                    writer.write(chunk)
                    await writer.drain()
            else:
                held.append(response)
        inflight.clear()
        if held:
            writer.write(b"".join(held))
        await writer.drain()


async def _wait_in_scope(awaitable, timeout: float):
    # Python 3.11+: awaited in the caller's own task under
    # asyncio.timeout, as 3.12's wait_for does, so a wait makes no task
    # and a cancel reaches ``awaitable`` like any other
    try:
        async with asyncio.timeout(timeout):
            return await awaitable
    except TimeoutError:
        return False


async def _wait_in_task(awaitable, timeout: float):
    # Python 3.10 has no asyncio.timeout: ``awaitable`` runs as a task
    task = asyncio.ensure_future(awaitable)
    try:
        await asyncio.wait((task,), timeout=timeout)
        if not task.done():
            task.cancel()
            await asyncio.wait((task,))
    except asyncio.CancelledError:
        # the caller's cancel outranks the task's outcome; cancel() on a
        # finished task also marks its exception retrieved
        task.cancel()
        raise
    return False if task.cancelled() else task.result()


#: ``await wait_within(awaitable, timeout)``: ``awaitable``'s result, or
#: ``False`` if ``timeout`` seconds pass first (``awaitable`` is then
#: cancelled and unwound). The one timed wait for a loop that stops by
#: being cancelled: before Python 3.12, ``asyncio.wait_for`` returns the
#: inner result when a cancel lands in the loop turn that completes it,
#: and the loop runs on; here that cancel is raised.
wait_within = _wait_in_scope if hasattr(asyncio, "timeout") \
    else _wait_in_task


async def serve(host: str = "127.0.0.1", port: int = 11211,
                **kwargs) -> None:
    """Run a server until cancelled (the ``repro serve`` entry point)."""
    server = MemcachedServer(host=host, port=port, **kwargs)
    await server.start()
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.shutdown()
