"""The asyncio TCP front end: HICAMP memcached on a real socket.

``MemcachedServer`` accepts connections and gives each one a
:class:`_Connection`, an :class:`asyncio.Protocol` that feeds the
socket's bytes through a :class:`~repro.net.framing.FrameDecoder`
(partial reads and pipelined requests both work) and routes every
complete frame through a router: a leader's
:class:`~repro.net.router.ShardRouter`, or a follower's
:class:`~repro.replication.follower.FollowerRouter` (reads from the
replica, writes forwarded to the leader). Responses are written
strictly in request order per connection — the memcached contract. A
write lands in the read callback that decoded it, unless something
must be awaited first.

Connection lifecycle:

* **inline path**: the read callback answers every frame of a chunk
  that the router's ``answer`` resolves (a snapshot read, ``version``,
  a malformed frame) and writes the chunk's replies with one
  ``transport.write``. A hot get is answered in the loop turn its bytes
  arrive, with no task, no future and no extra turn (PAPER §2.2: a read
  of a committed version never waits on a writer). A write is staged
  there too, and each shard's staged writes land as one commit batch
  (the router's ``land``) before any frame that reads a staged key or
  every key (``stats``), before every ``MAX_INFLIGHT`` write, before
  ``quit``, before the rest of the chunk goes to the ordered path and
  at the end of the chunk — so the chunk's replies, writes included,
  leave in request order in one ``transport.write``;
* **ordered path**: the first frame that needs the router's
  ``dispatch`` (``flush_all``, every write of a follower's front, which
  forwards it), every chunk of a fault-injected connection or router
  (its hooks await) and the rest of a chunk behind a full write buffer
  go to the connection's one ordered task, which lands each write in
  turn. Bytes that arrive while it runs wait in a backlog (reading
  pauses once ``BACKLOG_LIMIT`` bytes wait). Once the task has written
  every reply it owes, it takes the backlog as one chunk the same way,
  inline up to its first frame that needs ``dispatch``, and ends when
  nothing is owed;
* **bounded in-flight** pipelining: at most :data:`MAX_INFLIGHT` replies
  are held before they are written; a transport whose write buffer
  passes its high-water mark pauses reading until it drains (the
  write-side backpressure);
* an **idle timer** per connection (``read_timeout``) drops a client
  that sends nothing for that long; it never fires while the server
  still owes the connection replies;
* ``quit`` and EOF both flush outstanding replies before closing;
* **graceful shutdown**: stop accepting, close every connection, then
  quiesce reclamation — every write answered has landed.

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
import gc
from typing import Optional

from repro.core.machine import Machine
from repro.net.framing import FrameDecoder
from repro.net.metrics import ServerMetrics
from repro.net.router import READ_COMMANDS, WRITE_COMMANDS, ShardRouter

#: Bytes a connection queues for its ordered task before it stops
#: reading (a ``StreamReader`` pauses at twice its 64 KiB limit).
BACKLOG_LIMIT = 1 << 17

#: Replies a connection holds before it writes them (bounded in-flight
#: pipelining).
MAX_INFLIGHT = 64


class MemcachedServer:
    """Asyncio TCP server speaking the memcached ASCII protocol.

    A router is anything with ``answer``, ``lands_inline``, ``land``,
    ``shard_index``, ``dispatch``, ``metrics``, ``recorder``,
    ``injector`` and the ``start``/``drain``/``stop``/``abort``
    lifecycle; without one the server builds a
    :class:`~repro.net.router.ShardRouter` from the remaining arguments.
    ``answer(frame)`` returns the response bytes of a frame that lands
    nothing, else ``None``; then, if ``lands_inline`` and no injector is
    set, a write is staged for ``land(shard_index(key), writes)``, and
    otherwise ``await dispatch(frame, parent=span)`` gives a completed
    future holding the response.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 router: Optional[ShardRouter] = None,
                 machine: Optional[Machine] = None,
                 shard_count: int = 4,
                 read_timeout: Optional[float] = None,
                 injector=None,
                 recorder=None,
                 **router_kwargs) -> None:
        self.host = host
        self.port = port
        self.read_timeout = read_timeout
        self.max_inflight = MAX_INFLIGHT
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
        self._connections: set = set()
        self._closing = False

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        """Start the router and begin accepting connections; the
        router's collector counter starts timing collections."""
        gc.callbacks.append(self.router.collector)
        await self.router.start()
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Graceful stop: close connections, then stop the router (which
        quiesces reclamation)."""
        await self._close_connections(abort=False)
        await self.router.stop()

    async def abort(self) -> None:
        """Crash-stop: drop connections, and stalled writes, on the floor.

        The fault-model counterpart of :meth:`shutdown` — nothing drains,
        nothing flushes. Used by the cluster harness to kill a leader the
        way a power cut would.
        """
        await self._close_connections(abort=True)
        await self.router.abort()

    async def _close_connections(self, abort: bool) -> None:
        # stop accepting (a connection accepted before that closes
        # itself in connection_made), cancel the ordered tasks (a write
        # one holds before it lands is dropped unanswered), then close
        # every transport. A graceful close first reads on:
        # what a client sent is dropped unanswered, not left unread for
        # the close to answer with a reset. That takes two turns, as a
        # turn runs this task before the read callbacks its own poll
        # found. Close before wait_closed(): on 3.12+ it waits for
        # every connection to be lost.
        self._closing = True
        if self.router.collector in gc.callbacks:
            gc.callbacks.remove(self.router.collector)
        if self._server is not None:
            await stop_accepting(self._server)
        connections = list(self._connections)
        tasks = [c.task for c in connections if c.task is not None]
        for task in tasks:
            task.cancel()
        if not abort:
            for connection in connections:
                connection.transport.resume_reading()
            await asyncio.sleep(0)
            await asyncio.sleep(0)
        await asyncio.gather(*tasks, return_exceptions=True)
        for connection in connections:
            if abort:
                connection.transport.abort()
            else:
                connection.transport.close()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "MemcachedServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.shutdown()

    # ------------------------------------------------------------------
    # the ordered path's writer

    async def _flush(self, inflight, writer, scope: int = -1) -> None:
        """Write outstanding responses in request order through
        ``writer`` (``write``/``drain``: a :class:`_Connection`), as one
        write unless the injector splits them; each is ready to write
        at the flush's start."""
        injector = self.injector
        if injector is not None and inflight:
            await injector.before_flush(scope)
        metrics = self.metrics
        ready = metrics.now()
        held = []
        for started, command, response, span in inflight:
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


class _Connection(asyncio.Protocol):
    """One client connection of a :class:`MemcachedServer`.

    ``data_received`` answers inline what the router can answer and
    lands inline the writes; the first frame it cannot do either for
    hands the rest of the chunk to :meth:`_serve`, the connection's one
    ordered task, and what arrives while that task runs waits in
    ``backlog`` until the replies it owes are written.
    """

    def __init__(self, server: MemcachedServer) -> None:
        self.server = server
        self.metrics = server.metrics
        self.recorder = server.recorder
        self.injector = server.injector
        router = server.router
        self.answer = router.answer
        #: writes land in the read callback (no injector to await, and a
        #: router that lands rather than forwards)
        self.lands = router.lands_inline and router.injector is None
        self.shard_index = router.shard_index
        self.land = router.land
        self.max_inflight = server.max_inflight
        self.timeout = server.read_timeout
        self.decoder = FrameDecoder()
        self.loop = asyncio.get_running_loop()
        self.transport: Optional[asyncio.Transport] = None
        #: the ordered task while one runs; bytes read meanwhile queue
        #: for it in ``backlog``, and EOF read meanwhile sets ``eof``
        self.task: Optional[asyncio.Task] = None
        self.backlog: list = []
        self.backlog_bytes = 0
        self.eof = False
        #: resolved when a write buffer past its high-water mark drains
        self._drained: Optional[asyncio.Future] = None
        self._timer: Optional[asyncio.TimerHandle] = None
        self.idle_since = 0.0
        self.id = self.scope = -1

    # ------------------------------------------------------------------
    # transport callbacks

    def connection_made(self, transport) -> None:
        server, metrics = self.server, self.metrics
        self.transport = transport
        server._connections.add(self)
        metrics.connections_opened += 1
        self.id = metrics.connections_opened
        if self.injector is not None:
            self.scope = self.injector.next_connection()
        if server._closing:
            transport.close()
        elif self.timeout is not None:
            self.idle_since = self.loop.time()
            self._timer = self.loop.call_at(self.idle_since + self.timeout,
                                            self._idle)

    def data_received(self, data: bytes) -> None:
        if self.server._closing:
            return  # a stopping server answers nothing more
        if self.timeout is not None:
            self.idle_since = self.loop.time()
        if self.task is not None:
            # the ordered task owes replies: it takes these after them
            self.backlog.append(data)
            self.backlog_bytes += len(data)
            if self.backlog_bytes > BACKLOG_LIMIT:
                self.transport.pause_reading()
            return
        rest = self._take(data)
        if rest is not None:
            self.task = self.loop.create_task(self._serve(*rest))

    def eof_received(self) -> bool:
        # with no task, every reply is written: False closes (the
        # transport sends what it holds first); else the task closes
        self.eof = self.task is not None
        return self.eof

    def pause_writing(self) -> None:
        self._drained = self.loop.create_future()
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        drained, self._drained = self._drained, None
        if not drained.done():
            drained.set_result(None)
        self._resume()

    def connection_lost(self, exc) -> None:
        self.metrics.connections_closed += 1
        self.server._connections.discard(self)
        if self._timer is not None:
            self._timer.cancel()
        if self._drained is not None:
            self.resume_writing()  # a task waiting on drain() wakes

    # ------------------------------------------------------------------
    # the inline path

    def _take(self, data: bytes):
        """Decode ``data`` and answer inline every frame the router can,
        up to the first it cannot: ``None`` when none is left, else
        ``(frames, decoded, span)`` for the ordered path (``span`` is
        the first frame's request span, if open).

        A write is staged, and a shard's staged writes land as one
        commit batch (``router.land``) before a frame that reads a
        staged key or every key, before the replies are written, and
        before the rest of the chunk goes to the ordered path."""
        injector = self.injector
        if injector is not None:
            data = injector.on_read(self.scope, data)
        frames = self.decoder.feed(data)
        metrics = self.metrics
        metrics.observe_read(len(data), len(frames))
        if injector is not None:
            # its hooks await: every chunk (and the held-back rest of a
            # split read) takes the ordered path
            return frames, metrics.now(), None
        if not frames:
            return None
        # a request's latency runs from here, its bytes decoded, to its
        # reply being ready to write
        decoded = metrics.now()
        answer, recorder = self.answer, self.recorder
        replies, spans = [], []
        # staged[shard]: (reply index, frame, span) of each write waiting
        # to land there; keys: every key they write. Both are made by
        # the chunk's first staged write, so a chunk of reads allocates
        # nothing for them.
        staged = keys = None
        # every frame before ``index`` is answered or staged: ``replies``
        # holds those from ``start`` on, and ``write_at`` is a write
        start, write_at = 0, self.max_inflight
        for index, frame in enumerate(frames):
            command = frame.command
            if command == b"quit":
                self._write_inline(frames[start:index], replies, spans,
                                   decoded, staged, keys)
                self.transport.close()
                return None
            if index == write_at:
                self._write_inline(frames[start:index], replies, spans,
                                   decoded, staged, keys)
                start, write_at = index, index + self.max_inflight
                replies, spans = [], []
                if self._drained is not None:
                    # the write buffer is full: the rest waits for drain
                    return frames[index:], decoded, None
            span = None
            if recorder.enabled:
                span = recorder.begin(
                    "request", conn=self.id,
                    command=command.decode("ascii", "replace"))
            if keys and (command == b"stats" or command in READ_COMMANDS
                         and not keys.isdisjoint(frame.args)):
                self._land(staged, keys, replies)
            response = answer(frame)
            if response is None:
                if not self.lands or command == b"flush_all":
                    self._write_inline(frames[start:index], replies, spans,
                                       decoded, staged, keys)
                    return frames[index:], decoded, span
                if keys is None:
                    staged, keys = {}, set()
                staged.setdefault(self.shard_index(frame.key), []).append(
                    (len(replies), frame, span))
                keys.add(frame.key)
            replies.append(response)
            if span is not None:
                spans.append((span, len(replies) - 1))
        self._write_inline(frames[start:], replies, spans, decoded, staged,
                           keys)
        return None

    def _land(self, staged, keys, replies) -> None:
        """Land every shard's staged writes, each reply in its place."""
        land = self.land
        for shard, held in staged.items():
            landed = land(shard, [(frame, span) for _, frame, span in held])
            for (at, _, _), reply in zip(held, landed):
                replies[at] = reply
        staged.clear()
        keys.clear()

    def _write_inline(self, answered, replies, spans, decoded: float,
                      staged, keys) -> None:
        """Land what is staged, then write the replies to the frames
        ``answered`` inline, all ready now (``spans`` pairs each open
        request span with its reply's index)."""
        if keys:
            self._land(staged, keys, replies)
        if not replies:
            return
        metrics = self.metrics
        data = b"".join(replies)
        metrics.observe_inline([frame.command for frame in answered],
                               metrics.now() - decoded, len(data))
        for span, at in spans:
            self.recorder.end(span, response_bytes=len(replies[at]))
        self.transport.write(data)

    # ------------------------------------------------------------------
    # the ordered path

    async def _serve(self, frames, decoded: float, span) -> None:
        """The ordered task: dispatch ``frames`` in order (the first
        one's request span is ``span`` if already open), then any bytes
        a split read held back, then the backlog through :meth:`_take`,
        until nothing is owed; close after ``quit``, EOF or a reset."""
        injector, metrics = self.injector, self.metrics
        reading = False
        try:
            while await self._dispatch(frames, decoded, span):
                data = b"" if injector is None \
                    else injector.held_bytes(self.scope)
                if data:
                    frames = self.decoder.feed(data)
                    metrics.observe_read(len(data), len(frames))
                    decoded, span = metrics.now(), None
                    continue
                if not self.backlog:
                    reading = True
                    break
                # every reply owed is written: the backlog is read now,
                # inline up to its first frame that needs dispatch
                data = b"".join(self.backlog)
                self.backlog.clear()
                self.backlog_bytes = 0
                self._resume()
                rest = self._take(data)
                if rest is None:
                    reading = not self.transport.is_closing()
                    break
                frames, decoded, span = rest
        except (ConnectionResetError, BrokenPipeError):
            pass  # a reset, injected or not, ends the connection
        finally:
            self.task = None
            if not reading:  # also on a cancel or an unexpected error
                self.transport.close()
        if reading:
            if self.eof:
                self.transport.close()
            elif self.timeout is not None:
                # idle time starts once the replies owed are out
                self.idle_since = self.loop.time()

    async def _dispatch(self, frames, decoded: float, span) -> bool:
        """One chunk's frames through ``answer``, else ``dispatch``, and
        their replies flushed in order; False once ``quit`` is seen."""
        server, scope = self.server, self.scope
        router, recorder, injector = server.router, self.recorder, \
            self.injector
        await self.drain()  # the inline path stopped on a full buffer
        inflight = []  # (decode time, command, reply, span)
        for frame in frames:
            command = frame.command
            if command == b"quit":
                await server._flush(inflight, self, scope)
                return False
            if len(inflight) >= self.max_inflight:
                await server._flush(inflight, self, scope)
            if span is None and recorder.enabled:
                span = recorder.begin(
                    "request", conn=self.id,
                    command=command.decode("ascii", "replace"))
            response = router.answer(frame)
            if response is None:
                response = (await router.dispatch(frame, parent=span)) \
                    .result()
            inflight.append((decoded, command, response, span))
            span = None
            if injector is not None and command in WRITE_COMMANDS:
                # may raise InjectedReset: the write has landed, the
                # response is never flushed — the "connection reset
                # mid-commit" scenario
                injector.after_dispatch(scope, command)
        await server._flush(inflight, self, scope)
        return True

    # the writer ``MemcachedServer._flush`` writes through

    def write(self, data: bytes) -> None:
        if not self.transport.is_closing():
            self.transport.write(data)

    async def drain(self) -> None:
        if self._drained is not None:
            await self._drained
        if self.transport.is_closing():
            raise ConnectionResetError("connection closed")

    # ------------------------------------------------------------------
    # reading on and off

    def _resume(self) -> None:
        """Read again unless the write buffer or the backlog is full."""
        if self._drained is None and self.backlog_bytes <= BACKLOG_LIMIT:
            self.transport.resume_reading()

    def _idle(self) -> None:
        loop = self.loop
        if self.task is not None or self._drained is not None:
            # replies still owed: the idle time starts when they are out
            self._timer = loop.call_later(self.timeout, self._idle)
            return
        deadline = self.idle_since + self.timeout
        if loop.time() < deadline:
            self._timer = loop.call_at(deadline, self._idle)
            return
        self._timer = None
        self.metrics.read_timeouts += 1
        self.transport.close()


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


async def stop_accepting(server: asyncio.AbstractServer) -> None:
    """Close a listening ``server`` once the loop has made the
    transports of connections it already accepted (a turn after each
    accept); their protocols close them, their owner being marked as
    stopping. Before Python 3.12 a transport made after ``close()``
    fails an assertion in ``Server._attach``, and its socket is never
    closed."""
    loop = asyncio.get_running_loop()
    for sock in server.sockets:
        loop.remove_reader(sock.fileno())
    await asyncio.sleep(0)
    server.close()
