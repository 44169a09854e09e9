"""The replication leader: tail committed roots, ship structural deltas.

The leader sits next to a :class:`~repro.net.router.ShardRouter` and
replicates each shard backend's key-value segment as one *stream*
(streams are keyed by shard index, not VSID — ``flush_all`` swaps the
backend's segment, and the stream follows the backend). It learns about
committed root advances through the router's ``commit_listeners`` hook,
so tailing costs one synchronous callback per applied batch; consecutive
commits to the same stream naturally coalesce, because a delta is always
computed against the stream's *latest* root.

Per follower session the leader keeps:

* ``known`` — leader PLIDs the follower holds. The invariant is
  *membership implies the follower holds (and pins) the line's entire
  subtree*: a line is only added after every line it references was
  shipped or already known, and the follower's install takes a counted
  reference. Deltas prune their reachability walk at known PLIDs.
* ``forgets`` — PLIDs the leader has deallocated since the last ship.
  A store ``dealloc_listener`` prunes ``known`` the moment a line dies,
  because its PLID can be *reused* for different content; the FORGET
  frames are flushed to the follower before the next delta so a reused
  PLID is never interpreted against a stale translation.
* lag bookkeeping — commits observed minus commits acknowledged, per
  stream. A follower farther behind than :data:`LAG_WINDOW` commits
  on a stream is resynced:
  RESET (the follower drops its translation map), then a full snapshot
  sync of every stream. The same fallback answers a NACK — a follower
  reporting a missing line is evidence the incremental state diverged,
  and a full sync against an empty known set repairs it.

Delta safety: the stream's root entry is retained for the duration of
compute-and-send, so a commit racing with the ship cannot deallocate a
line the delta references. Frames for one ship are serialized into a
single buffer synchronously — no event-loop yield between reading the
store and framing the bytes.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Set

from repro.errors import ReplicationError
from repro.net.framing import close_writer
from repro.net.router import ShardRouter
from repro.net.server import stop_accepting, wait_within
from repro.replication import wire
from repro.replication.delta import compute_delta
from repro.replication.metrics import ReplicationMetrics
from repro.segments import dag

READ_CHUNK = 1 << 16

#: Commits a follower may trail a stream by before it is resynced.
LAG_WINDOW = 256


class FollowerSession:
    """Per-connection replication state on the leader."""

    def __init__(self, leader: "ReplicationLeader", writer,
                 scope: int) -> None:
        self.leader = leader
        self.writer = writer
        self.scope = scope
        #: leader PLIDs the follower holds (whole pinned subtrees)
        self.known: Set[int] = set()
        #: deallocated PLIDs to flush as FORGET before the next delta
        self.forgets: List[int] = []
        self.acked_seq: Dict[int, int] = {}
        self.shipped_seq: Dict[int, int] = {}
        self.last_reset_seq: Dict[int, int] = {}
        #: streams with commits not yet shipped
        self.dirty: Set[int] = set()
        self.needs_resync = False
        self.wake = asyncio.Event()

    def mark_dirty(self, stream: int) -> None:
        self.dirty.add(stream)
        self.wake.set()

    def on_dealloc(self, plid: int) -> None:
        """Store callback: a line died; its PLID may be reused.

        On the router's held store this fires at *drain* time,
        not when the count reaches zero — which is exactly what the
        FORGET protocol needs: a deferred-dead line's slot cannot be
        reused until it actually deallocates, so a PLID in ``known``
        either still names that content or has been FORGOTten here
        first. The router's ``drain()`` quiesces the store's reclamation
        queue, so forgets are flushed before any checkpoint or teardown.
        """
        if plid in self.known:
            self.known.discard(plid)
            self.forgets.append(plid)

    def lag(self, stream: int) -> int:
        commit_seq = self.leader.commit_seq.get(stream, 0)
        return commit_seq - self.acked_seq.get(stream, 0)


class ReplicationLeader:
    """Serves the replication wire protocol next to a shard router."""

    def __init__(self, router: ShardRouter,
                 host: str = "127.0.0.1", port: int = 0,
                 heartbeat_interval: Optional[float] = 1.0,
                 metrics: Optional[ReplicationMetrics] = None,
                 injector=None,
                 recorder=None) -> None:
        self.router = router
        self.machine = router.machine
        self.host = host
        self.port = port
        self.lag_window = LAG_WINDOW
        self.heartbeat_interval = heartbeat_interval
        self.metrics = metrics if metrics is not None \
            else ReplicationMetrics()
        #: trace recorder; defaults to the router's, so one trace holds
        #: request → commit batch → replication ship/advance spans
        self.recorder = recorder if recorder is not None \
            else router.recorder
        # the leader's wire accounting joins the router's registry, so
        # one exposition covers serving and replication together
        if "repro_replication_bytes_sent" not in router.registry:
            from repro.obs.adapters import register_replication_metrics
            register_replication_metrics(router.registry, self.metrics)
        #: optional :class:`repro.testing.faults.FaultInjector` applied
        #: to the replication link itself (split reads/writes, injected
        #: resets) — the faulty-link fuzz profile drives this.
        self.injector = injector
        #: commits applied per stream since leader start (ROOT_ADVANCE seq)
        self.commit_seq: Dict[int, int] = {}
        self._sessions: List[FollowerSession] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._session_tasks: set = set()
        #: set by :meth:`stop`: a connection accepted from then on is
        #: refused (asyncio hands one over turns after the accept)
        self._closing = False

    # ------------------------------------------------------------------
    # lifecycle

    def streams(self) -> Dict[int, int]:
        """The stream table: shard index → current backend VSID."""
        out = {}
        for shard, server in enumerate(self.router.servers):
            kvp = getattr(server, "kvp", None)
            if kvp is not None:
                out[shard] = kvp.vsid
        return out

    async def start(self) -> None:
        """Hook the router, then accept followers.

        The commit listener is leader-wide (one callback per applied
        batch, fanned out to sessions); dealloc listeners are
        **per-session** — attached when a follower finishes its
        handshake, detached in the session's teardown path — so a fleet
        of reconnecting followers cannot accumulate dead callbacks on
        the store's hot dealloc path.
        """
        self._closing = False
        self.router.commit_listeners.append(self._on_commit)
        self._server = await asyncio.start_server(
            self._accept, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Close follower connections and unhook the router/store. Every
        session ends first: a started one is cancelled and waited on, a
        later one is refused by :meth:`_accept`."""
        self._closing = True
        if self._server is not None:
            await stop_accepting(self._server)
        tasks = list(self._session_tasks)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.wait(tasks)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        listeners = self.router.commit_listeners
        if self._on_commit in listeners:
            listeners.remove(self._on_commit)
        # session teardown already detached these; sweep defensively so
        # stop() leaves the store clean even after an unwound handshake
        for session in list(self._sessions):
            self._detach_session(session)

    def _detach_session(self, session: "FollowerSession") -> None:
        """Deregister one session everywhere it was hooked in."""
        if session in self._sessions:
            self._sessions.remove(session)
        dealloc = self.machine.mem.store.dealloc_listeners
        if session.on_dealloc in dealloc:
            dealloc.remove(session.on_dealloc)

    # ------------------------------------------------------------------
    # router / store hooks (synchronous, never block)

    def _on_commit(self, shard: int, vsid: int, commits: int) -> None:
        self.commit_seq[shard] = self.commit_seq.get(shard, 0) + commits
        self.metrics.commits_observed += commits
        for session in self._sessions:
            session.mark_dirty(shard)

    # ------------------------------------------------------------------
    # follower connections

    def _accept(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        """Start a connected follower's session task, tracked from now
        on, or close the connection once :meth:`stop` has begun."""
        if self._closing:
            writer.close()
            return
        task = asyncio.ensure_future(self._serve_follower(reader, writer))
        self._session_tasks.add(task)

        def done(task: asyncio.Task) -> None:
            self._session_tasks.discard(task)
            # also when a stop cancelled the task before its first step
            writer.close()

        task.add_done_callback(done)

    async def _serve_follower(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        injector = self.injector
        scope = injector.next_connection() if injector is not None else -1
        session = FollowerSession(self, writer, scope)
        sender: Optional[asyncio.Task] = None
        try:
            decoder = wire.LengthPrefixedDecoder()
            hello = await self._read_hello(reader, decoder, scope)
            mem = self.machine.mem
            wire.check_handshake(hello, mem.line_bytes, mem.fanout)
            streams = self.streams()
            self._send(session, wire.WELCOME, wire.encode_json_payload(
                wire.welcome_doc(mem.line_bytes, mem.fanout, streams)))
            self._sessions.append(session)
            self.machine.mem.store.dealloc_listeners.append(
                session.on_dealloc)
            follower_fps = {int(s): bytes.fromhex(fp)
                            for s, fp in hello.get("streams", {}).items()}
            self._initial_sync(session, streams, follower_fps)
            await self._drain(session)
            sender = asyncio.ensure_future(self._sender(session))
            await self._receiver(session, reader, decoder, scope)
        except (ReplicationError, wire.FrameTooLargeError) as exc:
            try:
                self._send(session, wire.ERROR, wire.encode_json_payload(
                    {"error": str(exc)}))
                await self._drain(session)
            except (ConnectionError, OSError):
                pass
        except (asyncio.CancelledError, asyncio.IncompleteReadError,
                ConnectionError, OSError):
            pass
        finally:
            if sender is not None:
                sender.cancel()
                try:
                    await sender
                except (asyncio.CancelledError, ConnectionError, OSError):
                    pass
            self._detach_session(session)
            await close_writer(writer)

    async def _read_hello(self, reader, decoder, scope) -> Dict:
        while True:
            frames = decoder.feed(await self._read(reader, scope))
            if frames:
                ftype, payload = frames[0]
                if ftype != wire.HELLO:
                    raise ReplicationError(
                        "expected HELLO, got %s"
                        % wire.FRAME_NAMES.get(ftype, ftype))
                return wire.decode_json_payload(payload)

    async def _read(self, reader, scope: int) -> bytes:
        injector = self.injector
        if injector is not None:
            held = injector.held_bytes(scope)
            if held:
                return held
        data = await reader.read(READ_CHUNK)
        if not data:
            raise asyncio.IncompleteReadError(b"", None)
        if injector is not None:
            data = injector.on_read(scope, data)
        return data

    # ------------------------------------------------------------------
    # shipping

    def _send(self, session: FollowerSession, ftype: int,
              payload: bytes) -> None:
        frame = wire.encode_frame(ftype, payload)
        self.metrics.bytes_sent += len(frame)
        session.writer.write(frame)

    async def _drain(self, session: FollowerSession) -> None:
        injector = self.injector
        if injector is not None:
            # model a link drop: tear the connection down mid-stream
            injector.after_dispatch(session.scope, b"repl")
        await session.writer.drain()

    def _initial_sync(self, session: FollowerSession,
                      streams: Dict[int, int],
                      follower_fps: Dict[int, bytes]) -> None:
        """Seed streams the follower already holds; full-sync the rest."""
        store = self.machine.mem.store
        for stream in sorted(streams):
            vsid = streams[stream]
            entry = self.machine.segmap.entry(vsid)
            fp = follower_fps.get(stream)
            if fp is not None and fp == dag.segment_fingerprint(
                    self.machine, vsid):
                plids = [plid for plid, _ in
                         dag.walk_lines(store, entry.root)]
                self._send(session, wire.SEED,
                           wire.encode_seed_payload(stream, plids))
                session.known.update(plids)
                self.metrics.seed_lines += len(plids)
                seq = self.commit_seq.get(stream, 0)
                self._ship_advance(session, stream, vsid, entry, seq)
            else:
                self._ship_full_sync(session, stream, vsid)

    def _ship_full_sync(self, session: FollowerSession, stream: int,
                        vsid: int) -> None:
        self._send(session, wire.FULL_SYNC,
                   wire.encode_json_payload({"stream": stream}))
        self.metrics.full_syncs += 1
        self._ship_delta(session, stream, vsid)

    def _ship_delta(self, session: FollowerSession, stream: int,
                    vsid: int) -> None:
        """Frame FORGETs, the delta's lines, and the root advance."""
        recorder = self.recorder
        span = None
        if recorder.enabled:
            span = recorder.begin("ship_delta", stream=stream, vsid=vsid)
        self._flush_forgets(session)
        store = self.machine.mem.store
        entry = self.machine.segmap.entry(vsid)
        # retained across compute-and-frame: a racing commit cannot
        # deallocate anything this delta references
        dag.retain_entry(self.machine.mem, entry.root)
        lines = wire_bytes = 0
        try:
            delta = compute_delta(store, stream, vsid, entry.root,
                                  entry.height, entry.length, session.known)
            for plid, line in delta.lines:
                payload = wire.encode_line_payload(plid, line)
                self._send(session, wire.LINE, payload)
                session.known.add(plid)
                self.metrics.lines_shipped += 1
                self.metrics.line_bytes_shipped += len(payload)
                lines += 1
                wire_bytes += len(payload)
            seq = self.commit_seq.get(stream, 0)
            self._ship_advance(session, stream, vsid, entry, seq, span)
        finally:
            dag.release_entry(self.machine.mem, entry.root)
            if span is not None:
                recorder.end(span, lines=lines, wire_bytes=wire_bytes)

    def _ship_advance(self, session: FollowerSession, stream: int,
                      vsid: int, entry, seq: int,
                      parent: Optional[int] = None) -> None:
        recorder = self.recorder
        span = None
        if recorder.enabled:
            # correlate with commit_batch spans via (vsid, seq): the
            # batch span records the vsid it advanced, the leader
            # numbers those commits per stream
            span = recorder.begin("root_advance", parent=parent,
                                  stream=stream, seq=seq, vsid=vsid)
        self._send(session, wire.ROOT_ADVANCE, wire.encode_advance_payload(
            stream, seq, vsid, entry.root, entry.height, entry.length))
        session.shipped_seq[stream] = seq
        self.metrics.root_advances += 1
        self.metrics.commits_shipped = max(self.metrics.commits_shipped, seq)
        if span is not None:
            recorder.end(span)

    def _flush_forgets(self, session: FollowerSession) -> None:
        forgets, session.forgets = session.forgets, []
        for plid in forgets:
            self._send(session, wire.FORGET,
                       wire.encode_forget_payload(plid))
            self.metrics.forgets += 1

    def _resync(self, session: FollowerSession) -> None:
        """Correctness backstop: drop everything, ship full snapshots."""
        session.known.clear()
        session.forgets.clear()
        session.needs_resync = False
        self._send(session, wire.RESET,
                   wire.encode_json_payload({"reason": "resync"}))
        self.metrics.resets += 1
        for stream, vsid in sorted(self.streams().items()):
            session.last_reset_seq[stream] = self.commit_seq.get(stream, 0)
            self._ship_full_sync(session, stream, vsid)
        session.dirty.clear()

    # ------------------------------------------------------------------
    # per-session tasks

    async def _sender(self, session: FollowerSession) -> None:
        """Ship deltas when streams go dirty; heartbeat when idle."""
        try:
            while True:
                if self.heartbeat_interval is None:
                    await session.wake.wait()
                elif not await wait_within(session.wake.wait(),
                                           self.heartbeat_interval):
                    self._send(session, wire.HEARTBEAT,
                               wire.encode_json_payload(
                                   {"t": self.metrics.heartbeats}))
                    self.metrics.heartbeats += 1
                    await self._drain(session)
                    continue
                session.wake.clear()
                if session.needs_resync or self._too_far_behind(session):
                    self._resync(session)
                    await self._drain(session)
                    continue
                dirty, session.dirty = sorted(session.dirty), set()
                streams = self.streams()
                for stream in dirty:
                    if stream in streams:
                        self._ship_delta(session, stream, streams[stream])
                await self._drain(session)
        except (ConnectionError, OSError):
            # the link died under the sender (possibly an injected
            # reset). Abort the transport so the receiver side of this
            # session unwinds too — a half-dead session would otherwise
            # hold the follower on a silent, stale connection forever.
            transport = session.writer.transport
            if transport is not None:
                transport.abort()
            raise

    def _too_far_behind(self, session: FollowerSession) -> bool:
        for stream in self.commit_seq:
            lag = session.lag(stream)
            self.metrics.observe_lag(stream, lag)
            if lag > self.lag_window:
                # don't re-reset until the window has passed again
                since_reset = self.commit_seq.get(stream, 0) \
                    - session.last_reset_seq.get(stream, 0)
                if since_reset > self.lag_window:
                    return True
        return False

    async def _receiver(self, session: FollowerSession, reader,
                        decoder, scope: int) -> None:
        """Process ACK / NACK / HEARTBEAT frames from the follower."""
        while True:
            for ftype, payload in decoder.feed(
                    await self._read(reader, scope)):
                if ftype == wire.ACK:
                    stream, seq = wire.decode_ack_payload(payload)
                    session.acked_seq[stream] = max(
                        session.acked_seq.get(stream, 0), seq)
                    self.metrics.acks += 1
                    self.metrics.observe_lag(stream, session.lag(stream))
                elif ftype == wire.NACK:
                    wire.decode_json_payload(payload)
                    self.metrics.nacks += 1
                    session.needs_resync = True
                    session.wake.set()
                elif ftype == wire.HEARTBEAT:
                    self.metrics.heartbeats += 1
                elif ftype == wire.ERROR:
                    doc = wire.decode_json_payload(payload)
                    raise ReplicationError(
                        "follower error: %s" % doc.get("error"))
                else:
                    raise ReplicationError(
                        "unexpected frame %s from follower"
                        % wire.FRAME_NAMES.get(ftype, ftype))


__all__ = ["ReplicationLeader", "FollowerSession"]
