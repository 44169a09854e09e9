"""The replication follower: install lines, advance roots, serve reads.

The follower owns its own :class:`~repro.core.machine.Machine` and
*installs* shipped lines through content lookup — the same operation the
leader used to create them — so installs are idempotent (a re-sent line
dedups to its existing PLID) and the two machines converge to
structurally identical DAGs even though their PLID numbering differs.
The bridge between the two PLID spaces is the translation map
``leader PLID → local PLID``; every entry holds one counted reference on
the local line ("pinned"), released when the leader sends FORGET (it
deallocated the line, and the PLID may be reused) or RESET (drop
everything, a full sync follows).

A root advance applies only when the shipped root's line is present —
the translation lookup *is* that check, since a translation exists
exactly for installed lines, and installing a line requires its whole
subtree. The root is committed with the architecture's CAS primitive and
acknowledged back to the leader; a missing translation raises a NACK
instead, and the leader falls back to a full sync.

Serving: each stream is a plain
:class:`~repro.apps.memcached.server.HicampMemcached` over its replicated
segment, and a follower speaks memcached through the leader's own
front, a :class:`~repro.net.server.MemcachedServer`, over a
:class:`FollowerRouter` — the leader's shard router over those backends.
**Snapshot GETs execute locally** (the paper's synchronization-free read
path, now on a second machine), while write commands are forwarded
verbatim to the leader's memcached port. Reads are snapshot-consistent
but may lag the leader by the replication delay; a client's own write
becomes locally visible only after its delta arrives (eventual
read-your-writes).
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from repro.apps.memcached.protocol import ProtocolHandler
from repro.apps.memcached.server import HicampMemcached
from repro.core.machine import Machine
from repro.errors import ReplicationError
from repro.memory.dedup_store import RECLAIM_BUDGET
from repro.net.framing import close_writer
from repro.net.router import (
    READ_COMMANDS,
    WRITE_COMMANDS,
    ShardRouter,
    _completed,
    cluster_response,
)
from repro.obs import adapters
from repro.obs.trace import NULL_RECORDER, DramProbe
from repro.replication import wire
from repro.replication.delta import translate_line
from repro.replication.metrics import ReplicationMetrics
from repro.segments import dag

READ_CHUNK = 1 << 16


class ReplicationFollower:
    """Maintains a converging replica of the leader's streams."""

    def __init__(self, host: str, port: int,
                 machine: Optional[Machine] = None,
                 streams: Optional[Dict[int, int]] = None,
                 metrics: Optional[ReplicationMetrics] = None,
                 reconnect_delay: float = 0.05,
                 recorder=None) -> None:
        self.host = host
        self.port = port
        # served or not, a replica runs as its leader's machine does:
        # reclamation drains between applied root advances, and the
        # memo answers reads and every HELLO's fingerprints
        self.machine = (machine if machine is not None
                        else Machine()).configure_serving()
        #: trace recorder (no-op default); root advances record spans
        #: with the DRAM traffic their installs caused on this machine
        self.recorder = recorder if recorder is not None \
            else NULL_RECORDER
        #: a plain memcached backend over each stream's segment, in
        #: stream order (warm-started from a checkpoint, or created empty
        #: when the WELCOME announces a stream), and a protocol handler
        #: over each: what a front serves and a promotion keeps
        self.servers: List[HicampMemcached] = []
        self.handlers: List[ProtocolHandler] = []
        for stream, vsid in sorted((streams or {}).items()):
            self._add_stream(stream, vsid)
        self.leader_vsids: Dict[int, int] = {}
        self.metrics = metrics if metrics is not None \
            else ReplicationMetrics()
        self.reconnect_delay = reconnect_delay
        #: leader PLID → local PLID; each entry owns one counted
        #: reference on the local line
        self.plid_map: Dict[int, int] = {}
        self.applied_seq: Dict[int, int] = {}
        #: set whenever a ROOT_ADVANCE applies (tests wait on this)
        self.advanced = asyncio.Event()
        self._task: Optional[asyncio.Task] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._closing = False

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        self._closing = False
        self._task = asyncio.ensure_future(self._run())

    async def stop(self) -> None:
        """Disconnect and release the translation map's pins.

        The replicated segments stay — the machine can be audited,
        checkpointed, or promoted after the link is gone.
        """
        self._closing = True
        task, self._task = self._task, None
        try:
            if task is not None:
                # waited on, not awaited: the task's own CancelledError
                # stays in it, and a cancel of the caller is raised
                task.cancel()
                await asyncio.wait((task,))
                if not task.cancelled():
                    task.result()
        finally:
            self._release_translations()

    def fingerprints(self) -> Dict[int, bytes]:
        """Per-stream content digests (convergence checks, HELLO).

        Quiesces deferred reclamation first, as the router's ``drain``
        does, so whoever compares fingerprints also sees exact
        footprints and refcounts."""
        self.machine.mem.store.reclaim_quiesce()
        return {stream: dag.segment_fingerprint(self.machine, vsid)
                for stream, vsid in self.streams.items()}

    @property
    def streams(self) -> Dict[int, int]:
        """Stream index → local VSID."""
        return {stream: server.kvp.vsid
                for stream, server in enumerate(self.servers)}

    def reparent(self, host: str, port: int) -> None:
        """Point this follower at a different leader.

        Aborts the live link (if any); the reconnect loop then dials the
        new address with a fresh HELLO carrying our fingerprints, so a
        new leader holding identical content SEEDs us without reshipping
        a single line — promotion inherits the warm-start economics.
        """
        self.host = host
        self.port = port
        writer = self._writer
        if writer is not None and writer.transport is not None:
            writer.transport.abort()

    def _add_stream(self, stream: int, vsid: Optional[int] = None) -> None:
        """Serve ``stream`` from segment ``vsid`` (a new empty segment by
        default). A leader's streams are its shard indices, announced
        together and in order."""
        if stream != len(self.servers):
            raise ReplicationError("stream %d arrived before stream %d"
                                   % (stream, len(self.servers)))
        if vsid is None:
            vsid = self.machine.create_segment([])
        backend = HicampMemcached(self.machine, vsid)
        self.servers.append(backend)
        self.handlers.append(ProtocolHandler(backend))

    def _release_translations(self) -> None:
        for local in self.plid_map.values():
            self.machine.mem.decref(local)
        self.plid_map.clear()

    # ------------------------------------------------------------------
    # connection loop

    async def _run(self) -> None:
        first = True
        while not self._closing:
            if not first:
                self.metrics.reconnects += 1
                await asyncio.sleep(self.reconnect_delay)
            first = False
            try:
                reader, writer = await asyncio.open_connection(
                    self.host, self.port)
            except (ConnectionError, OSError):
                continue
            self._writer = writer
            try:
                await self._session(reader, writer)
            except (ConnectionError, OSError,
                    asyncio.IncompleteReadError):
                # link fault: reconnect with a fresh HELLO. The
                # translation map is per-connection state the *leader*
                # mirrors, so it must not survive the session.
                self._release_translations()
            except ReplicationError as exc:
                self._release_translations()
                try:
                    writer.write(wire.encode_frame(
                        wire.ERROR,
                        wire.encode_json_payload({"error": str(exc)})))
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass
            finally:
                self._writer = None
                await close_writer(writer)

    async def _session(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> None:
        mem = self.machine.mem
        self._send(writer, wire.HELLO, wire.encode_json_payload(
            wire.hello_doc(mem.line_bytes, mem.fanout,
                           self.fingerprints())))
        await writer.drain()
        decoder = wire.LengthPrefixedDecoder()
        while True:
            data = await reader.read(READ_CHUNK)
            if not data:
                raise asyncio.IncompleteReadError(b"", None)
            self.metrics.bytes_received += len(data)
            for ftype, payload in decoder.feed(data):
                self._handle(writer, ftype, payload)
            await writer.drain()

    def _send(self, writer, ftype: int, payload: bytes) -> None:
        frame = wire.encode_frame(ftype, payload)
        self.metrics.bytes_sent += len(frame)
        writer.write(frame)

    # ------------------------------------------------------------------
    # frame handling

    def _handle(self, writer, ftype: int, payload: bytes) -> None:
        if ftype == wire.LINE:
            self._handle_line(writer, payload)
        elif ftype == wire.ROOT_ADVANCE:
            self._handle_advance(writer, payload)
        elif ftype == wire.SEED:
            self._handle_seed(writer, payload)
        elif ftype == wire.WELCOME:
            self._handle_welcome(payload)
        elif ftype == wire.FULL_SYNC:
            self.metrics.full_syncs += 1
        elif ftype == wire.RESET:
            self.metrics.resets += 1
            self._release_translations()
        elif ftype == wire.FORGET:
            plid = wire.decode_forget_payload(payload)
            local = self.plid_map.pop(plid, None)
            if local is not None:
                self.machine.mem.decref(local)
            self.metrics.forgets += 1
        elif ftype == wire.HEARTBEAT:
            self.metrics.heartbeats += 1
        elif ftype == wire.ERROR:
            doc = wire.decode_json_payload(payload)
            raise ReplicationError("leader error: %s" % doc.get("error"))
        else:
            raise ReplicationError("unexpected frame %s from leader"
                                   % wire.FRAME_NAMES.get(ftype, ftype))

    def _handle_welcome(self, payload: bytes) -> None:
        doc = wire.decode_json_payload(payload)
        mem = self.machine.mem
        wire.check_handshake(doc, mem.line_bytes, mem.fanout)
        for stream, vsid in sorted((int(s), vsid) for s, vsid
                                   in doc.get("streams", {}).items()):
            self.leader_vsids[stream] = vsid
            if stream >= len(self.servers):
                self._add_stream(stream)

    def _handle_line(self, writer, payload: bytes) -> None:
        plid, line = wire.decode_line_payload(payload)
        try:
            local_line = translate_line(line, self.plid_map)
        except KeyError as exc:
            self._nack(writer, -1, exc.args[0])
            return
        try:
            local, created = self.machine.install_line(local_line)
        except ValueError as exc:
            raise ReplicationError(
                "LINE %d refused: %s" % (plid, exc)) from exc
        self.metrics.lines_installed += 1
        if not created:
            self.metrics.lines_deduped_on_arrival += 1
        old = self.plid_map.get(plid)
        if old is not None:
            self.machine.mem.decref(old)
        self.plid_map[plid] = local  # the install reference is the pin

    def _handle_seed(self, writer, payload: bytes) -> None:
        """Warm start: pair the leader's walk with our identical walk."""
        stream, leader_plids = wire.decode_seed_payload(payload)
        vsid = self.streams.get(stream)
        if vsid is None:
            self._nack(writer, stream, 0)
            return
        entry = self.machine.segmap.entry(vsid)
        local_plids = [p for p, _ in
                       dag.walk_lines(self.machine.mem.store, entry.root)]
        if len(local_plids) != len(leader_plids):
            # fingerprints matched but the walks disagree — impossible
            # unless state diverged; ask for a full sync
            self._nack(writer, stream, 0)
            return
        for leader_plid, local in zip(leader_plids, local_plids):
            old = self.plid_map.get(leader_plid)
            if old is not None:
                self.machine.mem.decref(old)
            self.machine.mem.incref(local)
            self.plid_map[leader_plid] = local
        self.metrics.seed_lines += len(local_plids)

    def _handle_advance(self, writer, payload: bytes) -> None:
        recorder = self.recorder
        if not recorder.enabled:
            self._apply_advance(writer, payload, None)
            return
        # the span carries the DRAM-access delta of the apply, and
        # closes even when the apply raises
        span = recorder.begin("advance_apply")
        probe = DramProbe(self.machine.mem.dram)
        try:
            with probe:
                self._apply_advance(writer, payload, span)
        finally:
            recorder.end(span, **probe.attrs())

    def _apply_advance(self, writer, payload: bytes,
                       span: Optional[int]) -> None:
        stream, seq, leader_vsid, height, length, root = \
            wire.decode_advance_payload(payload)
        if span is not None:
            self.recorder.attach(span, stream=stream, seq=seq)
        if stream >= len(self.servers):
            self._add_stream(stream)
        self.leader_vsids[stream] = leader_vsid
        try:
            (new_root,) = translate_line((root,), self.plid_map)
        except KeyError as exc:
            self._nack(writer, stream, exc.args[0])
            return
        vsid = self.servers[stream].kvp.vsid
        entry = self.machine.segmap.entry(vsid)
        # the map entry takes over this reference on CAS success
        dag.retain_entry(self.machine.mem, new_root)
        if not self.machine.segmap.cas_root(vsid, entry.root, entry.height,
                                            new_root, height, length):
            # single writer: a lost CAS means the replica was corrupted
            dag.release_entry(self.machine.mem, new_root)
            raise ReplicationError(
                "root CAS lost on follower stream %d" % stream)
        self.applied_seq[stream] = seq
        self.metrics.root_advances += 1
        # the replaced root's subtree was deferred, not walked: drain a
        # bounded slice between advances (the store is held)
        self.machine.mem.store.reclaim_advance(RECLAIM_BUDGET)
        self._send(writer, wire.ACK, wire.encode_ack_payload(stream, seq))
        self.metrics.acks += 1
        self.advanced.set()

    def _nack(self, writer, stream: int, missing: int) -> None:
        self.metrics.nacks += 1
        self._send(writer, wire.NACK, wire.encode_json_payload(
            {"stream": stream, "missing": missing}))


# ----------------------------------------------------------------------
# serving


class FollowerRouter(ShardRouter):
    """The router a follower's :class:`~repro.net.server.MemcachedServer`
    serves through: a :class:`~repro.net.router.ShardRouter` over the
    replica's machine and per-stream backends, so reads, ``stats`` and
    protocol errors are the leader's own code (before any stream, every
    read misses). It adds the ``cluster`` verb, its ``version``, the
    replication counters in ``stats``, and forwarding: writes and
    ``flush_all`` are relayed verbatim and awaited inline, so replies
    stay in request order, over one upstream link kept in order by a
    lock around write plus ``readline()`` (every write reply is one
    line).
    """

    #: every write is forwarded, through :meth:`dispatch`
    lands_inline = False

    def __init__(self, follower: ReplicationFollower,
                 upstream_host: str, upstream_port: int) -> None:
        # the replica's machine serves already; its lists grow with it
        self._front(follower.machine, follower.servers, follower.handlers,
                    recorder=follower.recorder)
        adapters.register_replication_metrics(self.registry,
                                              follower.metrics)
        self.follower = follower
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        #: the committed cluster topology ``cluster topology`` answers
        #: with (set by the cluster tier; ``None`` outside a cluster)
        self.topology = None
        #: ``((host, port), reader, writer)``, dialed on the first write
        self._upstream = None
        self._upstream_lock = asyncio.Lock()

    def set_upstream(self, host: str, port: int) -> None:
        """Re-point write forwarding (a follower re-parented mid-life);
        the next forwarded write dials the new address."""
        self.upstream_host = host
        self.upstream_port = port

    def answer(self, frame) -> Optional[bytes]:
        """:meth:`ShardRouter.answer` over the replica; ``None`` for a
        write or ``flush_all``, which :meth:`dispatch` forwards."""
        if frame.error is None:
            command = frame.command
            if command in WRITE_COMMANDS or command == b"flush_all":
                return None
            if command == b"cluster":
                return cluster_response(frame.args, self.topology)
            if command == b"version":
                return b"VERSION repro-hicamp-follower/1.0\r\n"
            if not self.servers and command != b"stats":
                # nothing replicated yet: an empty cache
                return b"END\r\n" if command in READ_COMMANDS \
                    and frame.args else b"ERROR\r\n"
        return super().answer(frame)

    async def dispatch(self, frame, conn=None, parent: Optional[int] = None):
        response = self.answer(frame)
        if response is None:
            response = await self._forward(frame.raw)
        return _completed(response)

    def extra_stats(self) -> dict:
        """Every replication counter, over the wire via ``stats``.

        The full :meth:`ReplicationMetrics.snapshot` is exposed under a
        ``replication_`` prefix (the per-stream lag map flattened to one
        key per stream), so follower lag and dedup ratio are visible to
        any memcached client. The original four summary keys and
        ``footprint_bytes`` keep their exact names.
        """
        follower = self.follower
        snap = follower.metrics.snapshot()
        lag_by_stream = snap.pop("lag_by_stream")
        out = {
            "replication_dedup_on_arrival":
                snap["lines_deduped_on_arrival"],
            "replication_dedup_ratio":
                round(follower.metrics.dedup_ratio, 6),
            "footprint_bytes": self.machine.footprint_bytes(),
        }
        for name, value in snap.items():
            out["replication_" + name] = value
        for stream, lag in lag_by_stream.items():
            out["replication_lag_stream_%s" % stream] = lag
        for stream, seq in sorted(follower.applied_seq.items()):
            out["replication_applied_seq_stream_%d" % stream] = seq
        return out

    async def _forward(self, raw: bytes) -> bytes:
        """Relay one write to the leader; returns its one-line reply."""
        async with self._upstream_lock:
            address = (self.upstream_host, self.upstream_port)
            try:
                if self._upstream is not None \
                        and self._upstream[0] != address:
                    self._close_upstream()  # re-parented since dialed
                if self._upstream is None:
                    reader, writer = await asyncio.open_connection(*address)
                    self._upstream = (address, reader, writer)
                _, reader, writer = self._upstream
                writer.write(raw)
                await writer.drain()
                response = await reader.readline()
                if not response:
                    raise ConnectionResetError("leader closed")
                return response
            except (ConnectionError, OSError):
                self._close_upstream()
                return b"SERVER_ERROR leader unavailable\r\n"

    def _close_upstream(self) -> None:
        if self._upstream is not None:
            self._upstream[2].close()
            self._upstream = None

    async def abort(self) -> None:
        """Close the upstream link (a graceful
        :meth:`~ShardRouter.stop` ends here too)."""
        self._close_upstream()
