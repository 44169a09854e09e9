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

Serving: a follower speaks memcached through the leader's own front, a
:class:`~repro.net.server.MemcachedServer`, over a
:class:`FollowerRouter` — **snapshot GETs execute locally** against the
replicated segments (the paper's synchronization-free read path, now on
a second machine), while write commands are forwarded verbatim to the
leader's memcached port. Reads are snapshot-consistent but may lag the
leader by the replication delay; a client's own write becomes locally
visible only after its delta arrives (eventual read-your-writes).
"""

from __future__ import annotations

import asyncio
import json
import zlib
from typing import Dict, Optional

from repro.apps.memcached.protocol import CRLF, ProtocolHandler
from repro.apps.memcached.server import ServerStats, cas_token
from repro.core.machine import Machine
from repro.errors import ReplicationError
from repro.memory.line import PlidRef
from repro.memory.reclaim import RECLAIM_BUDGET
from repro.net.metrics import ServerMetrics
from repro.net.router import WRITE_COMMANDS, _completed, cluster_response
from repro.obs import adapters
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_RECORDER
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
        self.machine = machine if machine is not None else Machine()
        # reclamation drains between applied root advances
        self.machine.mem.store.hold_reclaim()
        #: trace recorder (no-op default); root advances record spans
        #: with the DRAM traffic their installs caused on this machine
        self.recorder = recorder if recorder is not None \
            else NULL_RECORDER
        #: stream index → local VSID (warm-started from a checkpoint, or
        #: created empty when the WELCOME announces a new stream)
        self.streams: Dict[int, int] = dict(streams or {})
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
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        self._release_translations()

    def fingerprints(self) -> Dict[int, bytes]:
        """Per-stream content digests (convergence checks, HELLO).

        Quiesces deferred reclamation first, as the router's ``drain``
        does, so whoever compares fingerprints also sees exact
        footprints and refcounts."""
        self.machine.mem.store.reclaim_quiesce()
        return {stream: dag.segment_fingerprint(self.machine, vsid)
                for stream, vsid in self.streams.items()}

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
                writer.close()
                try:
                    await writer.wait_closed()
                except Exception:
                    pass

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
        for stream_str, vsid in doc.get("streams", {}).items():
            stream = int(stream_str)
            self.leader_vsids[stream] = vsid
            if stream not in self.streams:
                self.streams[stream] = self.machine.create_segment([])

    def _handle_line(self, writer, payload: bytes) -> None:
        plid, line = wire.decode_line_payload(payload)
        try:
            local_line = translate_line(line, self.plid_map)
        except KeyError as exc:
            self._nack(writer, -1, exc.args[0])
            return
        local, created = self.machine.install_line(local_line)
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
        if recorder.enabled:
            with recorder.span("advance_apply",
                               dram=self.machine.mem.dram) as span:
                self._apply_advance(writer, payload, span)
        else:
            self._apply_advance(writer, payload, None)

    def _apply_advance(self, writer, payload: bytes,
                       span: Optional[int]) -> None:
        stream, seq, leader_vsid, height, length, root = \
            wire.decode_advance_payload(payload)
        if span is not None:
            self.recorder.attach(span, stream=stream, seq=seq)
        if stream not in self.streams:
            self.streams[stream] = self.machine.create_segment([])
        self.leader_vsids[stream] = leader_vsid
        if isinstance(root, PlidRef):
            local_plid = self.plid_map.get(root.plid)
            if local_plid is None:
                self._nack(writer, stream, root.plid)
                return
            new_root = PlidRef(local_plid, root.path)
        else:
            new_root = root
        vsid = self.streams[stream]
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


class FollowerReadBackend:
    """Duck-typed server object for :class:`ProtocolHandler`.

    Reads execute as snapshot reads over the replicated segments with
    the same key → shard routing the leader's router uses; writes never
    reach this object (:class:`FollowerRouter` forwards them upstream).
    """

    def __init__(self, follower: ReplicationFollower) -> None:
        self.follower = follower
        self.stats = ServerStats()

    def _map_for(self, key: bytes):
        from repro.structures.hmap import HMap
        streams = self.follower.streams
        if not streams:
            return None
        shard = zlib.crc32(key) % len(streams)
        vsid = streams.get(shard)
        if vsid is None:
            return None
        return HMap(self.follower.machine, vsid)

    def get(self, key: bytes):
        self.stats.gets += 1
        kvp = self._map_for(key)
        value = kvp.get(key) if kvp is not None else None
        if value is not None:
            self.stats.get_hits += 1
        return value

    def gets(self, key: bytes):
        value = self.get(key)
        if value is None:
            return None
        # the leader's token function: leader and follower tokens agree
        return value, cas_token(value)

    def item_count(self) -> int:
        from repro.structures.hmap import HMap
        return sum(len(HMap(self.follower.machine, vsid))
                   for vsid in self.follower.streams.values())

    def version(self) -> bytes:
        return b"repro-hicamp-follower/1.0"

    def extra_stats(self) -> dict:
        """Every replication counter, over the wire via ``stats``.

        The full :meth:`ReplicationMetrics.snapshot` is exposed under a
        ``replication_`` prefix (the per-stream lag map flattened to one
        key per stream), so follower lag and dedup ratio are visible to
        any memcached client. The original four summary keys and
        ``footprint_bytes`` keep their exact names.
        """
        snap = self.follower.metrics.snapshot()
        lag_by_stream = snap.pop("lag_by_stream")
        out = {
            "replication_dedup_on_arrival":
                snap["lines_deduped_on_arrival"],
            "replication_dedup_ratio":
                round(self.follower.metrics.dedup_ratio, 6),
            "footprint_bytes": self.follower.machine.footprint_bytes(),
        }
        for name, value in snap.items():
            out["replication_" + name] = value
        for stream, lag in lag_by_stream.items():
            out["replication_lag_stream_%s" % stream] = lag
        for stream, seq in sorted(self.follower.applied_seq.items()):
            out["replication_applied_seq_stream_%d" % stream] = seq
        return out


class FollowerRouter:
    """The router a follower's :class:`~repro.net.server.MemcachedServer`
    serves through: reads from the replica, writes relayed to the leader.

    Writes and ``flush_all`` are forwarded verbatim and awaited inline,
    so a connection's replies stay in request order. A front has one
    upstream link, kept in order by a lock around write plus
    ``readline()`` (every write reply is one line): concurrent forwards
    from several connections queue behind each other. Everything else is
    answered synchronously by :meth:`answer`: :class:`ProtocolHandler`
    over :class:`FollowerReadBackend`, the cluster tier's ``cluster``
    verb, and ``stats json`` / ``stats prom`` over the front's own
    metrics.
    """

    def __init__(self, follower: ReplicationFollower,
                 upstream_host: str, upstream_port: int) -> None:
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.handler = ProtocolHandler(FollowerReadBackend(follower))
        self.metrics = ServerMetrics()
        #: what ``stats prom`` exposes: the front's serving metrics and
        #: the replica's replication counters
        self.registry = MetricsRegistry()
        adapters.register_server_metrics(self.registry, self.metrics)
        adapters.register_replication_metrics(self.registry,
                                              follower.metrics)
        self.recorder = follower.recorder
        self.injector = None
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

    def answer(self, frame, conn) -> Optional[bytes]:
        """Any frame but a write or ``flush_all`` (``None``: those are
        forwarded by :meth:`dispatch`), answered from the replica."""
        if frame.error is not None:
            self.metrics.protocol_errors += 1
            return b"CLIENT_ERROR %s\r\n" % frame.error.encode()
        command = frame.command
        if command in WRITE_COMMANDS or command == b"flush_all":
            return None
        if command == b"cluster":
            return cluster_response(frame.args, self.topology)
        if command == b"stats" and frame.args[:1] == [b"json"]:
            # the front's serving metrics plus the replica's counters
            doc = self.metrics.snapshot(
                extra=self.handler.server.extra_stats())
            return json.dumps(doc, sort_keys=True).encode() + CRLF \
                + b"END\r\n"
        if command == b"stats" and frame.args[:1] == [b"prom"]:
            return self.registry.exposition().encode() + b"END\r\n"
        return self.handler.execute(command, frame.args, frame.payload)

    async def dispatch(self, frame, conn, parent: Optional[int] = None):
        response = self.answer(frame, conn)
        if response is None:
            response = await self._forward(frame.raw)
        return _completed(response)

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

    # the lifecycle MemcachedServer drives: there is no commit queue to
    # run, drain or drop, only the upstream link to close

    async def start(self) -> None:
        pass

    async def drain(self) -> None:
        pass

    def pending_commits(self) -> int:
        return 0

    async def stop(self) -> None:
        self._close_upstream()

    abort = stop
