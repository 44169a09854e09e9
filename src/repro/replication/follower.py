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

Serving: :class:`FollowerServer` speaks memcached to clients —
**snapshot GETs execute locally** against the replicated segments (the
paper's synchronization-free read path, now on a second machine), while
write commands are forwarded verbatim to the leader's memcached port.
Reads are snapshot-consistent but may lag the leader by the replication
delay; a client's own write becomes locally visible only after its
delta arrives (eventual read-your-writes).
"""

from __future__ import annotations

import asyncio
import hashlib
import zlib
from typing import Dict, Optional

from repro.apps.memcached.protocol import ProtocolHandler
from repro.apps.memcached.server import ServerStats
from repro.core.machine import Machine
from repro.errors import ReplicationError
from repro.memory.line import PlidRef
from repro.net.framing import FrameDecoder
from repro.net.router import RECLAIM_BUDGET, WRITE_COMMANDS
from repro.obs.trace import NULL_RECORDER
from repro.params import SERVING_MEMORY, MachineConfig
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
        # a follower may be promoted: its machine is a serving machine
        self.machine = machine if machine is not None \
            else Machine(MachineConfig(memory=SERVING_MEMORY))
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
        # bounded slice between advances (no-op under ``immediate``)
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
    reach this object (the serving front forwards them upstream).
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
        # same content-identity token as the leader: dedup makes equal
        # values one root, so leader and follower tokens agree
        return value, hashlib.blake2b(value, digest_size=8).digest()

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


class FollowerServer:
    """Memcached front end of a follower: local snapshot reads, writes
    forwarded to the leader's memcached port."""

    def __init__(self, follower: ReplicationFollower,
                 upstream_host: str, upstream_port: int,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.follower = follower
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.host = host
        self.port = port
        self.backend = FollowerReadBackend(follower)
        self.handler = ProtocolHandler(self.backend)
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        #: bumped by :meth:`set_upstream`; connections drop their cached
        #: upstream link when their generation falls behind
        self._upstream_gen = 0

    def set_upstream(self, host: str, port: int) -> None:
        """Re-point write forwarding (a follower re-parented mid-life).

        Live connections notice via the generation counter on their next
        forward and re-dial instead of pushing writes at the old leader.
        """
        self.upstream_host = host
        self.upstream_port = port
        self._upstream_gen += 1

    def handle_local(self, frame) -> bytes:
        """Answer one locally-served (non-write) frame.

        Subclass hook: the cluster tier's follower front intercepts
        ``cluster ...`` frames here and defers everything else to the
        plain snapshot-read handler.
        """
        return self.handler.handle(frame.raw)

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        decoder = FrameDecoder()
        # (generation, reader, writer), opened on first write command
        upstream = None
        try:
            while True:
                data = await reader.read(READ_CHUNK)
                if not data:
                    break
                quit_seen = False
                for frame in decoder.feed(data):
                    if frame.command == b"quit":
                        quit_seen = True
                        break
                    if frame.error is not None:
                        writer.write(b"CLIENT_ERROR %s\r\n"
                                     % frame.error.encode())
                    elif frame.command in WRITE_COMMANDS \
                            or frame.command == b"flush_all":
                        upstream, response = await self._forward(
                            upstream, frame.raw)
                        writer.write(response)
                    else:
                        writer.write(self.handle_local(frame))
                await writer.drain()
                if quit_seen:
                    break
        except (asyncio.CancelledError, ConnectionResetError,
                BrokenPipeError):
            pass
        finally:
            self._conn_tasks.discard(task)
            if upstream is not None:
                upstream[2].close()
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    async def _forward(self, upstream, raw: bytes):
        """Relay one write to the leader; returns (upstream, response).

        Every write command's response is a single line, so one
        ``readline()`` per forwarded request keeps the relay trivially
        in-order on the shared upstream connection.
        """
        try:
            if upstream is not None and upstream[0] != self._upstream_gen:
                # re-parented since this connection cached its link
                upstream[2].close()
                upstream = None
            if upstream is None:
                up_reader, up_writer = await asyncio.open_connection(
                    self.upstream_host, self.upstream_port)
                upstream = (self._upstream_gen, up_reader, up_writer)
            _, up_reader, up_writer = upstream
            up_writer.write(raw)
            await up_writer.drain()
            response = await up_reader.readline()
            if not response:
                raise ConnectionResetError("leader closed")
            return upstream, response
        except (ConnectionError, OSError):
            if upstream is not None:
                upstream[2].close()
            return None, b"SERVER_ERROR leader unavailable\r\n"
