"""Shard routing and the one landing routine.

The §5.1.1 closing remark — split a contended map so updates stop
sharing a CAS target — is realized here at serving scale: the router
fans keys out across ``shard_count`` independent
:class:`~repro.apps.memcached.server.HicampMemcached` backends, all on
one shared :class:`~repro.core.machine.Machine` (so deduplication still
spans the whole cache).

* **reads** (``get``/``gets``/``stats``/``version``) are answered by
  :meth:`ShardRouter.answer` — a ``get``/``gets`` by one read routine
  over its keys' shards — with no task and no future: snapshot reads
  need no synchronization, the paper's headline memcached property;
* **writes** land through :meth:`ShardRouter.land`, the one way a write
  commits (PAPER §2.2: whoever performs the one root swap publishes the
  version). The server's read callback stages a chunk's writes per
  shard and lands each shard's as one batch before anything reads them;
  what must await first — a fault injector's stall, a follower's
  forward, a full write buffer — goes through
  :meth:`ShardRouter.dispatch` on the connection's ordered task, which
  lands each write, and ``flush_all`` on every shard, itself.

:meth:`ShardRouter.land` has one way to land writes, chosen by what
they are: consecutive ``set`` requests are staged into a run (repeated
keys coalesce last-wins), a key-disjoint non-``set`` write is applied in
place, and anything that touches a staged key splits the run. A run of
two or more lands as one **group commit**: one iterator register, one
tree rebuild, one root CAS (§2.2's snapshot → modify → *one* CAS, via
``set_many`` → ``put_many``); a run of one is the per-op path. A
landing runs to completion in one loop turn, so there is no concurrent
CAS for merge-update to absorb — merge-update (§3.4) stays where
writers are genuinely concurrent: ``HMap.put`` under the
``Scheduler``, ``conflict_sim``, the HI harness.

**Ordering contract.** Promised: *per-connection order* (a
connection's requests take effect in the order it sent them: a write
has landed before a later request of its connection is answered, and a
caller lands what it staged before a read of a staged key and before
handing a later frame to :meth:`ShardRouter.dispatch`), *responses in
request order per connection*, and *linearizability*: each request
takes effect at one instant between its arrival and its reply. Not
promised: order across connections beyond that — a write stalled
before it lands may be passed by another connection's write to the
same key — nor cross-key FIFO within one landing: a ``delete b``
behind ``set a`` may apply before it, and ``set a`` answers when its
whole run lands. Memcached orders per key, never across keys.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import fields as dataclass_fields
from typing import Callable, Dict, List, Optional, Sequence
from zlib import crc32

from repro.apps.memcached.protocol import (
    CRLF, ProtocolError, ProtocolHandler, parse_exptime)
from repro.apps.memcached.server import HicampMemcached
from repro.core.machine import Machine
from repro.memory.dedup_store import RECLAIM_BUDGET
from repro.net.framing import Frame
from repro.net.metrics import CollectorPauses, ServerMetrics
from repro.obs import adapters
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_RECORDER, DramProbe

#: Commands that mutate the cache and therefore land through ``land``.
WRITE_COMMANDS = frozenset((b"set", b"add", b"replace", b"cas", b"delete",
                            b"incr", b"decr"))

#: Non-``set`` writes that commute around a staged run of sets when
#: their key is disjoint from every key in the run. Applying such a
#: frame against the committed snapshot *before* the run lands is
#: indistinguishable from wire order for its own key (memcached orders
#: per key, not across keys), so the run keeps growing instead of
#: splitting.
HOP_COMMANDS = WRITE_COMMANDS - {b"set"}

#: Single- or multi-key snapshot reads, answered inline.
READ_COMMANDS = frozenset((b"get", b"gets"))


def shard_of(key: bytes, shards: int) -> int:
    """Owning shard of ``key`` among ``shards``: the one key → shard
    function, so a leader's router and a follower's reads agree."""
    return crc32(key) % shards


class ConnectionState:
    """The connection a frame handed to :meth:`ShardRouter.dispatch`
    came from. It holds nothing: a write has landed before its reply is
    made, so a later read of the same connection sees it unaided."""


class ShardRouter:
    """Key-to-shard fan-out over shard backends on one machine."""

    #: the server's read callback may land a write itself; a follower's
    #: router forwards writes instead, through :meth:`dispatch`
    lands_inline = True

    def __init__(self, machine: Optional[Machine] = None,
                 shard_count: int = 4,
                 backend_factory: Callable[[Machine], HicampMemcached]
                 = HicampMemcached,
                 metrics: Optional[ServerMetrics] = None,
                 injector=None,
                 recorder=None) -> None:
        if shard_count < 1:
            raise ValueError("need at least one shard")
        if machine is None:
            machine = Machine()
        # each landing drains reclamation after its commit batch, and a
        # memo hit skips a value's rebuild and its modeled lookups but
        # stays refcount-exact (docs/performance.md)
        machine.configure_serving()
        servers = [backend_factory(machine) for _ in range(shard_count)]
        self._front(machine, servers, [ProtocolHandler(s) for s in servers],
                    metrics, injector, recorder)

    def _front(self, machine: Machine, servers: List[HicampMemcached],
               handlers: List[ProtocolHandler], metrics=None,
               injector=None, recorder=None) -> None:
        """Front ``servers``, one per shard on a serving ``machine``,
        through ``handlers`` (a follower's router passes its replica's
        lists, which grow as streams arrive)."""
        #: optional :class:`repro.testing.faults.FaultInjector`; its
        #: ``before_commit`` hook stalls a write in :meth:`dispatch`
        #: before it lands (adversarial testing only).
        self.injector = injector
        self.machine = machine
        self.servers = servers
        self.handlers = handlers
        self.metrics = metrics if metrics is not None else ServerMetrics()
        #: trace recorder (:mod:`repro.obs.trace`); the no-op default
        #: keeps every span site zero-cost (guarded on ``enabled``)
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        #: the unified metrics registry: the server silo, the machine's
        #: DRAM counters and the router's cache-wide state all read
        #: through it (``stats prom`` serves its exposition in-band)
        self.registry = MetricsRegistry()
        adapters.register_server_metrics(self.registry, self.metrics)
        adapters.register_dram_stats(self.registry, machine.mem.dram)
        adapters.register_router(self.registry, self)
        adapters.register_index(self.registry, machine.mem.store)
        adapters.register_reclaim(self.registry, machine.mem.store)
        adapters.register_memo(self.registry, machine.mem.memo)
        #: the collector's pauses, counted while a server serves this
        #: router (:class:`~repro.net.metrics.CollectorPauses`)
        self.collector = CollectorPauses()
        adapters.register_collector(self.registry, self.collector)
        # the eviction accounting ManagedMemcached adds reads through
        # the registry like every other silo
        if servers and all(hasattr(s, "eviction") for s in servers):
            adapters.register_eviction(
                self.registry, [s.eviction for s in servers])
        #: callbacks fired as ``listener(shard, vsid, commits)`` after
        #: :meth:`land` lands a batch of writes — ``commits`` root
        #: advances of the shard backend's current segment ``vsid``.
        #: The replication leader tails committed state through this hook
        #: (synchronous, must not block: mark-dirty-and-wake only).
        self.commit_listeners: List[Callable[[int, int, int], None]] = []

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        """Nothing to start: a write lands in the task that carries it."""

    async def drain(self) -> None:
        """Quiesce the store's reclamation queue, so a drained router
        exposes exact state to audits, persistence and replication
        FORGET flushing (every write has landed already). :meth:`abort`
        deliberately does not — a crash-stop leaves deferred frees
        behind by design."""
        self.machine.mem.store.reclaim_quiesce()

    async def stop(self) -> None:
        """Drain, then stop."""
        await self.drain()
        await self.abort()

    async def abort(self) -> None:
        """Crash-stop: nothing is queued here, so nothing drains; a
        write stalled in a connection's task dies with that task (the
        cluster tier's model of a leader dying mid-stream)."""

    # ------------------------------------------------------------------
    # routing

    def shard_index(self, key: bytes) -> int:
        """Owning shard for ``key`` (stable across the server's life)."""
        return shard_of(key, len(self.servers))

    def answer(self, frame: Frame) -> Optional[bytes]:
        """The response to a frame that lands nothing, else ``None``: a
        write or ``flush_all``, which :meth:`land` or :meth:`dispatch`
        commits. The one read routine: a ``get``/``gets`` of any number of
        keys is each key's shard's ``value_block``, in request order; a
        bare one is ``ERROR``, as in memcached."""
        command = frame.command
        if command in READ_COMMANDS:  # an error frame's command is b""
            keys, handlers = frame.args, self.handlers
            if not keys:
                return b"ERROR\r\n"
            shards, with_token = len(handlers), command == b"gets"
            # crc32(key) % shards is shard_of; no comprehension (CPython
            # 3.11 would make a cell per captured local on every call)
            blocks = []
            for key in keys:
                blocks.append(handlers[crc32(key) % shards].value_block(
                    key, with_token))
            return b"".join(blocks) + b"END\r\n"
        if frame.error is not None:
            self.metrics.protocol_errors += 1
            return b"CLIENT_ERROR %s\r\n" % frame.error.encode()
        if command == b"stats":
            return self.stats_response(frame.args)
        if command in WRITE_COMMANDS and frame.args \
                or command == b"flush_all":
            return None
        # version, unknown commands, malformed writes: any handler can
        # answer these without touching shard state
        return self._execute(0, frame)

    async def dispatch(self, frame: Frame,
                       conn: Optional[ConnectionState] = None,
                       parent: Optional[int] = None
                       ) -> "asyncio.Future[bytes]":
        """A completed future holding the reply to ``frame``: what
        :meth:`answer` answers, else the write landed — after the fault
        injector's ``before_commit`` stall, if any — on its shard, or
        ``flush_all`` on every shard in turn. ``parent`` is the
        request's trace span id, carried into the ``commit_batch``
        span."""
        response = self.answer(frame)
        if response is None:
            shards = len(self.servers)
            for shard in (range(shards) if frame.command == b"flush_all"
                          else (shard_of(frame.key, shards),)):
                if self.injector is not None:
                    await self.injector.before_commit(shard)
                response, = self.land(shard, [(frame, parent)])
        return _completed(response)

    def _execute(self, shard: int, frame: Frame) -> bytes:
        """Answer a decoded frame from ``shard``'s backend: the decoder
        parsed it, so the handler is entered past its parser."""
        return self.handlers[shard].execute(frame.command, frame.args,
                                            frame.payload)

    # ------------------------------------------------------------------
    # landing

    def land(self, shard: int, writes: Sequence) -> List[bytes]:
        """Land ``writes`` — ``(frame, request span)`` pairs for
        ``shard``, in arrival order — as one commit batch; their
        replies, in the same order.

        The one way a write commits, for a read callback's chunk and a
        dispatched write alike. A run of consecutive sets is staged
        (repeated keys coalesce last-wins), a non-set write whose key the
        run does not touch is applied in place, and anything that
        touches a staged key splits the run; a run of two or more lands
        as one group commit (:meth:`_commit_bulk_sets`), a run of one
        through the per-op path. Then the commits are counted, the
        ``commit_listeners`` told, and a bounded slice of the frees the
        batch deferred is drained.
        """
        self.metrics.commit_batches += 1
        count = len(writes)
        recorder = self.recorder
        batch_span = None
        dram_probe = None
        if recorder.enabled:
            # the batch span links back to every request span whose
            # write it commits, and carries the DRAM-access delta the
            # whole batch caused (Figure 6 categories, attributed)
            batch_span = recorder.begin(
                "commit_batch", shard=shard, writes=count,
                requests=[p for _, p in writes if p is not None])
            dram_probe = DramProbe(self.machine.mem.dram)
            dram_probe.__enter__()
        replies: List[bytes] = [b""] * count
        index = 0
        while index < count:
            run, keys = [], set()
            while index < count:
                frame = writes[index][0]
                if frame.command == b"set" and frame.payload is not None:
                    try:
                        exptime = parse_exptime(frame.args)
                    except ProtocolError:
                        break  # unstaged: _apply_one answers CLIENT_ERROR
                    # set_many's documented last-wins handling of a
                    # repeated key lets the run absorb hot-key repeats
                    keys.add(frame.key)
                    run.append((index, frame, exptime))
                    index += 1
                    continue
                if not run:
                    break
                if (frame.command in HOP_COMMANDS and frame.args
                        and not any(arg in keys for arg in frame.args)):
                    replies[index] = self._apply_one(shard, frame)
                    index += 1
                    continue
                break
            if len(run) > 1:
                self._commit_bulk_sets(shard, run, replies, batch_span)
            elif run:
                at, frame, _ = run[0]
                replies[at] = self._apply_one(shard, frame)
            else:
                replies[index] = self._apply_one(shard, writes[index][0])
                index += 1
        kvp = getattr(self.servers[shard], "kvp", None)
        vsid = kvp.vsid if kvp is not None else shard
        for _ in range(count):
            self.metrics.observe_commit(vsid)
        for listener in self.commit_listeners:
            listener(shard, vsid, count)
        if batch_span is not None:
            dram_probe.__exit__(None, None, None)
            recorder.end(batch_span, vsid=vsid, **dram_probe.attrs())
        # epoch advancement between commit batches: drain a bounded
        # slice of the frees this batch deferred (the store is held) so
        # the queue stays shallow without putting subtree walks back on
        # any commit's critical path
        self.machine.mem.store.reclaim_advance(RECLAIM_BUDGET)
        return replies

    def _commit_bulk_sets(self, shard: int, run, replies: List[bytes],
                          batch_span: Optional[int] = None) -> None:
        """Land a run of sets — ``(index, frame, exptime)`` each — as
        one group commit, each reply at ``replies[index]``.

        The entire run lands through :meth:`HicampMemcached.set_many` —
        one bottom-up tree rebuild and one root CAS for N sets, each
        with its own wire exptime.
        ``set_many`` coalesces repeated keys to their last occurrence
        before staging (FIFO last-wins, exactly what N sequential sets
        would leave), so hot-key bursts cost one staged write per
        *unique* key and still count one ``sets`` per ``STORED`` reply.
        A run whose group commit raises (a nearly full store) is
        re-applied one frame at a time, so only the sets that do not fit
        fail.
        """
        recorder = self.recorder
        items = [(frame.key, frame.payload, exptime)
                 for _, frame, exptime in run]
        bulk_span = None
        if recorder.enabled:
            staged = len({key for key, _, _ in items})
            bulk_span = recorder.begin("bulk_commit", parent=batch_span,
                                       shard=shard, staged=staged,
                                       coalesced=len(run) - staged)
        try:
            self.servers[shard].set_many(items)
        except Exception:
            # re-apply per-op, in order (the group commit is one root
            # swap, so none of the run landed): only the sets that do
            # not fit answer SERVER_ERROR
            for index, frame, _ in run:
                replies[index] = self._apply_one(shard, frame)
        else:
            for index, _, _ in run:
                replies[index] = b"STORED\r\n"
        if bulk_span is not None:
            recorder.end(bulk_span)

    def _apply_one(self, shard: int, frame: Frame) -> bytes:
        try:
            return self._execute(shard, frame)
        except Exception as exc:
            self.metrics.server_errors += 1
            return b"SERVER_ERROR %s\r\n" \
                % str(exc).encode("ascii", "replace")

    # ------------------------------------------------------------------
    # stats

    def aggregate_server_stats(self) -> Dict[str, int]:
        """Per-shard operation counters summed across the cache."""
        totals: Dict[str, int] = {}
        for server in self.servers:
            for spec in dataclass_fields(server.stats):
                totals[spec.name] = totals.get(spec.name, 0) \
                    + getattr(server.stats, spec.name)
        totals["curr_items"] = sum(s.item_count() for s in self.servers)
        return totals

    def snapshot(self) -> Dict:
        """JSON-safe snapshot of metrics plus cache-wide state."""
        return self.metrics.snapshot(extra={
            "shards": len(self.servers),
            "footprint_bytes": self.machine.footprint_bytes(),
            "server": self.aggregate_server_stats(),
            "index": self.machine.mem.store.index_snapshot(),
            "reclaim": self.machine.mem.store.reclaim_snapshot(),
            "memo": self.machine.mem.memo.snapshot(),
            "collector": self.collector.snapshot(),
            **self.extra_stats(),
        })

    def extra_stats(self) -> Dict:
        """Keys a router adds to ``stats`` and ``stats json`` beyond the
        cache-wide state (a follower's replication counters); none."""
        return {}

    def stats_response(self, args: List[bytes]) -> bytes:
        """The ``stats`` command: STAT lines, one JSON document, or
        (``stats prom``) the registry's Prometheus text exposition."""
        if args and args[0] == b"json":
            body = json.dumps(self.snapshot(), sort_keys=True).encode()
            return body + CRLF + b"END\r\n"
        if args and args[0] == b"prom":
            return self.registry.exposition().encode() + b"END\r\n"
        lines = [b"STAT %s %s\r\n" % (name.encode(), str(value).encode())
                 for name, value in sorted(
                     self.aggregate_server_stats().items())]
        lines.append(b"STAT shards %d\r\n" % len(self.servers))
        lines.extend(self.metrics.stats_lines())
        lines.extend(b"STAT %s %s\r\n" % (name.encode(), str(value).encode())
                     for name, value in sorted(self.extra_stats().items()))
        lines.append(b"END\r\n")
        return b"".join(lines)


# ----------------------------------------------------------------------


def cluster_response(args: List[bytes], topology) -> bytes:
    """The in-band ``cluster`` verb, answered alike by a cluster leader's
    router and a follower's: ``cluster topology`` is the committed
    topology document as one JSON line, then END."""
    if not args or args[0] != b"topology":
        return b"CLIENT_ERROR unknown cluster verb\r\n"
    if topology is None:
        return b"SERVER_ERROR no topology\r\n"
    body = json.dumps(topology.to_doc(), sort_keys=True).encode()
    return body + CRLF + b"END" + CRLF


def _completed(response: bytes) -> "asyncio.Future[bytes]":
    future: "asyncio.Future[bytes]" = \
        asyncio.get_running_loop().create_future()
    future.set_result(response)
    return future

