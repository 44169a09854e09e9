"""Shard routing and per-shard commit queues for the serving layer.

The §5.1.1 closing remark — split a contended map so updates stop
sharing a CAS target — is realized here at serving scale: the router
fans keys out across ``shard_count`` independent
:class:`~repro.apps.memcached.server.HicampMemcached` backends, all on
one shared :class:`~repro.core.machine.Machine` (so deduplication still
spans the whole cache). Each shard owns an asyncio commit queue and a
worker coroutine:

* **reads** (``get``/``gets``/``stats``/``version``) are answered by
  :meth:`ShardRouter.answer`, with no queue and no future — they are
  snapshot reads and need no synchronization, the paper's headline
  memcached property — unless they wait on their connection's writes;
* **writes** are enqueued to the owning shard, giving natural
  backpressure (bounded queue);
* a worker drains its queue in *batches* and has one way to land one,
  chosen by what the batch contains: consecutive ``set`` requests are
  staged into a run (repeated keys coalesce last-wins), a read fence
  whose keys the run does not touch resolves early, a key-disjoint
  non-``set`` write is applied in place, and anything that touches a
  staged key — or a ``stats`` fence, which reads every key — splits the
  run. A run of two or more lands as one **group commit**: one iterator
  register, one tree rebuild, one root CAS (§2.2's snapshot → modify →
  *one* CAS, via ``set_many`` → ``put_many``); a run of one is the
  per-op path. A worker is the only writer of its shard's segment, so
  there is no concurrent CAS for merge-update to absorb — merge-update
  (§3.4) stays where writers are genuinely concurrent: ``HMap.put``
  under the ``Scheduler``, ``conflict_sim``, the HI harness.

**Ordering contract.** Promised: *per-key order* (two writes to one key
apply in the order their shard queue received them; a write never
passes an earlier write or fenced read of its key), *per-connection
read-after-write* (:class:`ConnectionState` tracks the last write
enqueued per shard and a later read from that connection waits behind a
fence for it), and *responses in request order per connection*. Not
promised: cross-key FIFO across a shard queue — a ``delete b`` queued
behind ``set a`` may apply before it, and ``set a`` answers when its
whole run lands. Memcached orders per key, never across keys.
"""

from __future__ import annotations

import asyncio
import json
import zlib
from dataclasses import fields as dataclass_fields
from typing import Awaitable, Callable, Dict, List, Mapping, Optional, Sequence

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

#: Writes a shard's commit queue holds before ``dispatch`` waits on it.
QUEUE_DEPTH = 256

#: Frames a shard worker drains from its queue into one batch.
BATCH_LIMIT = 16

#: Commands that mutate the cache and therefore go through a commit queue.
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

#: Queue marker that orders a read after this connection's prior writes.
#: The worker resolves it once every write of the fence's keys queued
#: ahead of it has landed, and yields, so the reader runs before any
#: write enqueued *behind* the fence commits.
FENCE = b"\x00fence"


def shard_of(key: bytes, shards: int) -> int:
    """Owning shard of ``key`` among ``shards``: the one key → shard
    function, so a leader's router and a follower's reads agree."""
    return zlib.crc32(key) % shards


class ConnectionState:
    """Per-connection ordering state: last write enqueued per shard."""

    def __init__(self) -> None:
        self.last_write: Dict[int, "asyncio.Future[bytes]"] = {}

    def depends_on(self, shard: int) -> Optional["asyncio.Future[bytes]"]:
        future = self.last_write.get(shard)
        if future is not None and future.done():
            del self.last_write[shard]
            return None
        return future


class ShardRouter:
    """Key-to-shard fan-out with per-shard asyncio commit queues."""

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
        # the workers drain reclamation between commit batches, and a
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
        #: ``before_commit`` hook stalls a shard worker between draining
        #: a batch and applying it (adversarial testing only).
        self.injector = injector
        self.machine = machine
        self.servers = servers
        self.handlers = handlers
        self.batch_limit = BATCH_LIMIT
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
        self.queues: List["asyncio.Queue"] = []
        self._workers: List["asyncio.Task"] = []
        #: callbacks fired as ``listener(shard, vsid, commits)`` after a
        #: shard worker applies a batch containing writes — ``commits``
        #: root advances of the shard backend's current segment ``vsid``.
        #: The replication leader tails committed state through this hook
        #: (synchronous, must not block: mark-dirty-and-wake only).
        self.commit_listeners: List[Callable[[int, int, int], None]] = []

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        """Create the commit queues and start one worker per shard."""
        if self._workers:
            return
        self.queues = [asyncio.Queue(maxsize=QUEUE_DEPTH)
                       for _ in self.servers]
        self._workers = [asyncio.ensure_future(self._worker(i))
                         for i in range(len(self.servers))]

    async def drain(self) -> None:
        """Wait until every enqueued commit has been applied.

        Also quiesces the store's reclamation queue, so a drained router
        exposes exact state to audits, persistence and replication
        FORGET flushing. :meth:`abort` deliberately does not — a crash-stop
        leaves deferred frees behind by design.
        """
        if self.queues:
            await asyncio.gather(*(queue.join() for queue in self.queues))
        self.machine.mem.store.reclaim_quiesce()

    async def stop(self) -> None:
        """Flush pending commits, then stop the workers."""
        await self.drain()
        await self.abort()

    async def abort(self) -> None:
        """Crash-stop: cancel the workers without draining the queues.

        Enqueued-but-unapplied commits are dropped on the floor — this is
        the cluster tier's model of a leader dying mid-stream, so it must
        *not* flush (the whole point is that acknowledged state and
        queued state part ways, and replication convergence is judged on
        what actually committed).
        """
        workers, self._workers = self._workers, []
        for worker in workers:
            worker.cancel()
        if workers:
            # waited on, not awaited: the workers' own CancelledError
            # stays in them, and a cancel of the caller is raised
            await asyncio.wait(workers)
        for worker in workers:
            if not worker.cancelled():
                worker.result()

    def pending_commits(self) -> int:
        """Writes enqueued but not yet applied, across all shards."""
        return sum(queue.qsize() for queue in self.queues)

    # ------------------------------------------------------------------
    # routing

    def shard_index(self, key: bytes) -> int:
        """Owning shard for ``key`` (stable across the server's life)."""
        return shard_of(key, len(self.servers))

    def answer(self, frame: Frame, conn: ConnectionState) -> Optional[bytes]:
        """The response to a frame that needs no queue, else ``None``:
        writes, ``flush_all`` and reads of a shard holding a pending
        write from ``conn`` go through :meth:`dispatch`."""
        if frame.error is not None:
            self.metrics.protocol_errors += 1
            return b"CLIENT_ERROR %s\r\n" % frame.error.encode()
        command = frame.command
        if command in READ_COMMANDS and frame.args:
            if len(frame.args) == 1:
                shard = shard_of(frame.key, len(self.servers))
                if conn.depends_on(shard) is not None:
                    return None
                return self._execute(shard, frame)
            shards = len(self.servers)
            if any(conn.depends_on(shard_of(key, shards)) is not None
                   for key in frame.args):
                return None
            return self._read_keys(frame)
        if command == b"stats":
            if any(conn.depends_on(shard) is not None
                   for shard in range(len(self.servers))):
                return None
            return self.stats_response(frame.args)
        if command in WRITE_COMMANDS and frame.key is not None \
                or command == b"flush_all":
            return None
        # version, unknown commands, malformed writes: any handler can
        # answer these without touching shard state
        return self._execute(0, frame)

    async def dispatch(self, frame: Frame, conn: ConnectionState,
                       parent: Optional[int] = None) -> Awaitable[bytes]:
        """Route one frame; returns an awaitable yielding the response.

        What :meth:`answer` answers comes back as a completed future.
        Writes are *enqueued* before this returns (waiting for queue
        space is the backpressure), but their response awaitable resolves
        only when the shard worker commits them — so a connection can
        keep dispatching pipelined requests while commits are in flight.
        ``parent`` is the request's trace span id (propagated into the
        commit-queue batch span when tracing is enabled).
        """
        response = self.answer(frame, conn)
        if response is not None:
            return _completed(response)
        command = frame.command
        if command == b"flush_all":
            return await self._broadcast(frame, conn, parent)
        if command == b"stats":
            # stats pipelined behind this connection's writes counts them
            return await self._fenced_read(
                conn, dict.fromkeys(range(len(self.servers)), ()),
                lambda: self.stats_response(frame.args))
        if command in READ_COMMANDS:
            keys: Dict[int, List[bytes]] = {}
            shards = len(self.servers)
            for key in frame.args:
                keys.setdefault(shard_of(key, shards), []).append(key)
            return await self._fenced_read(
                conn, keys, lambda: self._read_keys(frame))
        return await self._enqueue_write(frame, conn, parent)

    def _execute(self, shard: int, frame: Frame) -> bytes:
        """Answer a decoded frame from ``shard``'s backend: the decoder
        parsed it, so the handler is entered past its parser."""
        return self.handlers[shard].execute(frame.command, frame.args,
                                            frame.payload)

    def _read_keys(self, frame: Frame) -> bytes:
        """A ``get``/``gets`` of one or more keys, each read from its
        own shard."""
        with_token = frame.command == b"gets"
        handlers = self.handlers
        shards = len(handlers)
        out = [handlers[shard_of(key, shards)].value_block(key, with_token)
               for key in frame.args]
        out.append(b"END\r\n")
        return b"".join(out)

    async def _enqueue_write(self, frame: Frame, conn: ConnectionState,
                             parent: Optional[int] = None
                             ) -> "asyncio.Future[bytes]":
        shard = shard_of(frame.key, len(self.servers))
        future: "asyncio.Future[bytes]" = \
            asyncio.get_running_loop().create_future()
        await self.queues[shard].put((frame, future, parent))
        self.metrics.observe_queue_depth(self.queues[shard].qsize())
        conn.last_write[shard] = future
        return future

    async def _enqueue_fence(self, shard: int,
                             keys=()) -> "asyncio.Future[bytes]":
        # the fence carries the keys its reader is about to fetch: the
        # worker resolves it early when none of them are in the run of
        # sets it is staging (an empty tuple means "all keys" — stats
        # fences — and always splits the run)
        future: "asyncio.Future[bytes]" = \
            asyncio.get_running_loop().create_future()
        await self.queues[shard].put(
            (Frame(raw=b"", command=FENCE, args=list(keys)), future, None))
        return future

    async def _fenced_read(self, conn: ConnectionState,
                           keys: Mapping[int, Sequence[bytes]],
                           read: Callable[[], bytes]) -> Awaitable[bytes]:
        """``read()`` once a fence has passed on every shard in ``keys``
        holding a write from ``conn`` (``keys[shard]`` are the keys it
        reads there; none for ``stats``, which reads them all)."""
        deps = [await self._enqueue_fence(shard, shard_keys)
                for shard, shard_keys in keys.items()
                if conn.depends_on(shard) is not None]

        async def fetch() -> bytes:
            for dep in deps:
                try:
                    await dep
                except Exception:
                    pass  # the write's own response reports its failure
            return read()

        return asyncio.ensure_future(fetch())

    async def _broadcast(self, frame: Frame, conn: ConnectionState,
                         parent: Optional[int] = None) -> Awaitable[bytes]:
        futures = []
        for shard in range(len(self.servers)):
            future: "asyncio.Future[bytes]" = \
                asyncio.get_running_loop().create_future()
            await self.queues[shard].put((frame, future, parent))
            conn.last_write[shard] = future
            futures.append(future)

        async def gather() -> bytes:
            responses = await asyncio.gather(*futures)
            return responses[0]

        return asyncio.ensure_future(gather())

    # ------------------------------------------------------------------
    # commit workers

    async def _worker(self, shard: int) -> None:
        queue = self.queues[shard]
        while True:
            batch = [await queue.get()]
            while len(batch) < self.batch_limit:
                try:
                    batch.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                if self.injector is not None:
                    # commit-queue stall: the batch is drained but its
                    # commits are delayed while snapshot reads proceed
                    await self.injector.before_commit(shard)
                await self._apply_batch(shard, batch)
            finally:
                for _ in batch:
                    queue.task_done()

    async def _apply_batch(self, shard: int, batch) -> None:
        self.metrics.commit_batches += 1
        writes = sum(1 for frame, _, _ in batch if frame.command != FENCE)
        recorder = self.recorder
        batch_span = None
        dram_probe = None
        if recorder.enabled:
            # the batch span links back to every request span whose
            # write it commits, and carries the DRAM-access delta the
            # whole batch caused (Figure 6 categories, attributed)
            batch_span = recorder.begin(
                "commit_batch", shard=shard, ops=len(batch), writes=writes,
                requests=[p for _, _, p in batch if p is not None])
            dram_probe = DramProbe(self.machine.mem.dram)
            dram_probe.__enter__()
        # a run of sets keeps growing across key-disjoint fences and
        # non-set writes instead of splitting at them: per-key order is
        # untouched (anything touching a staged key splits), only the
        # cross-key interleaving loosens, which memcached semantics
        # never promised — so a mixed batch is one put_many, not one
        # per fence/delete/cas gap
        pending = list(batch)
        while pending:
            run, keys = [], set()
            while pending:
                frame, future, _ = pending[0]
                if frame.command == b"set" and frame.payload is not None:
                    try:
                        exptime = parse_exptime(frame.args)
                    except ProtocolError:
                        break  # unstaged: _apply_one answers CLIENT_ERROR
                    # set_many's documented last-wins handling of a
                    # repeated key lets the run absorb hot-key repeats
                    keys.add(frame.key)
                    pending.pop(0)
                    run.append((frame, future, exptime))
                    continue
                if not run:
                    break
                if frame.command == FENCE:
                    if not frame.args \
                            or any(k in keys for k in frame.args):
                        break
                    # the reader behind this fence fetches keys the
                    # staged run never touches: resolve it now and
                    # yield so the read lands before any later write
                    # of those keys joins a run
                    pending.pop(0)
                    _resolve(future, b"")
                    await asyncio.sleep(0)
                    continue
                if (frame.command in HOP_COMMANDS and frame.args
                        and not any(arg in keys for arg in frame.args)):
                    pending.pop(0)
                    self._apply_one(shard, frame, future)
                    continue
                break
            if len(run) > 1:
                self._commit_bulk_sets(shard, run, batch_span)
            elif run:
                self._apply_one(shard, run[0][0], run[0][1])
            else:
                frame, future, _ = pending.pop(0)
                if frame.command == FENCE:
                    _resolve(future, b"")
                    # let the fenced reader run before any write that was
                    # enqueued behind the fence commits
                    await asyncio.sleep(0)
                else:
                    self._apply_one(shard, frame, future)
        if writes:
            kvp = getattr(self.servers[shard], "kvp", None)
            vsid = kvp.vsid if kvp is not None else shard
            for _ in range(writes):
                self.metrics.observe_commit(vsid)
            for listener in self.commit_listeners:
                listener(shard, vsid, writes)
            if batch_span is not None:
                recorder.attach(batch_span, vsid=vsid)
        if batch_span is not None:
            dram_probe.__exit__(None, None, None)
            recorder.end(batch_span, **dram_probe.attrs())
        # epoch advancement between commit batches: drain a bounded
        # slice of the frees this batch deferred (the store is held) so
        # the queue stays shallow without putting subtree walks back on
        # any commit's critical path
        self.machine.mem.store.reclaim_advance(RECLAIM_BUDGET)

    def _commit_bulk_sets(self, shard: int, run,
                          batch_span: Optional[int] = None) -> None:
        """Land a run of sets — ``(frame, future, exptime)`` each — as
        one group commit.

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
                 for frame, _, exptime in run]
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
            for frame, future, _ in run:
                self._apply_one(shard, frame, future)
        else:
            for _, future, _ in run:
                _resolve(future, b"STORED\r\n")
        if bulk_span is not None:
            recorder.end(bulk_span)

    def _apply_one(self, shard: int, frame: Frame, future) -> None:
        try:
            response = self._execute(shard, frame)
        except Exception as exc:
            self.metrics.server_errors += 1
            response = b"SERVER_ERROR %s\r\n" \
                % str(exc).encode("ascii", "replace")
        _resolve(future, response)

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
            "pending_commits": self.pending_commits(),
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
        lines.append(b"STAT pending_commits %d\r\n" % self.pending_commits())
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


def _resolve(future: "asyncio.Future[bytes]", response: bytes) -> None:
    if not future.done():
        future.set_result(response)
