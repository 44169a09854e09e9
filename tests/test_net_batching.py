"""Batches stay batched — wall-clock-free pins on both ends of a request.

(i) a drained run of sets lands as one group commit: one root CAS, none
lost, one ``write_words_bulk`` rebuild, and never more host calls than
per-op CAS commits of the same run;
(ii) ``MemcachedServer._flush`` joins consecutive resolved responses
into one ``writer.write``, writes what it holds before suspending on an
unresolved one, and leaves the fault-injector write sequence alone;
(iii) a group commit that raises on a full store is re-applied per set,
so ``SERVER_ERROR`` granularity and ``cmd_set`` do not depend on how
the sets were batched (the ``sets`` field against the per-op handler
rides in ``tests/test_router_differential.py``).
"""

import asyncio
import sys

import pytest

from repro.core.machine import Machine
from repro.errors import MemoryExhaustedError
from repro.net.framing import FrameDecoder
from repro.net.router import ConnectionState, ShardRouter
from repro.net.server import MemcachedServer
from repro.params import MachineConfig, MemoryConfig
from repro.segments import dag
from repro.testing.auditors import audit_machine
from repro.testing.faults import WRITE_SPLIT, FaultInjector, FaultPlan


def _set(key: bytes, value: bytes) -> bytes:
    return b"set %s 0 0 %d\r\n%s\r\n" % (key, len(value), value)


def _distinct_sets(n: int) -> bytes:
    return b"".join(_set(b"key%02d" % i, b"value-%02d" % i)
                    for i in range(n))


async def _session(router: ShardRouter, conn: ConnectionState, raw: bytes):
    """One pipelined burst: every frame is enqueued before the shard
    worker gets the loop, so the burst drains as one batch."""
    futures = [await router.dispatch(frame, conn)
               for frame in FrameDecoder().feed(raw)]
    return [await f for f in futures]


# ----------------------------------------------------------------------
# (i) a run is one group commit


@pytest.mark.parametrize("n", (2, 4, 16))
def test_default_run_is_one_root_cas_and_one_rebuild(n, monkeypatch):
    rebuilds = []
    real = dag.write_words_bulk

    def counted(*args, **kwargs):
        rebuilds.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(dag, "write_words_bulk", counted)
    router = ShardRouter(shard_count=1, batch_limit=16)
    segmap = router.machine.segmap
    attempts = segmap.cas_attempts

    async def go():
        await router.start()
        responses = await _session(router, ConnectionState(),
                                   _distinct_sets(n))
        await router.stop()
        return responses

    assert asyncio.run(go()) == [b"STORED\r\n"] * n
    assert segmap.cas_attempts - attempts == 1
    assert segmap.cas_failures == 0
    assert len(rebuilds) == 1
    assert router.metrics.commit_batches == 1
    assert router.servers[0].stats.sets == n


def _drain_calls(n: int, batch_size: int) -> int:
    """Python + C calls one worker makes applying ``n`` distinct-key
    sets drained ``batch_size`` at a time (no clock, no event-loop
    machinery); a batch of one is the per-op path."""
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    async def go():
        router = ShardRouter(shard_count=1, batch_limit=16)
        await router.start()
        loop = asyncio.get_running_loop()
        batch = [(frame, loop.create_future(), None)
                 for frame in FrameDecoder().feed(_distinct_sets(n))]
        sys.setprofile(count)
        try:
            for i in range(0, n, batch_size):
                await router._apply_batch(0, batch[i:i + batch_size])
        finally:
            sys.setprofile(None)
        assert [f.result() for _, f, _ in batch] == [b"STORED\r\n"] * n
        await router.stop()

    asyncio.run(go())
    return calls


@pytest.mark.parametrize("n", (2, 4, 16))
def test_default_run_call_ceiling_is_per_op_cas(n):
    """Manufactured contention (N - 1 lost CASes, each a second rebuild
    and a three-way merge: 4 984 / 13 542 / 66 099 calls when every set
    of a run committed against one stale snapshot, against
    2 003 / 4 085 / 17 727 per-op and 1 676 / 2 956 / 10 539 as one
    group commit) cannot return unnoticed."""
    grouped = _drain_calls(n, batch_size=n)
    per_op = _drain_calls(n, batch_size=1)
    assert grouped <= per_op, (grouped, per_op)


# ----------------------------------------------------------------------
# (ii) one write per flushed burst


class RecordingWriter:
    """Stands in for a StreamWriter: logs writes and drains in order."""

    def __init__(self) -> None:
        self.log = []

    def write(self, data: bytes) -> None:
        self.log.append(data)

    async def drain(self) -> None:
        self.log.append("drain")


def _inflight(server, responses):
    """FIFO in-flight entries; ``None`` marks an unresolved response."""
    loop = asyncio.get_running_loop()
    entries, pending = [], []
    for response in responses:
        future = loop.create_future()
        if response is None:
            pending.append(future)
        else:
            future.set_result(response)
        entries.append((server.metrics.now(), b"get", future, None))
    return entries, pending


def test_flush_joins_resolved_responses_into_one_write():
    responses = [b"VALUE k%d 0 1\r\n%d\r\nEND\r\n" % (i, i)
                 for i in range(8)]

    async def go():
        server = MemcachedServer(port=0, shard_count=1)
        writer = RecordingWriter()
        inflight, _ = _inflight(server, responses)
        await server._flush(inflight, writer)
        return server, writer, inflight

    server, writer, inflight = asyncio.run(go())
    assert writer.log == [b"".join(responses), "drain"]
    assert inflight == []
    assert server.metrics.ops_total == 8
    assert server.metrics.bytes_out == len(b"".join(responses))


def test_flush_writes_held_responses_before_awaiting_a_commit():
    async def go():
        server = MemcachedServer(port=0, shard_count=1)
        writer = RecordingWriter()
        inflight, (pending,) = _inflight(
            server, [b"A\r\n", b"B\r\n", b"C\r\n", None, b"E\r\n", b"F\r\n"])
        flush = asyncio.ensure_future(server._flush(inflight, writer))
        await asyncio.sleep(0)  # _flush runs up to the unresolved reply
        before = list(writer.log)
        pending.set_result(b"D\r\n")
        await flush
        return before, writer.log

    before, log = asyncio.run(go())
    # no reply waits on a later request's commit
    assert before == [b"A\r\nB\r\nC\r\n"]
    assert log == [b"A\r\nB\r\nC\r\n", b"D\r\nE\r\nF\r\n", "drain"]


def test_flush_write_sequence_unchanged_under_fault_injector():
    responses = [b"VALUE k%d 0 4\r\nv%03d\r\nEND\r\n" % (i, i)
                 for i in range(8)]
    plan = FaultPlan(7, {WRITE_SPLIT: 0.5})

    async def go():
        server = MemcachedServer(port=0, shard_count=1,
                                 injector=FaultInjector(plan))
        writer = RecordingWriter()
        inflight, _ = _inflight(server, responses)
        await server._flush(inflight, writer, scope=0)
        return writer.log

    # the parent commit's sequence: every chunk of every response is its
    # own write followed by its own drain, then the closing drain
    reference = FaultInjector(plan)
    expected = []
    for response in responses:
        for chunk in reference.split_write(0, response):
            expected += [chunk, "drain"]
    expected.append("drain")
    assert reference.fired[WRITE_SPLIT] > 0
    assert asyncio.run(go()) == expected


def test_max_inflight_mid_burst_flush_keeps_order():
    burst = b"".join(_set(b"k%d" % i, b"v%d" % i) + b"get k%d\r\n" % i
                     for i in range(7))
    expected = b"".join(b"STORED\r\nVALUE k%d 0 2\r\nv%d\r\nEND\r\n" % (i, i)
                        for i in range(7))

    async def go():
        async with MemcachedServer(port=0, shard_count=2,
                                   max_inflight=3) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(burst)
            await writer.drain()
            out = await reader.readexactly(len(expected))
            writer.close()
            return out

    assert asyncio.run(go()) == expected


# ----------------------------------------------------------------------
# (iii) cmd_set and SERVER_ERROR granularity do not depend on batching


def _full_store_run(batch_limit):
    """On a store with no free line, a run of two sets that need none
    (a key re-set to its current value deduplicates completely) around
    one that needs a new leaf. ``batch_limit=1`` drains one frame per
    batch: the per-op reference."""
    # the 64 x 4 + 256 geometry tests/test_dedup_store.py exhausts
    machine = Machine(MachineConfig(memory=MemoryConfig(
        line_bytes=16, num_buckets=64, data_ways=4, overflow_lines=256)))
    mem = machine.mem
    values = {b"k%d" % i: b"value-%02d-0123456789abcdefghij" % i
              for i in range(4)}

    async def go():
        router = ShardRouter(machine=machine, shard_count=1,
                             batch_limit=batch_limit)
        await router.start()
        conn = ConnectionState()
        preload = await _session(
            router, conn, b"".join(_set(k, v) for k, v in values.items()))
        assert preload == [b"STORED\r\n"] * 4
        # ballast: distinct leaves held by the test until every data
        # way and overflow slot is taken
        ballast, i = [], 0
        while machine.footprint_lines() < 64 * 4 + 256:
            i += 1
            try:
                ballast.append(mem.lookup((0xBA11A57 << 20 | i, i)))
            except MemoryExhaustedError:
                pass
        responses = await _session(
            router, conn,
            _set(b"k0", values[b"k0"]) + _set(b"fresh", b"0123456789abcdef")
            + _set(b"k1", values[b"k1"]) + _set(b"k0", values[b"k0"]))
        await router.drain()
        for plid in ballast:
            mem.decref(plid)
        machine.drain()
        audit = audit_machine(machine, strict=True)
        await router.stop()
        server = router.servers[0]
        return {
            "responses": [r.split(b" ")[0] for r in responses],
            "sets": server.stats.sets,
            "server_errors": router.metrics.server_errors,
            "fresh": server.kvp.get(b"fresh"),
            "fingerprint": machine.segment_fingerprint(
                server.kvp.vsid).hex(),
            "footprint_lines": machine.footprint_lines(),
            "audit": audit.failures,
        }

    return asyncio.run(go())


def test_failed_group_commit_falls_back_to_per_set_errors():
    baseline = _full_store_run(batch_limit=1)
    assert baseline["responses"] == [b"STORED\r\n", b"SERVER_ERROR",
                                     b"STORED\r\n", b"STORED\r\n"]
    assert baseline["sets"] == 4 + 3  # the preload, then STORED replies
    assert baseline["server_errors"] == 1
    assert baseline["fresh"] is None
    assert baseline["audit"] == []
    assert _full_store_run(batch_limit=16) == baseline
