"""Router vs per-op handler: how a batch lands must be invisible.

A server's read callback stages a chunk's writes per shard and lands
them through ``ShardRouter.land``, which stages consecutive sets into
one group commit and applies key-disjoint non-set writes in place; a
read of a staged key, or ``stats``, lands what is staged first, and a
read of other keys is answered at once. History independence is what
makes that safe: the canonical DAG does not remember how it was built.
These tests replay one deterministic pipelined workload — dup-key sets
a run coalesces last-wins, deletes/``cas``/counters that commute around
staged runs, gets of keys staged and not — through a server
connection's read callback and, one frame at a time, through
``ProtocolHandler.handle`` on a fresh machine, and demand identical
per-key response sequences plus identical post-quiesce observables:
per-shard segment fingerprints, unique-line footprints and the refcount
multiset. A second section pins the staging rule itself, case by case.
"""

import asyncio
import binascii
import hashlib
import random

from repro.apps.memcached.eviction import ManagedMemcached
from repro.apps.memcached.protocol import ProtocolHandler
from repro.apps.memcached.server import HicampMemcached
from repro.core.machine import Machine
from repro.net import server as server_module
from repro.net.framing import FrameDecoder
from repro.net.router import ShardRouter
from repro.net.server import MemcachedServer
from repro.obs.trace import StepClock, TraceRecorder
from repro.testing.auditors import audit_machine

SHARDS = 3


def _put(key, value):
    return b"set %s 0 0 %d\r\n%s\r\n" % (key, len(value), value)


def _token(value):
    # the wire form of HicampMemcached's content-derived CAS token
    return binascii.crc32(hashlib.blake2b(value, digest_size=8).digest())


def _chunks(seed):
    """Three deterministic request chunks (raw protocol bytes): a mixed
    warmup, a dup/delete/cas-churning storm, then a counter-RMW tail.
    Gets ride along in every chunk, of staged keys and of others.
    ``model`` tracks what sequential execution leaves per key, so a
    ``cas`` can present the live token (or, one time in three, a stale
    one)."""
    rng = random.Random(seed)
    keys = [b"k%02d" % i for i in range(10)]
    model = {}

    def put(key, tag):
        model[key] = b"v%05d" % tag
        return _put(key, model[key])

    warm = b"".join(put(k, i) for i, k in enumerate(keys))
    warm += b"set ctr 0 0 3\r\n100\r\n"
    warm += b"".join(b"get %s\r\n" % rng.choice(keys) for _ in range(4))

    storm = b""
    for i in range(80):
        roll = rng.random()
        key = rng.choice(keys)
        if roll < 0.5:
            storm += put(key, 1000 + rng.randrange(40))  # dup-heavy
        elif roll < 0.65:
            storm += b"delete %s\r\n" % key
            model.pop(key, None)
        elif roll < 0.77:
            value = b"c%05d" % i
            stale = rng.random() < 0.33
            token = _token(model.get(key, b"absent")) + stale
            storm += b"cas %s 0 0 %d %d\r\n%s\r\n" % (
                key, len(value), token, value)
            if key in model and not stale:
                model[key] = value
        elif roll < 0.9:
            storm += b"get %s\r\n" % key
        else:
            storm += put(b"fresh%02d" % i, 2000 + i)

    tail = b""
    for _ in range(20):
        roll = rng.random()
        if roll < 0.4:
            tail += b"incr ctr %d\r\n" % rng.randrange(1, 9)
        elif roll < 0.6:
            tail += b"decr ctr %d\r\n" % rng.randrange(1, 5)
        elif roll < 0.8:
            tail += b"gets %s\r\n" % rng.choice(keys)
        else:
            tail += put(rng.choice(keys), 3000 + rng.randrange(20))
    return [warm, storm, tail]


def _by_key(frames, responses):
    sequences = {}
    for frame, response in zip(frames, responses):
        sequences.setdefault(frame.key, []).append(response)
    return sequences


def _observe(machine, servers):
    machine.drain()  # quiesce deferred reclaim before observing
    store = machine.mem.store
    return {
        "fingerprints": [machine.segment_fingerprint(s.kvp.vsid).hex()
                         for s in servers],
        "footprint_lines": machine.footprint_lines(),
        "footprint_bytes": store.footprint_bytes(),
        "refcounts": sorted(store.refcount(p) for p in store.live_plids()),
        "audit": audit_machine(machine, strict=True).failures,
        "items": sum(s.item_count() for s in servers),
        # cmd_set counts STORED replies to sets, however a run coalesced
        "sets": sum(s.stats.sets for s in servers),
    }


class _Transport:
    """Collects what a connection writes, in memory."""

    def __init__(self) -> None:
        self.out = b""

    def write(self, data: bytes) -> None:
        self.out += data

    def is_closing(self) -> bool:
        return False


def _serve(router, chunks):
    """Each chunk is one read of a single connection of a server over
    ``router``, handled by its read callback; the frames and their
    replies, one per frame."""
    async def go():
        connection = server_module._Connection(
            MemcachedServer(port=0, router=router))
        connection.connection_made(_Transport())
        for chunk in chunks:
            connection.data_received(chunk)
            assert connection.task is None  # all answered or landed
        return connection.transport.out

    out = asyncio.run(go())
    frames = [f for chunk in chunks for f in FrameDecoder().feed(chunk)]
    replies, at = [], 0
    for frame in frames:
        end = b"END\r\n" if frame.command in (b"get", b"gets", b"stats") \
            else b"\r\n"
        stop = out.index(end, at) + len(end)
        replies.append(out[at:stop])
        at = stop
    assert at == len(out)
    return frames, replies


def _through_router(chunks):
    router = ShardRouter(shard_count=SHARDS)
    frames, responses = _serve(router, chunks)
    observed = _observe(router.machine, router.servers)
    return (frames, responses, observed, router.metrics.commit_batches,
            router.shard_index)


def _through_handler(chunks, shard_index):
    """The per-op reference: no router, no queue, no batching."""
    machine = Machine()
    servers = [HicampMemcached(machine) for _ in range(SHARDS)]
    handlers = [ProtocolHandler(server) for server in servers]
    frames = [f for chunk in chunks for f in FrameDecoder().feed(chunk)]
    responses = [handlers[shard_index(f.key)].handle(f.raw) for f in frames]
    return responses, _observe(machine, servers)


class TestRouterMatchesHandler:
    def test_responses_and_state_match_the_handler(self):
        for seed in (3, 11, 29, 77):
            chunks = _chunks(seed)
            frames, responses, observed, batches, shard_index = \
                _through_router(chunks)
            ref_responses, ref_observed = _through_handler(
                chunks, shard_index)
            assert _by_key(frames, responses) \
                == _by_key(frames, ref_responses), seed
            assert observed == ref_observed, seed
            assert observed["audit"] == [] and observed["items"] > 0
            # the router really batched: far fewer batches than writes
            writes = sum(1 for f in frames if f.command not in
                         (b"get", b"gets"))
            assert batches < writes // 2, (seed, batches, writes)
            # the storm chunk repeats keys inside one drained run, and
            # every STORED reply to a set or a cas still counts once
            stored_sets = sum(
                f.command in (b"set", b"cas") and r == b"STORED\r\n"
                for f, r in zip(frames, responses))
            assert observed["sets"] == stored_sets > observed["items"]


# ----------------------------------------------------------------------
# the staging rule, case by case (one shard, one pipelined burst)


def _burst(raw, preload=b"", backend=HicampMemcached):
    rec = TraceRecorder(clock=StepClock())
    router = ShardRouter(shard_count=1, recorder=rec,
                         backend_factory=backend)
    frames, responses = _serve(router, [preload, raw])
    responses = responses[len(frames) - len(FrameDecoder().feed(raw)):]
    router.machine.drain()
    assert audit_machine(router.machine, strict=True).ok
    staged = [span.attrs["staged"] for span in rec.find("bulk_commit")]
    return responses, staged, router


class TestStagingRule:
    def test_disjoint_delete_and_fence_do_not_split_the_run(self):
        responses, staged, router = _burst(
            _put(b"a", b"1") + b"delete b\r\n" + b"get c\r\n"
            + _put(b"d", b"4"), preload=_put(b"b", b"0") + _put(b"c", b"3"))
        assert responses == [b"STORED\r\n", b"DELETED\r\n",
                             b"VALUE c 0 1\r\n3\r\nEND\r\n", b"STORED\r\n"]
        assert staged == [2, 2]  # the preload, then {a, d} as one run
        assert router.metrics.commit_batches == 2
        assert router.servers[0].get(b"b") is None

    def test_fence_on_a_staged_key_splits_the_run(self):
        responses, staged, _ = _burst(
            _put(b"a", b"1") + b"get a\r\n" + _put(b"d", b"4"))
        assert responses[1] == b"VALUE a 0 1\r\n1\r\nEND\r\n"
        assert staged == []

    def test_write_to_a_staged_key_splits_the_run(self):
        responses, staged, router = _burst(
            _put(b"a", b"1") + b"delete a\r\n" + _put(b"d", b"4"))
        assert responses == [b"STORED\r\n", b"DELETED\r\n", b"STORED\r\n"]
        assert staged == []
        assert router.servers[0].get(b"a") is None

    def test_stats_fence_splits_the_run(self):
        responses, staged, _ = _burst(
            _put(b"a", b"1") + b"stats\r\n" + _put(b"d", b"4"))
        assert b"STAT sets 1\r\n" in responses[1]
        assert staged == []

    def test_hopped_incr_then_set_keeps_per_key_order(self):
        responses, staged, router = _burst(
            _put(b"a", b"1") + b"incr k 5\r\n" + _put(b"k", b"100")
            + b"get k\r\n", preload=_put(b"k", b"10"))
        assert responses == [b"STORED\r\n", b"15\r\n", b"STORED\r\n",
                             b"VALUE k 0 3\r\n100\r\nEND\r\n"]
        assert staged == [2]  # {a, k}: the incr hopped, the get split
        assert router.servers[0].get(b"k") == b"100"

    def test_ttl_run_is_one_group_commit_with_per_set_deadlines(self):
        keys = [b"t%d" % i for i in range(6)]
        raw = b"".join(b"set %s 0 %d 1\r\nx\r\n" % (key, 3 + i)
                       for i, key in enumerate(keys))
        responses, staged, router = _burst(raw, backend=ManagedMemcached)
        assert responses == [b"STORED\r\n"] * len(keys)
        assert staged == [len(keys)]
        assert router.metrics.commit_batches == 1
        reference = ManagedMemcached(Machine())
        handler = ProtocolHandler(reference)
        for frame in FrameDecoder().feed(raw):
            handler.handle(frame.raw)

        def expiry_ticks(server):
            ticks = {}
            while len(ticks) < len(keys):
                for key in keys:
                    if key not in ticks and server.get(key) is None:
                        ticks[key] = server.clock
            return ticks
        ticks = expiry_ticks(router.servers[0])
        assert ticks == expiry_ticks(reference)
        assert len(set(ticks.values())) == len(keys)
