"""Tests for the shard router: fan-out, landing, group commits."""

import asyncio
import json
import random

import pytest

from repro.net.framing import FrameDecoder
from repro.net.router import ConnectionState, ShardRouter
from repro.obs.trace import StepClock, TraceRecorder
from repro.replication.follower import FollowerRouter, ReplicationFollower


def frames_of(raw: bytes):
    return FrameDecoder().feed(raw)


def run_session(router: ShardRouter, raw: bytes):
    """Dispatch a pipelined byte stream as one connection; return responses."""

    async def go():
        await router.start()
        conn = ConnectionState()
        awaitables = [await router.dispatch(frame, conn)
                      for frame in frames_of(raw)]
        responses = [await a for a in awaitables]
        await router.stop()
        return responses

    return asyncio.run(go())


class TestRouting:
    def test_shard_index_stable_and_spread(self):
        router = ShardRouter(shard_count=4)
        keys = [b"key-%03d" % i for i in range(64)]
        first = [router.shard_index(k) for k in keys]
        assert first == [router.shard_index(k) for k in keys]
        assert len(set(first)) > 1

    @pytest.mark.parametrize("shards", range(1, 9))
    def test_leader_and_follower_pick_the_same_shard(self, shards):
        # a follower's front over the leader's own segments: a key set
        # on its leader shard alone is found through the follower's read
        # path only if the follower picks that shard too
        router = ShardRouter(shard_count=shards)
        streams = {shard: server.kvp.vsid
                   for shard, server in enumerate(router.servers)}
        front = FollowerRouter(ReplicationFollower(
            "127.0.0.1", 1, machine=router.machine, streams=streams),
            "127.0.0.1", 1)
        rng = random.Random(0)
        for _ in range(200):
            key = b"key-%d" % rng.getrandbits(32)
            router.servers[router.shard_index(key)].set(key, b"v")
            [frame] = frames_of(b"get %s\r\n" % key)
            assert front.answer(frame) \
                == b"VALUE %s 0 1\r\nv\r\nEND\r\n" % key

    def test_set_get_roundtrip_across_shards(self):
        router = ShardRouter(shard_count=4)
        raw = b"".join(b"set k%02d 0 0 4\r\nv%02d.\r\n" % (i, i)
                       for i in range(12))
        raw += b"".join(b"get k%02d\r\n" % i for i in range(12))
        responses = run_session(router, raw)
        assert responses[:12] == [b"STORED\r\n"] * 12
        for i, response in enumerate(responses[12:]):
            assert b"v%02d." % i in response
        # data really landed across different backends
        occupied = [s.item_count() for s in router.servers]
        assert sum(occupied) == 12 and sum(1 for n in occupied if n) > 1

    def test_pipelined_read_after_write_same_key(self):
        # set, get, set, get on one key in a single pipelined burst:
        # each read must observe exactly the preceding write
        router = ShardRouter(shard_count=2)
        raw = (b"set k 0 0 2\r\nv1\r\n" b"get k\r\n"
               b"set k 0 0 2\r\nv2\r\n" b"get k\r\n")
        responses = run_session(router, raw)
        assert b"v1" in responses[1] and b"v2" not in responses[1]
        assert b"v2" in responses[3]

    def test_multi_key_get_spans_shards(self):
        router = ShardRouter(shard_count=4)
        raw = (b"set a 0 0 1\r\n1\r\n" b"set b 0 0 1\r\n2\r\n"
               b"get a b missing\r\n")
        responses = run_session(router, raw)
        assert responses[2].count(b"VALUE") == 2
        assert responses[2].endswith(b"END\r\n")

    def test_batched_sets_group_commit_by_default(self):
        # distinct keys, same shard, landed together: one group commit
        # — one bulk_commit span under the batch span, one root CAS, no
        # manufactured lost CAS for merge-update to absorb
        rec = TraceRecorder(clock=StepClock())
        router = ShardRouter(shard_count=1, recorder=rec)
        segmap = router.machine.segmap
        attempts = segmap.cas_attempts
        raw = b"".join(b"set key%d 0 0 2\r\nv%d\r\n" % (i, i)
                       for i in range(8))
        writes = [(frame, None) for frame in frames_of(raw)]
        assert router.land(0, writes) == [b"STORED\r\n"] * 8
        assert segmap.cas_attempts - attempts == 1
        assert segmap.cas_failures == 0
        (batch,) = rec.find("commit_batch")
        (bulk,) = rec.find("bulk_commit")
        assert bulk.parent_id == batch.span_id
        assert bulk.attrs["staged"] == 8 and bulk.attrs["coalesced"] == 0
        assert rec.find("merge_update") == []
        assert router.servers[0].item_count() == 8
        assert router.servers[0].stats.sets == 8

    def test_flush_all_broadcasts(self):
        router = ShardRouter(shard_count=4)
        raw = b"".join(b"set k%02d 0 0 1\r\nx\r\n" % i for i in range(12))
        raw += b"flush_all\r\n" + b"get k00\r\n"
        responses = run_session(router, raw)
        assert responses[12] == b"OK\r\n"
        assert responses[13] == b"END\r\n"
        assert sum(s.item_count() for s in router.servers) == 0

    def test_error_frame_maps_to_client_error(self):
        router = ShardRouter(shard_count=1)
        responses = run_session(router, b"set k 0 0 zz\r\n")
        assert responses[0].startswith(b"CLIENT_ERROR")
        assert router.metrics.protocol_errors == 1

    def test_unknown_command_is_error(self):
        router = ShardRouter(shard_count=1)
        assert run_session(router, b"bogus\r\n") == [b"ERROR\r\n"]

    def test_version_and_stats(self):
        router = ShardRouter(shard_count=2)
        responses = run_session(
            router, b"set k 0 0 1\r\nv\r\nversion\r\nstats\r\n")
        assert responses[1].startswith(b"VERSION ")
        assert b"STAT curr_items 1" in responses[2]
        assert b"STAT shards 2" in responses[2]
        assert b"STAT commit_batches" in responses[2]
        assert b"STAT merge_commits" not in responses[2]

    def test_stats_json_snapshot(self):
        router = ShardRouter(shard_count=2)
        responses = run_session(router,
                                b"set k 0 0 1\r\nv\r\nstats json\r\n")
        body = responses[1].split(b"\r\n")[0]
        snapshot = json.loads(body)
        assert snapshot["shards"] == 2
        assert snapshot["server"]["curr_items"] == 1
        assert "commit_batches" in snapshot
        assert "adaptive" not in snapshot

    def test_drain_leaves_no_pending(self):
        # every dispatched write has landed when dispatch returns, and
        # drain() leaves no deferred free behind
        router = ShardRouter(shard_count=2)
        store = router.machine.mem.store

        async def go():
            await router.start()
            conn = ConnectionState()
            raw = b"".join(b"set k%d 0 0 1\r\nx\r\n" % i for i in range(10))
            replies = [await router.dispatch(frame, conn)
                       for frame in frames_of(raw)]
            assert all(f.done() for f in replies)
            await router.drain()
            assert store.reclaim_snapshot()["pending_lines"] == 0
            await router.stop()

        asyncio.run(go())

    def test_cas_through_router(self):
        router = ShardRouter(shard_count=2)
        responses = run_session(router,
                                b"set k 0 0 2\r\nv1\r\n" b"gets k\r\n")
        token = responses[1].split(b"\r\n")[0].split()[-1]
        responses = run_session(
            router, b"cas k 0 0 2 %s\r\nv2\r\n" % token + b"get k\r\n")
        assert responses[0] == b"STORED\r\n"
        assert b"v2" in responses[1]

