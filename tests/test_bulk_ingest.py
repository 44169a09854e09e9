"""Bulk ingest: write_words_bulk edges, put_many, the bulk commit mode.

One batch, one bottom-up rebuild, one root swap — and exactly the same
canonical structure N sequential updates would have produced. The tests
here pin the equivalence at every layer: raw DAG bulk writes, HMap /
ShardedHMap ``put_many``, and the router's group commit.
"""

import asyncio

from repro import Machine
from repro.memory.line import Inline, PlidRef
from repro.net.framing import FrameDecoder
from repro.net.router import ConnectionState, ShardRouter
from repro.segments import dag
from repro.structures.hmap import HMap
from repro.structures.hmap_sharded import ShardedHMap
from repro.testing.auditors import audit_machine
from tests.conftest import small_config


class TestWriteWordsBulkEdges:
    def test_sparse_bulk_equals_fresh_build(self, mem):
        height = 3
        cap = dag.entry_capacity(mem, height)
        updates = {0: 11, 1: 12, 17: 13, cap // 2: 14, cap - 1: 15}
        root = dag.write_words_bulk(mem, 0, height, updates)
        words = [0] * cap
        for index, value in updates.items():
            words[index] = value
        fresh = dag.build_entry(mem, words, height)
        assert dag.entry_key(root) == dag.entry_key(fresh)
        dag.release_entry(mem, root)
        dag.release_entry(mem, fresh)

    def test_inline_to_plidref_promotion_and_back(self, mem):
        height = 2
        # a single word at height 2 compacts to an inline (pathless) root
        sparse = dag.write_words_bulk(mem, 0, height, {0: 7})
        assert not isinstance(sparse, PlidRef) or sparse.path
        # bulk-fill full-width words (too wide to inline-compact) across
        # the whole capacity, so every child is real (no path compaction)
        big = 1 << 60
        fill = {i: big + i
                for i in range(1, dag.entry_capacity(mem, height))}
        dense = dag.write_words_bulk(mem, sparse, height, fill)
        assert isinstance(dense, PlidRef) and not dense.path
        # bulk-zero everything back across the demotion boundary: the
        # canonical form must be identical to the original sparse entry
        again = dag.write_words_bulk(mem, dense, height,
                                     {i: 0 for i in fill})
        expect = dag.write_words_bulk(mem, 0, height, {0: 7})
        assert dag.entry_key(again) == dag.entry_key(expect)
        dag.release_entry(mem, again)
        dag.release_entry(mem, expect)

    def test_updates_at_trimmed_tail(self, mem):
        height = 2
        cap = dag.entry_capacity(mem, height)
        root = dag.write_words_bulk(mem, 0, height, {0: 1, 1: 2, 2: 3})
        # write into the all-zero (trimmed) tail region, then read back
        root = dag.write_words_bulk(mem, root, height,
                                    {cap - 1: 9, cap - 2: 8})
        got = dag.gather_words(mem, root, height, 0, cap)
        assert got[:3] == [1, 2, 3]
        assert got[cap - 2:] == [8, 9]
        assert all(w == 0 for w in got[3:cap - 2])
        # zeroing the tail again restores the exact original entry
        trimmed = dag.write_words_bulk(mem, root, height,
                                       {cap - 1: 0, cap - 2: 0})
        expect = dag.write_words_bulk(mem, 0, height, {0: 1, 1: 2, 2: 3})
        assert dag.entry_key(trimmed) == dag.entry_key(expect)
        dag.release_entry(mem, trimmed)
        dag.release_entry(mem, expect)


ITEMS = [(b"key-%03d" % i, b"value-%03d-" % i * 3) for i in range(24)]


class TestHMapPutMany:
    def test_put_many_equals_sequential_puts(self):
        seq_machine, bulk_machine = (Machine(small_config())
                                     for _ in range(2))
        seq = HMap.create(seq_machine)
        for key, value in ITEMS:
            seq.put(key, value)
        bulk = HMap.create(bulk_machine)
        flags = bulk.put_many(ITEMS)
        assert flags == [True] * len(ITEMS)
        assert len(bulk) == len(seq) == len(ITEMS)
        # same canonical map content, machine-independently
        assert dag.segment_fingerprint(bulk_machine, bulk.vsid) \
            == dag.segment_fingerprint(seq_machine, seq.vsid)
        for key, value in ITEMS:
            assert bulk.get(key) == value
        assert audit_machine(bulk_machine).ok

    def test_was_new_flags_and_updates(self, machine):
        kvp = HMap.create(machine)
        kvp.put(b"key-000", b"old")
        flags = kvp.put_many(ITEMS[:4])
        assert flags == [False, True, True, True]
        assert kvp.get(b"key-000") == ITEMS[0][1]  # updated in the batch

    def test_duplicate_key_within_batch(self, machine):
        kvp = HMap.create(machine)
        flags = kvp.put_many([(b"dup", b"first"), (b"other", b"x"),
                              (b"dup", b"second")])
        # counted as new once; the later stage sees the earlier transient
        assert flags == [True, True, False]
        assert kvp.get(b"dup") == b"second"  # last write wins
        assert len(kvp) == 2

    def test_empty_batch(self, machine):
        kvp = HMap.create(machine)
        assert kvp.put_many([]) == []
        assert len(kvp) == 0


class TestShardedPutMany:
    def test_put_many_scatters_and_reads_back(self, machine):
        smap = ShardedHMap.create(machine, shard_bits=2)
        flags = smap.put_many(ITEMS)
        assert flags == [True] * len(ITEMS)
        assert len(smap) == len(ITEMS)
        for key, value in ITEMS:
            assert smap.get(key) == value
        # routing stayed consistent: every key's shard owns it
        for key, _ in ITEMS:
            assert smap.shard_for(key).contains(key)
        # a second batch over the same keys updates, order preserved
        flags = smap.put_many([(k, v + b"!") for k, v in ITEMS])
        assert flags == [False] * len(ITEMS)
        assert smap.get(ITEMS[7][0]) == ITEMS[7][1] + b"!"
        assert audit_machine(machine).ok


def _run_session(router: ShardRouter, raw: bytes):
    async def go():
        await router.start()
        conn = ConnectionState()
        awaitables = [await router.dispatch(frame, conn)
                      for frame in FrameDecoder().feed(raw)]
        responses = [await a for a in awaitables]
        await router.stop()
        return responses

    return asyncio.run(go())


class TestRouterBulkCommit:
    RAW = b"".join(b"set bk%02d 0 0 5\r\nval%02d\r\n" % (i, i)
                   for i in range(8))

    def test_run_of_sets_stores_without_a_lost_cas(self):
        router = ShardRouter(shard_count=1, batch_limit=16)
        responses = _run_session(router, self.RAW)
        assert responses == [b"STORED\r\n"] * 8
        assert router.servers[0].item_count() == 8
        assert router.servers[0].stats.sets == 8
        # a coalesced batch is one commit: nothing lost a CAS
        assert router.machine.segmap.cas_failures == 0
        assert audit_machine(router.machine).ok
