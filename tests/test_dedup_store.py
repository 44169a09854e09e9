"""Unit tests for the deduplicating content-addressable store."""

import gc
import random
import sys
import tracemalloc

import pytest

from repro import Machine
from repro.apps.memcached.server import HicampMemcached
from repro.errors import BadPlidError, MemoryExhaustedError
from repro.memory import cache as cache_module
from repro.memory.cache import HicampCache
from repro.memory.dedup_store import DedupStore
from repro.memory.line import ZERO_PLID, make_leaf, ref
from repro.params import MemoryConfig


def small_store(line_bytes=16, num_buckets=256, data_ways=4, overflow=1024):
    return DedupStore(MemoryConfig(line_bytes=line_bytes, num_buckets=num_buckets,
                                   data_ways=data_ways, overflow_lines=overflow))


class TestLookup:
    def test_dedup_same_content_same_plid(self):
        store = small_store()
        p1, created1 = store.lookup((1, 2))
        p2, created2 = store.lookup((1, 2))
        assert p1 == p2
        assert created1 and not created2

    def test_distinct_content_distinct_plid(self):
        store = small_store()
        p1, _ = store.lookup((1, 2))
        p2, _ = store.lookup((2, 1))
        assert p1 != p2

    def test_zero_line_is_zero_plid(self):
        store = small_store()
        plid, created = store.lookup((0, 0))
        assert plid == ZERO_PLID and not created
        assert store.footprint_lines() == 0

    def test_read_returns_content(self):
        store = small_store()
        plid, _ = store.lookup((7, 8))
        assert store.read_dram(plid) == (7, 8)

    def test_read_zero_plid(self):
        store = small_store()
        assert store.read_dram(ZERO_PLID) == (0, 0)

    def test_read_unallocated_raises(self):
        store = small_store()
        with pytest.raises(BadPlidError):
            store.read_dram(999999)

    def test_install_refuses_a_line_of_another_length(self):
        machine = Machine()
        for line in ((1, 2, 3), (1,), (1, 2, 3, 4, 5)):
            with pytest.raises(ValueError, match="%d-word line" % len(line)):
                machine.install_line(line)
        assert machine.mem.store.footprint_lines() == 0
        # a leaf (two words) and an interior line (fanout four) install
        leaf, created = machine.install_line((1, 2))
        assert created
        assert machine.install_line((ref(leaf), 0, 0, 0))[1]

    def test_plid_encodes_way_and_bucket(self):
        store = small_store()
        plid, _ = store.lookup((3, 4))
        assert plid % store.config.num_buckets == store.bucket_of(plid)
        assert 1 <= plid // store.config.num_buckets <= store.config.data_ways


class TestRefcounting:
    def test_create_sets_rc_one(self):
        store = small_store()
        plid, _ = store.lookup((1, 1))
        assert store.refcount(plid) == 1

    def test_matching_lookup_increments(self):
        store = small_store()
        plid, _ = store.lookup((1, 1))
        store.lookup((1, 1))
        assert store.refcount(plid) == 2

    def test_decref_to_zero_deallocates(self):
        store = small_store()
        plid, _ = store.lookup((1, 1))
        store.decref(plid)
        assert not store.is_allocated(plid)
        assert store.footprint_lines() == 0

    def test_way_reusable_after_dealloc(self):
        store = small_store()
        plid, _ = store.lookup((1, 1))
        store.decref(plid)
        plid2, created = store.lookup((9, 9))
        assert created
        assert store.is_allocated(plid2)

    def test_same_content_after_dealloc_gets_fresh_line(self):
        store = small_store()
        plid, _ = store.lookup((1, 1))
        store.decref(plid)
        plid2, created = store.lookup((1, 1))
        assert created

    def test_allocation_increfs_children(self):
        store = small_store()
        child, _ = store.lookup((5, 5))
        parent, _ = store.lookup((ref(child), 0))
        assert store.refcount(child) == 2  # caller + parent line

    def test_recursive_dealloc(self):
        store = small_store()
        child, _ = store.lookup((5, 5))
        parent, _ = store.lookup((ref(child), 0))
        store.decref(child)  # drop caller ref; parent still holds one
        assert store.is_allocated(child)
        store.decref(parent)
        assert not store.is_allocated(parent)
        assert not store.is_allocated(child)
        assert store.footprint_lines() == 0

    def test_deep_cascade_is_iterative(self):
        # A long chain must deallocate without hitting recursion limits.
        store = small_store(num_buckets=1024, data_ways=8, overflow=8192)
        plid, _ = store.lookup((1, 1))
        for i in range(3000):
            parent, _ = store.lookup((ref(plid), i))
            store.decref(plid)  # hand the child reference to the parent
            plid = parent
        store.decref(plid)
        assert store.footprint_lines() == 0

    def test_underflow_raises(self):
        store = small_store()
        plid, _ = store.lookup((1, 1))
        store.decref(plid)
        with pytest.raises(BadPlidError):
            store.decref(plid)

    def test_zero_plid_refs_are_noops(self):
        store = small_store()
        store.incref(ZERO_PLID)
        store.decref(ZERO_PLID)
        assert store.refcount(ZERO_PLID) == 0


class TestBucketsAndOverflow:
    def test_overflow_when_bucket_full(self):
        store = small_store(num_buckets=1, data_ways=2)
        plids = [store.lookup((i, 1))[0] for i in range(1, 6)]
        assert len(set(plids)) == 5
        assert store.counters.overflow_allocations >= 3
        for plid, i in zip(plids, range(1, 6)):
            assert store.read_dram(plid) == (i, 1)

    def test_overflow_lookup_finds_existing(self):
        store = small_store(num_buckets=1, data_ways=1)
        p1, _ = store.lookup((1, 1))
        p2, _ = store.lookup((2, 2))  # lands in overflow
        p2b, created = store.lookup((2, 2))
        assert p2 == p2b and not created

    def test_overflow_exhaustion(self):
        store = small_store(num_buckets=1, data_ways=1, overflow=4)
        store.lookup((1, 0))
        for i in range(2, 6):
            store.lookup((i, 0))
        with pytest.raises(MemoryExhaustedError):
            store.lookup((99, 0))

    def test_failed_allocations_leak_no_overflow_plid(self):
        """A refused allocation must not advance the overflow cursor:
        every retried set on a full store used to burn one PLID."""
        store = small_store(num_buckets=64, data_ways=4, overflow=256)
        stored = 0
        with pytest.raises(MemoryExhaustedError):
            while True:
                store.lookup((stored + 1, 7))
                stored += 1
        assert stored >= 256
        cursor = store._next_overflow
        assert cursor - store._overflow_base == 256
        for attempt in range(20):
            with pytest.raises(MemoryExhaustedError):
                store.lookup((stored + 1, 7))
            assert store._next_overflow == cursor
        # and the slot a deallocation frees is still the next one handed out
        victim = next(plid for plid in store.live_plids()
                      if plid >= store._overflow_base)
        store.decref(victim)
        plid, created = store.lookup((stored + 1, 7))
        assert created and plid == victim
        assert store._next_overflow == cursor

    def test_overflow_slot_reused_after_dealloc(self):
        store = small_store(num_buckets=1, data_ways=1, overflow=4)
        store.lookup((1, 0))
        p2, _ = store.lookup((2, 0))
        store.decref(p2)
        p3, created = store.lookup((3, 0))
        assert created and store.is_allocated(p3)


class TestDramAccounting:
    def test_lookup_charges_signature_and_alloc(self):
        store = small_store()
        store.lookup((1, 2))
        # signature read + signature write at minimum
        assert store.stats.lookups >= 2
        assert store.stats.reads == 0

    def test_hit_charges_data_read(self):
        store = small_store()
        store.lookup((1, 2))
        before = store.stats.lookups
        store.lookup((1, 2))
        after = store.stats.lookups
        assert after - before >= 2  # signature read + data line read

    def test_deferred_write_on_writeback(self):
        store = small_store()
        plid, _ = store.lookup((1, 2))
        assert store.stats.writes == 0
        store.writeback(plid)
        assert store.stats.writes == 1
        store.writeback(plid)  # idempotent
        assert store.stats.writes == 1

    def test_dealloc_before_writeback_never_writes(self):
        store = small_store()
        plid, _ = store.lookup((1, 2))
        store.decref(plid)
        store.writeback(plid)
        assert store.stats.writes == 0
        assert store.stats.dealloc >= 1

    def test_rc_cache_spills_charge_refcount_category(self):
        store = DedupStore(
            MemoryConfig(line_bytes=16, num_buckets=256, data_ways=4,
                         overflow_lines=1024))
        store._rc_cache._capacity = 2
        plids = [store.lookup((i, 0))[0] for i in range(1, 8)]
        for plid in plids:
            store.incref(plid)
        cache = store._rc_cache
        # every eviction writes back: 7 fills + 12 spills, then the two
        # resident entries at the flush
        assert (store.stats.refcount, cache.fills, cache.spills) == (19, 7, 12)
        store.flush_rc_cache()
        assert store.stats.refcount == 21


class TestInvariantChecker:
    def test_check_refcounts_passes_for_dag(self):
        store = small_store()
        a, _ = store.lookup((1, 0))
        b, _ = store.lookup((ref(a), 0))
        store.decref(a)
        store.check_refcounts()

    def test_check_refcounts_detects_drift(self):
        store = small_store()
        a, _ = store.lookup((1, 0))
        store.lookup((ref(a), 0))
        store._refcounts[a] = 0  # corrupt: below the parent's reference
        with pytest.raises(AssertionError):
            store.check_refcounts()


class TestHostFootprint:
    def test_fresh_lookups_create_no_tracked_objects(self):
        # a bucket is bytes in the store's row arrays, never an object
        # the cyclic collector has to walk
        store = DedupStore()
        gc.collect()
        before = len(gc.get_objects())
        for i in range(10_000):
            store.lookup((i + 1, i + 2))
        gc.collect()
        assert len(gc.get_objects()) - before < 100

    def test_a_resident_line_costs_the_cache_one_slot(self):
        # a set holds its resident PLIDs, least recently used first, and
        # a resident line's content is the store's line (a set that kept
        # PLID -> line in an OrderedDict cost 106 B a line); the store
        # records the deferred writes it has charged, so one that never
        # evicts keeps no write bookkeeping (a set of the writes it still
        # owed held every line, 42 B each)
        store = DedupStore()
        cache = HicampCache(store)
        lines = [(i + 1, i + 2) for i in range(50_000)]
        here = [tracemalloc.Filter(True, cache_module.__file__)]
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces(here)
            for line in lines:
                cache.lookup(line)
            after = tracemalloc.take_snapshot().filter_traces(here)
        finally:
            tracemalloc.stop()
        grown = sum(stat.size_diff
                    for stat in after.compare_to(before, "filename"))
        assert cache.resident_lines() == len(lines)
        assert cache.traffic.evictions == 0
        assert grown / len(lines) <= 24
        assert sys.getsizeof(store._written) == sys.getsizeof(set())

    def test_a_serving_machine_gives_the_collector_nothing_per_line(self):
        # a reference word is an int and the content index is keyed by
        # the line tuples themselves, so 2 000 fresh 256-byte sets leave
        # the collector almost nothing to walk per live line (1.49 when
        # a reference was an object: one per line, and every interior
        # tuple holding one stayed tracked)
        machine = Machine().configure_serving()
        server = HicampMemcached(machine)
        rng = random.Random(11)
        gc.collect()
        before = gc.get_objects()
        sets_before = sum(type(o) is set for o in before)
        for i in range(2000):
            server.set(b"key-%06d" % i, rng.randbytes(256))
        store = machine.mem.store
        store.reclaim_quiesce()
        gc.collect()
        after = gc.get_objects()
        added = len(after) - len(before)
        assert added / store.footprint_lines() <= 0.1
        # the memo's reverse map holds each root's payloads in a tuple of
        # bytes, which the collector untracks: no set per memoized root
        # (4 000 more when it held a set per root)
        assert machine.mem.memo.sizes()["segment"] >= 2000
        assert sum(type(o) is set for o in after) - sets_before < 20
        # every word is an int, so every line tuple is untracked once the
        # collector has seen it, and so are the two per-line dicts that
        # hold them (2 001 tracked lines kept both tracked while a pack
        # was an object: one per key, and the map's count line)
        assert [line for line in store._lines.values()
                if gc.is_tracked(line)] == []
        assert not gc.is_tracked(store._lines)
        assert not gc.is_tracked(store._plid_by_line)
