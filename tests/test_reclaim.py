"""The one free path: placement, queue, drain, quiesce, resurrection
and the capacity contract (DedupStore's reclamation queue and
DedupStore.hold_reclaim)."""

import dataclasses
import hashlib
import random
from collections import deque

import pytest

from repro.apps.memcached.server import HicampMemcached
from repro.core.machine import Machine
from repro.errors import BadPlidError, MemoryExhaustedError
from repro.memory.dedup_store import DedupStore, StoreCounters
from repro.memory.stats import DramStats, RowBuffer
from repro.params import MachineConfig, MemoryConfig, WORD_MASK
from repro.structures import HMap


def small_store(held=False, num_buckets=256, data_ways=4,
                overflow=1024):
    store = DedupStore(MemoryConfig(num_buckets=num_buckets,
                                    data_ways=data_ways,
                                    overflow_lines=overflow))
    if held:
        store.hold_reclaim()
    return store


def held_machine(**mem_kwargs):
    machine = Machine(MachineConfig(memory=MemoryConfig(**mem_kwargs)))
    machine.mem.store.hold_reclaim()
    return machine


def _segment_words(tag, count):
    """Unique leaf words (no dedup against other segments)."""
    return [((tag << 32) | (i + 1)) & WORD_MASK for i in range(count)]


# ----------------------------------------------------------------------
# slot allocation: lowest free way, LIFO overflow reuse


def _placement_churn():
    """Seeded allocate/free churn on 4 buckets x 2 ways and a 4-entry
    RC cache: hundreds of spills, returns to the signature compare and
    overflow-slot reuses. Returns every PLID the lookups handed out,
    and the store."""
    store = DedupStore(MemoryConfig(num_buckets=4, data_ways=2,
                                    overflow_lines=1 << 12))
    store._rc_cache._capacity = 4
    store.hold_reclaim()
    rng = random.Random(27)
    live, plids = [], []
    for step in range(4000):
        if live and (len(live) > 16 or rng.random() < 0.5):
            store.decref(live.pop(rng.randrange(len(live))))
        else:
            i = rng.randrange(1000)
            plid = store.lookup((i + 1, (i * 2654435761) & WORD_MASK))[0]
            live.append(plid)
            plids.append(plid)
        if step % 16 == 0:
            store.reclaim_advance(8)
    return plids, store


class TestSlotAllocator:
    # one bucket: a way's PLID is its way number

    def test_claims_lowest_free_way(self):
        store = small_store(num_buckets=1, data_ways=4)
        plids = [store.lookup((i + 1, 7))[0] for i in range(4)]
        assert plids == [1, 2, 3, 4]
        store.decref(plids[1])
        store.decref(plids[3])  # ways 2 and 4 free
        assert store.lookup((10, 7))[0] == 2
        assert store.lookup((11, 7))[0] == 4
        assert store.lookup((12, 7))[0] >= store._overflow_base  # full

    def test_release_reopens_way_and_keeps_lowest_first(self):
        store = small_store(num_buckets=1, data_ways=4)
        plids = [store.lookup((i + 1, 7))[0] for i in range(4)]
        store.decref(plids[2])
        store.decref(plids[0])
        # lowest-numbered freed way wins, whatever the order freed
        assert store.lookup((10, 7))[0] == 1
        assert store.lookup((11, 7))[0] == 3

    def test_churn_places_and_charges_as_recorded(self):
        # the PLID sequence and free list were recorded from the
        # per-bucket-object store this flat layout replaced, and held
        # through the cuckoo index's retirement: placement never
        # depended on how a lookup finds content
        plids, store = _placement_churn()
        assert len(plids) == 2008
        digest = hashlib.sha256(repr(plids).encode()).hexdigest()
        assert digest[:16] == "df537c1ff363184a"
        assert store.free_overflow == [22, 15]
        # the charges are the fingerprint compare's: a spilled bucket's
        # fingerprints are read with its signature line, and the RC
        # cache keeps its 4 entries
        assert store.stats == DramStats(lookups=4051, dealloc=1974,
                                        refcount=1316)
        assert store.rows == RowBuffer(last_row=4, hits=2481,
                                       misses=4860)
        # signature_false_positives counts Figure-2 signature
        # collisions only; false_positive_scans adds the fingerprint ones
        assert store.counters == StoreCounters(
            lookups=2008, lookup_hits=17, allocations=1991,
            deallocations=1974, overflow_allocations=819,
            signature_false_positives=20, false_positive_scans=35)

    def test_overflow_lifo_reuse(self):
        # one bucket of one way: every line after the first spills
        store = small_store(num_buckets=1, data_ways=1)
        base = store._overflow_base
        plids = [store.lookup((i + 1, 7))[0] for i in range(4)]
        assert plids == [1, base, base + 1, base + 2]  # empty list: grow
        store.decref(plids[1])
        store.decref(plids[2])
        assert store.free_overflow == [base, base + 1]
        # LIFO: the most recently freed slot first
        assert store.lookup((10, 7))[0] == base + 1
        assert store.lookup((11, 7))[0] == base
        assert store.free_overflow == []
        assert store.lookup((12, 7))[0] == base + 3
        assert store.reclaim_stats.overflow_reused == 2

    def test_free_slots_accounting(self):
        # free ways are zero signature bytes, in every bucket
        store = small_store(num_buckets=1, data_ways=2, overflow=8)
        assert store.free_slots() == 2
        plids = [store.lookup((i + 1, 7))[0] for i in range(3)]
        assert store.free_slots() == 0  # two ways, one overflow line
        for plid in plids:
            store.decref(plid)
        snap = store.reclaim_snapshot()
        assert snap["free_slots"] == store.free_slots() == 3
        assert snap["allocator"] == {"free_ways": 2, "free_overflow": 1,
                                     "overflow_reused": 0}


# ----------------------------------------------------------------------
# unheld store: the paper's immediate free, through the same queue


class TestImmediateKind:
    def test_queue_empty_after_every_outermost_decref(self):
        machine = Machine()
        store = machine.mem.store
        baseline = machine.footprint_lines()
        plid, _ = store.lookup((1, 2))
        store.decref(plid)
        assert store.pending_lines() == 0
        assert store.footprint_lines() == baseline
        for tag in range(1, 4):
            vsid = machine.create_segment(_segment_words(tag, 300))
            assert store.pending_lines() == 0
            machine.drop_segment(vsid)
            # the whole subtree went through the queue and is gone
            assert store.pending_lines() == 0
            assert machine.footprint_lines() == baseline
        stats = store.reclaim_stats
        assert stats.drained_freed == store.counters.deallocations > 3 * 150
        assert stats.deferred_total == stats.drained_freed

    def test_advance_and_quiesce_are_noops(self):
        store = small_store()
        plid, _ = store.lookup((1, 2))
        store.decref(plid)
        assert store.reclaim_advance(16) == 0
        assert store.reclaim_quiesce() == 0

    def test_snapshot_schema_matches_epoch_kind(self):
        unheld = small_store().reclaim_snapshot()
        held = small_store(held=True).reclaim_snapshot()
        # stats-json consumers never see a hold-dependent schema
        assert set(unheld) == set(held)
        assert set(unheld["allocator"]) == set(held["allocator"])


# ----------------------------------------------------------------------
# held store: O(1) defer, resurrection, stale entries, underflow


class TestEpochDefer:
    def test_release_to_zero_defers_instead_of_freeing(self):
        store = small_store(held=True)
        plid, _ = store.lookup((1, 2))
        store.decref(plid)
        assert store.refcount(plid) == 0
        assert plid in store._lines  # resident, resurrectable
        assert store.pending_lines() == 1
        assert store.counters.deallocations == 0
        assert store.footprint_lines() == 1  # not reclaimed yet

    def test_content_lookup_resurrects_deferred_line(self):
        store = small_store(held=True)
        plid, _ = store.lookup((1, 2))
        store.decref(plid)
        again, created = store.lookup((1, 2))
        assert again == plid and not created  # same physical line
        assert store.refcount(plid) == 1
        # the queue entry is now moot: drain must skip it
        assert store.reclaim_quiesce() == 0
        assert store.reclaim_stats.drained_resurrected == 1
        assert plid in store._lines

    def test_stale_queue_entry_after_refree(self):
        store = small_store(held=True)
        plid, _ = store.lookup((1, 2))
        store.decref(plid)          # entry 1
        store.lookup((1, 2))        # resurrect
        store.decref(plid)          # entry 2, same plid
        assert store.pending_lines() == 2
        store.reclaim_quiesce()
        stats = store.reclaim_stats
        assert stats.drained_freed == 1
        assert stats.drained_stale == 1  # second entry found the line gone
        assert plid not in store._lines

    def test_decref_of_deferred_line_underflows(self):
        store = small_store(held=True)
        plid, _ = store.lookup((1, 2))
        store.decref(plid)
        with pytest.raises(BadPlidError):
            store.decref(plid)

    def test_epoch_counter_advances(self):
        store = small_store(held=True)
        before = store.reclaim_snapshot()["epoch"]
        store.reclaim_advance(8)
        store.reclaim_advance(8)
        assert store.reclaim_snapshot()["epoch"] == before + 2
        assert store.reclaim_stats.epochs_advanced == before + 2


class TestEpochDrain:
    def test_big_root_drop_is_one_deferral(self):
        machine = held_machine()
        store = machine.mem.store
        vsid = machine.create_segment(_segment_words(1, 512))
        deallocs_before = store.counters.deallocations
        machine.drop_segment(vsid)
        # O(1) hot path: one queue entry, zero lines walked or freed
        assert store.pending_lines() == 1
        assert store.counters.deallocations == deallocs_before

    def test_bounded_drain_progresses_incrementally(self):
        machine = held_machine()
        store = machine.mem.store
        baseline = machine.footprint_lines()
        vsid = machine.create_segment(_segment_words(1, 512))
        machine.drop_segment(vsid)
        freed_first = store.reclaim_advance(10)
        assert freed_first <= 10
        # interior children re-defer as the walk descends: still pending
        assert store.pending_lines() > 0
        rounds = 0
        while store.pending_lines():
            assert store.reclaim_advance(10) > 0, "drain stalled"
            rounds += 1
            assert rounds < 1000
        assert rounds > 2  # genuinely incremental, not one big walk
        assert machine.footprint_lines() == baseline

    def test_quiesce_restores_baseline_footprint(self):
        machine = held_machine()
        store = machine.mem.store
        baseline = machine.footprint_lines()
        for tag in range(1, 4):
            vsid = machine.create_segment(_segment_words(tag, 256))
            machine.drop_segment(vsid)
        assert store.pending_lines() == 3
        freed = store.reclaim_quiesce()
        assert freed > 3  # whole subtrees, not just the roots
        assert store.pending_lines() == 0
        assert machine.footprint_lines() == baseline

    def test_dealloc_listeners_fire_at_drain_not_release(self):
        machine = held_machine()
        store = machine.mem.store
        vsid = machine.create_segment(_segment_words(1, 64))
        seen = []
        store.dealloc_listeners.append(seen.append)
        machine.drop_segment(vsid)
        assert seen == []  # release-to-zero is silent
        freed = store.reclaim_quiesce()
        assert len(seen) == freed  # every actual free announced

    def test_memory_system_drain_quiesces(self):
        machine = held_machine()
        store = machine.mem.store
        vsid = machine.create_segment(_segment_words(1, 128))
        machine.drop_segment(vsid)
        assert store.pending_lines() == 1
        machine.drain()
        assert store.pending_lines() == 0

    def test_plid_space_stays_bounded_under_churn(self):
        # a tiny bucket array keeps about half of a 16-line live window
        # in overflow; without the free list every churn round would
        # grow _next_overflow forever
        store = small_store(held=True, num_buckets=4,
                            data_ways=2, overflow=1 << 16)
        live = deque()

        def churn(first, last):
            for i in range(first, last):
                line = (i + 1, (i * 2654435761) & WORD_MASK)
                live.append(store.lookup(line)[0])
                if len(live) > 16:
                    store.decref(live.popleft())
                if i % 8 == 7:
                    store.reclaim_advance(64)

        churn(0, 64)
        store.reclaim_quiesce()
        high_water = store._next_overflow
        churn(64, 256)
        # dozens of these allocations land in overflow; without the
        # free list the space would grow by that much. A couple slots
        # of slack covers peak-occupancy jitter between drain points.
        assert store._next_overflow - high_water <= 2
        assert store.reclaim_stats.overflow_reused > 50


# ----------------------------------------------------------------------
# capacity contract: dead lines never cost capacity


def sets_until_exhausted(held):
    """The probe: 64 B random values into 64 buckets x 4 ways + 256
    overflow lines, counting sets until the store refuses one."""
    machine = Machine(MachineConfig(memory=MemoryConfig(
        num_buckets=64, data_ways=4, overflow_lines=256)))
    if held:
        machine.mem.store.hold_reclaim()
    server = HicampMemcached(machine)
    rng = random.Random(0)
    sets = 0
    with pytest.raises(MemoryExhaustedError):
        while True:
            server.set(b"k%d" % sets, rng.randbytes(64))
            sets += 1
    return sets, machine.mem.store.reclaim_stats


class TestCapacity:
    def test_held_store_takes_as_many_sets_as_an_unheld_one(self):
        unheld, unheld_stats = sets_until_exhausted(held=False)
        # never advanced: only full buckets drain the held store
        held, stats = sets_until_exhausted(held=True)
        assert held == unheld == 56
        assert stats.pressure_drains > 0
        assert stats.epochs_advanced == 0
        # an unheld store's queue is empty whenever a bucket fills
        assert unheld_stats.pressure_drains == 0


# ----------------------------------------------------------------------
# config


class TestConfig:
    def test_memory_config_has_six_fields(self):
        assert [f.name for f in dataclasses.fields(MemoryConfig)] == [
            "line_bytes", "num_buckets", "data_ways", "overflow_lines",
            "plid_bytes", "verify_reads"]

    def test_router_serving_stack_defaults_to_epoch(self):
        from repro.net.router import ShardRouter
        router = ShardRouter(shard_count=2)
        store = router.machine.mem.store
        assert store.reclaim_holds == 1
        plid, _ = store.lookup((1, 2))
        store.decref(plid)
        assert store.pending_lines() == 1  # the workers drain it

    def test_hmap_workload_quiesces_clean(self):
        machine = held_machine()
        kvp = HMap.create(machine)
        for i in range(64):
            kvp.put(b"k%02d" % (i % 8), b"v%04d" % i)
        machine.drain()
        assert machine.mem.store.pending_lines() == 0
        from repro.testing.auditors import audit_machine
        assert audit_machine(machine, strict=True).ok
