"""The bucket hand-over rule of the dedup store.

The store resolves lookup-by-content inside the hash bucket, charge for
charge the Figure-2 path, while the bucket has no overflow lines.
The allocation that first spills a bucket hands *all* its lines to the
:class:`CuckooIndex`; the deallocation that empties its overflow list
hands the remaining ones back. The indexed set is therefore a function
of the live lines, which is what these tests pin — with the audit
(``index_failures``) run after every operation."""

import random
import sys

import pytest

from repro.core.machine import Machine
from repro.core.persistence import machine_image, restore_machine
from repro.memory import hashing
from repro.memory.dedup_store import DedupStore, StoreCounters
from repro.memory.index import CuckooIndexStats
from repro.memory.line import encode_line, make_leaf
from repro.memory.stats import DramStats, RowBuffer
from repro.memory.system import MemorySystem
from repro.params import MachineConfig, MemoryConfig
from tests.dedup_model import ModelledStore
from tests.dedup_model import indexed_plids as _indexed

#: an unheld store frees at once; a held one (as a shard router holds
#: it) frees in epochs, when a drain runs
HELD = pytest.mark.parametrize("held", [False, True],
                               ids=["immediate", "epoch"])
SMALL = dict(num_buckets=4, data_ways=2, index_buckets=8)


def _store(held: bool, **geometry) -> DedupStore:
    store = DedupStore(MemoryConfig(**geometry))
    if held:
        store.hold_reclaim()
    return store


def _leaf(i: int):
    return make_leaf((i + 1, (i * 2654435761 + 7) & ((1 << 64) - 1)), 2)


def _leaves_in_bucket(bucket: int, count: int, num_buckets: int = 4):
    """The first ``count`` test leaves whose content hashes to ``bucket``."""
    found, i = [], 0
    while len(found) < count:
        line = _leaf(i)
        i += 1
        if hashing.bucket_hash(encode_line(line), num_buckets) == bucket:
            found.append(line)
    return found


def _release(store: DedupStore, plid: int) -> None:
    """Drop a reference and let deferred reclamation run."""
    store.decref(plid)
    store.reclaim_advance()


# ----------------------------------------------------------------------
# (a) default geometry: every charge is a Figure-2 charge

#: What the seeded script below charged on the overflow-chain store this
#: store replaced (recorded from its last commit, 2f10719): the
#: Figure-2 charge list, pinned by number.
FIGURE2_CHARGES = {
    False: (
        DramStats(lookups=6486, dealloc=2399),
        RowBuffer(last_row=30669, hits=3270, misses=5615),
        StoreCounters(lookups=3241, lookup_hits=429, allocations=2812,
                      deallocations=2399, signature_false_positives=4,
                      false_positive_scans=4)),
    True: (
        DramStats(lookups=6505, dealloc=1192),
        RowBuffer(last_row=41422, hits=3267, misses=4430),
        StoreCounters(lookups=3241, lookup_hits=1184, allocations=2057,
                      deallocations=1192, signature_false_positives=23,
                      false_positive_scans=23)),
}


@HELD
def test_default_geometry_is_charge_for_charge_legacy(held):
    store = _store(held)
    modelled = ModelledStore(store)
    rng = random.Random(2012)
    owned = []
    for step in range(6000):
        roll = rng.random()
        if roll < 0.55 or not owned:
            # small pool -> dedup hits and epoch resurrections
            plid, _created = modelled.lookup(_leaf(rng.randrange(1500)))
            owned.append(plid)
        else:
            modelled.decref(owned.pop(rng.randrange(len(owned))))
        if step % 40 == 0:
            modelled.advance(8)
    stats, rows, counters = FIGURE2_CHARGES[held]
    assert store.stats == stats
    assert store.rows == rows  # open row, hits and misses
    assert store.counters == counters
    assert store.counters.overflow_allocations == 0
    assert len(store.index) == 0
    assert store.index.stats == CuckooIndexStats()
    assert store.index_snapshot()["indexed_buckets"] == 0
    modelled.release_all(owned)


def _lookup_miss_calls(memory: MemoryConfig) -> int:
    """Python + C calls made by one ``mem.lookup`` miss (no clock)."""
    mem = MemorySystem(MachineConfig(memory=memory))
    for i in range(64):
        mem.lookup(_leaf(i))
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    line = _leaf(10_000)
    sys.setprofile(count)
    try:
        mem.lookup(line)
    finally:
        sys.setprofile(None)
    return calls


def test_serving_lookup_miss_call_ceiling():
    """Indexing every line again (a key hash, two index probes and a
    placement per miss: 92 calls against 55 before the hand-over rule,
    38 after) cannot return unnoticed."""
    assert _lookup_miss_calls(MemoryConfig()) <= 40


# ----------------------------------------------------------------------
# (b) a bucket enters the index whole and leaves it whole


@HELD
def test_bucket_enters_and_leaves_index_whole(held):
    store = _store(held, **SMALL)
    a = _leaves_in_bucket(0, 4)
    b = _leaves_in_bucket(1, 2)

    def lookup(line):
        result = store.lookup(line)
        assert store.index_failures() == []
        return result

    def release(plid):
        _release(store, plid)
        assert store.index_failures() == []

    a0, a1 = lookup(a[0])[0], lookup(a[1])[0]
    b0, b1 = lookup(b[0])[0], lookup(b[1])[0]
    assert _indexed(store) == set()  # both buckets full, none spilled
    assert store.index.stats.lookups == 0

    a2, created = lookup(a[2])  # first spill of bucket 0
    assert created and a2 >= store._overflow_base
    assert _indexed(store) == {a0, a1, a2}
    assert store.index.stats.inserts == 3
    assert store.index_snapshot()["indexed_buckets"] == 1

    # bucket 0 is now served by the index, bucket 1 still in place
    signature_reads = store.stats.lookups
    assert lookup(a[0]) == (a0, False)
    assert store.index.stats.hits == 1
    probes = store.index.stats.lookups
    assert lookup(b[0]) == (b0, False)
    assert store.index.stats.lookups == probes
    assert store.stats.lookups > signature_reads
    release(a0)
    release(b0)

    # a way freed under a spilled bucket: the bucket stays indexed and
    # the next allocation (into that way) is indexed on its own
    release(a0)
    assert _indexed(store) == {a1, a2}
    a3, created = lookup(a[3])
    assert created and a3 == a0  # lowest free way reused
    assert _indexed(store) == {a1, a2, a3}

    # freeing the last overflow line hands the bucket back
    store.decref(a2)
    if held:
        # deferred-dead: still resident, still indexed, resurrectable
        assert store.refcount(a2) == 0
        assert _indexed(store) == {a1, a2, a3}
        assert lookup(a[2]) == (a2, False)
        store.reclaim_advance()
        assert store.reclaimer.stats.drained_resurrected == 1
        assert _indexed(store) == {a1, a2, a3}
        store.decref(a2)
        store.reclaim_advance()
    assert store.index_failures() == []
    assert _indexed(store) == set()
    assert store.index_snapshot()["indexed_buckets"] == 0
    assert store.index.stats.removes == store.index.stats.inserts == 4

    # and the handed-back bucket is served in place again
    probes = store.index.stats.lookups
    assert lookup(a[1]) == (a1, False)
    assert store.index.stats.lookups == probes
    for plid in (a1, a1, a3, b0, b1):
        release(plid)
    assert store.footprint_lines() == 0


def test_bucket_enters_and_leaves_index_oldest_line_first():
    """The hand-over and the hand-back walk a bucket's lines in the
    order they were allocated, not in way order (index placement, and so
    its charges, depend on it), also once the row's 8-bit allocation
    clock has wrapped."""
    store = _store(False, num_buckets=1, data_ways=2)
    leaves = (_leaf(i) for i in range(1000))
    latest = store.lookup(next(leaves))[0]  # way 1
    kept = store.lookup(next(leaves))[0]  # way 2
    for _ in range(200):  # way 2 now holds the row's newest line ...
        store.decref(kept)
        kept = store.lookup(next(leaves))[0]
    for _ in range(60):  # ... until way 1 churns past the clock's wrap
        store.decref(latest)
        latest = store.lookup(next(leaves))[0]
    assert latest < kept
    calls = []
    index = store.index
    insert, remove = index.insert, index.remove
    index.insert = lambda key, plid: calls.append(("in", plid)) \
        or insert(key, plid)
    index.remove = lambda key, plid: calls.append(("out", plid)) \
        or remove(key, plid)
    spilled = store.lookup(next(leaves))[0]
    store.decref(spilled)
    assert calls == [("in", kept), ("in", latest), ("in", spilled),
                     ("out", spilled), ("out", kept), ("out", latest)]


# ----------------------------------------------------------------------
# (c) the worst case: one bucket flapping across the boundary


@HELD
def test_flapping_costs_at_most_one_bucket_per_flip(held):
    store = _store(held, **SMALL)
    ways = store.config.data_ways
    lines = _leaves_in_bucket(2, ways + 1)
    for line in lines[:ways]:
        store.lookup(line)
    stats = store.index.stats
    for _flip in range(10):
        inserts, removes = stats.inserts, stats.removes
        spilled, created = store.lookup(lines[ways])
        assert created and len(store.index) == ways + 1
        assert stats.inserts - inserts <= ways + 1
        assert stats.removes == removes
        inserts = stats.inserts
        _release(store, spilled)
        assert len(store.index) == 0
        assert stats.removes - removes <= ways + 1
        assert stats.inserts == inserts
        assert store.index_failures() == []


def test_pressure_drain_hands_a_bucket_back_before_it_spills():
    """A held store whose spilled bucket is full of dead lines drains
    them before it spills. The drain frees the last overflow line and
    so hands the bucket back, and the new line takes a freed way
    without entering the index."""
    store = _store(True, **SMALL)
    a = _leaves_in_bucket(0, 4)
    a0, a1 = store.lookup(a[0])[0], store.lookup(a[1])[0]
    a2 = store.lookup(a[2])[0]  # first spill
    assert _indexed(store) == {a0, a1, a2}
    store.decref(a2)
    store.decref(a0)
    assert store.reclaimer.pending() == 2  # dead, still indexed
    a3, created = store.lookup(a[3])
    assert created and a3 == a0  # a0's way, freed by the drain
    assert store.reclaimer.stats.pressure_drains == 1
    assert store.reclaimer.pending() == 0
    assert _indexed(store) == set()
    assert store.index_failures() == []


# ----------------------------------------------------------------------
# (d) the indexed set is reconstructible from an image


def test_restore_reindexes_exactly_the_spilled_buckets():
    machine = Machine(MachineConfig(memory=MemoryConfig(
        num_buckets=16, data_ways=2, index_buckets=8)))
    machine.create_segment([(i * 31 + 5) for i in range(200)])
    store = machine.mem.store
    indexed = _indexed(store)
    # a mixed store: some buckets spilled, some still served in place
    holding = {store.bucket_of(plid) for plid in store.live_plids()}
    assert 0 < store.index_snapshot()["indexed_buckets"] < len(holding)
    assert 0 < len(indexed) < store.footprint_lines()

    restored = restore_machine(machine_image(machine)).mem.store
    assert _indexed(restored) == indexed
    assert restored.index_snapshot()["indexed_buckets"] == \
        store.index_snapshot()["indexed_buckets"]
    assert restored.index_failures() == []
    restored.reindex()  # idempotent
    assert _indexed(restored) == indexed
