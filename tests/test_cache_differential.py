"""The content-indexed cache against the cache that scans a set.

``tests/reference_cache.py`` is the HICAMP cache as it stood when a
content lookup encoded the line, hashed it to a set and compared every
way. Seeded streams of ``read`` / ``lookup`` / ``incref`` / ``decref``
(to deallocation) / ``flush`` run through it and through
:class:`repro.memory.cache.HicampCache` on twin stores, and after every
operation both must have returned the same value and hold the same
traffic counters, ``DramStats``, row-buffer state, store counters and
per-set resident lines *in LRU order* — on caches small enough (8 lines,
2 ways) that every set evicts, and on a store small enough that lines
land in the overflow area and buckets are resolved by fingerprint.
"""

import dataclasses
import random

import pytest

from repro.errors import BadPlidError
from repro.memory.cache import HicampCache
from repro.memory.dedup_store import DedupStore
from repro.memory.line import pack_for, ref
from repro.params import CacheGeometry, MemoryConfig
from tests import reference_cache
from tests.dedup_model import SPILLED
from tests.test_cache import assert_residency

#: every line finds a way in its own bucket
ROOMY = MemoryConfig(num_buckets=256, data_ways=8, overflow_lines=256)
STORES = {"roomy": ROOMY, "spilled": SPILLED}
OPS = 600


class Twins:
    """The production cache and the reference, driven in lockstep."""

    def __init__(self, memory: MemoryConfig, seed: int,
                 held: bool = False) -> None:
        geometry = CacheGeometry(size_bytes=8 * memory.line_bytes, ways=2,
                                 line_bytes=memory.line_bytes)
        self.caches = [cls(DedupStore(memory), geometry)
                       for cls in (HicampCache, reference_cache.HicampCache)]
        if held:
            for cache in self.caches:
                cache.store.hold_reclaim()
        self.memory = memory
        self.rng = random.Random(seed)
        self.held = {}  # PLID -> references this script owns
        self.freed = []  # PLIDs seen deallocated (may since be reused)

    def both(self, op):
        """Apply ``op(cache)`` to each twin; equal outcomes, equal state."""
        outcomes = []
        for cache in self.caches:
            try:
                outcomes.append(op(cache))
            except BadPlidError as exc:
                outcomes.append(("BadPlidError", str(exc)))
        assert outcomes[0] == outcomes[1]
        self.check()
        return outcomes[0]

    def check(self) -> None:
        prod, ref = self.caches
        assert prod.traffic == ref.traffic
        assert prod.store.stats == ref.store.stats
        assert prod.store.rows == ref.store.rows
        assert prod.store.counters == ref.store.counters
        assert prod.store._refcounts == ref.store._refcounts
        # a production set holds PLIDs in LRU order, and their content
        # is the store's: the oracle's (PLID, cached line) pairs
        assert [[(plid, prod.store.peek(plid)) for plid in ways]
                for ways in prod._sets] \
            == [list(ways.items()) for ways in ref._sets]
        assert prod.resident_lines() == ref.resident_lines()
        assert_residency(prod)

    # -- the script ----------------------------------------------------

    def leaf(self):
        words = [0] * self.memory.words_per_line
        words[0] = self.rng.randrange(1, 28)
        words[-1] = self.rng.choice((0, 0, 7))
        if self.rng.random() < 0.1:
            # a pack, or an int above the data range that encodes like it
            # (a value bit past its count) and compares unequal to it
            words[0] = pack_for((words[0],)) | self.rng.choice((0, 1 << 40))
        return tuple(words)

    def interior(self):
        entries = [0] * self.memory.fanout
        for plid in self.rng.sample(sorted(self.held),
                                    min(len(self.held), 2)):
            path = self.rng.choice(((), (), (1,)))
            entries[self.rng.randrange(len(entries))] = ref(plid, path)
        return tuple(entries)

    def lookup(self) -> None:
        line = self.interior() if self.held and self.rng.random() < 0.3 \
            else self.leaf()
        plid = self.both(lambda cache: cache.lookup(line))
        if plid:
            self.held[plid] = self.held.get(plid, 0) + 1

    def read(self) -> None:
        live = self.caches[0].store.live_plids()
        if live:
            plid = self.rng.choice(live)
            self.both(lambda cache: cache.read(plid))

    def read_freed(self) -> None:
        if self.freed:
            plid = self.rng.choice(self.freed)
            self.both(lambda cache: cache.read(plid))

    def incref(self) -> None:
        if self.held:
            plid = self.rng.choice(sorted(self.held))
            self.both(lambda cache: cache.store.incref(plid))
            self.held[plid] += 1

    def decref(self) -> None:
        if self.held:
            plid = self.rng.choice(sorted(self.held))
            self.both(lambda cache: cache.store.decref(plid))
            self.held[plid] -= 1
            if not self.held[plid]:
                del self.held[plid]
                self.freed.append(plid)

    def flush(self) -> None:
        self.both(lambda cache: cache.flush())

    def advance(self) -> None:
        budget = self.rng.choice((1, 4, None))
        self.both(lambda cache: cache.store.reclaim_advance(budget))

    def run(self, ops: int) -> None:
        script = ([self.lookup] * 9 + [self.read] * 5 + [self.decref] * 3
                  + [self.incref, self.read_freed, self.advance])
        for step in range(ops):
            self.rng.choice(script)()
            if step % 97 == 96:
                self.flush()

    def release_all(self) -> None:
        for plid, count in sorted(self.held.items()):
            self.both(lambda cache: cache.store.decref(plid, count))
        self.held.clear()
        self.both(lambda cache: cache.store.reclaim_quiesce())
        self.flush()


@pytest.mark.parametrize("seed", [3, 1905])
@pytest.mark.parametrize("held", [False, True], ids=["immediate", "epoch"])
@pytest.mark.parametrize("line_bytes", [16, 32, 64])
@pytest.mark.parametrize("store", sorted(STORES))
def test_content_index_matches_the_way_scan(store, line_bytes, held, seed):
    memory = dataclasses.replace(STORES[store], line_bytes=line_bytes)
    twins = Twins(memory, seed, held)
    twins.run(OPS)
    prod = twins.caches[0]
    # the stream did what the case is for
    assert prod.traffic.evictions > 0
    assert prod.traffic.lookup_hits > 0 and prod.traffic.hits > 0
    assert prod.store.counters.deallocations > 0
    if store == "spilled":
        assert prod.store.counters.overflow_allocations > 0
        assert prod.store.indexed_buckets() > 0
    else:
        assert prod.store.counters.overflow_allocations == 0
    twins.release_all()
    for cache in twins.caches:
        assert cache.store.footprint_lines() == 0
        assert cache.resident_lines() == 0


def test_overflow_plid_is_read_and_found_in_its_buckets_set():
    """An overflow-area PLID carries no bucket bits: the set comes from
    the store's overflow map, on ``read`` and on ``lookup`` alike."""
    twins = Twins(SPILLED, seed=0)
    lines = [(value, 0) for value in range(1, 40)]
    plids = [twins.both(lambda cache: cache.lookup(line)) for line in lines]
    prod = twins.caches[0]
    spilled = [(plid, line) for plid, line in zip(plids, lines)
               if plid >= prod.store._overflow_base]
    assert spilled
    twins.flush()
    for plid, line in spilled:
        assert twins.both(lambda cache: cache.read(plid)) == line
        hits = prod.traffic.lookup_hits
        assert twins.both(lambda cache: cache.lookup(line)) == plid
        assert prod.traffic.lookup_hits == hits + 1


def test_a_corrupted_line_is_not_a_content_hit_for_its_new_bytes():
    """A line corrupted in DRAM and read back is resident under bytes
    that hash to another set. A lookup of those bytes searches that
    other set, so the way scan misses and allocates; the cache must not
    answer it from the resident tuple."""
    outcomes = []
    for cls in (HicampCache, reference_cache.HicampCache):
        store = DedupStore(ROOMY)
        cache = cls(store, CacheGeometry(size_bytes=64 * 16, ways=4,
                                         line_bytes=16))
        plid = cache.lookup((1, 2))
        store.corrupt_line_for_test(plid, (3, 4))
        cache.read(plid)
        found = cache.lookup((3, 4))
        assert found != plid
        outcomes.append((plid, found, store.stats, cache.traffic))
    assert outcomes[0] == outcomes[1]
