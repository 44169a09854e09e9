"""Unit tests for the HICAMP cache (read + lookup-by-content)."""

from repro.memory import hashing
from repro.memory.cache import HicampCache
from repro.memory.dedup_store import DedupStore
from repro.memory.line import encode_line
from repro.params import CacheGeometry, MemoryConfig


def make(cache_lines=64, ways=4, line_bytes=16):
    store = DedupStore(MemoryConfig(line_bytes=line_bytes, num_buckets=256,
                                    data_ways=8, overflow_lines=4096))
    geometry = CacheGeometry(size_bytes=cache_lines * line_bytes, ways=ways,
                             line_bytes=line_bytes)
    return store, HicampCache(store, geometry)


def assert_residency(cache):
    """What answering a content hit from the store's content map rests
    on: every resident line sits in the set of its *content's* hash
    bucket — which its PLID names — however it entered, and the store's
    map names that PLID for its content."""
    store = cache.store
    resident = set()
    for index, ways in enumerate(cache._sets):
        assert len(ways) <= cache.geometry.ways
        for plid, line in ways.items():
            enc = encode_line(line)
            bucket = hashing.bucket_hash(enc, store.config.num_buckets)
            assert store.bucket_of(plid) == bucket
            assert index == bucket % cache.geometry.num_sets
            assert store._plid_by_enc[enc] == plid
            assert line not in resident
            resident.add(line)


class TestRead:
    def test_miss_then_hit(self):
        store, cache = make()
        plid, _ = store.lookup((1, 2))
        reads_before = store.stats.reads
        assert cache.read(plid) == (1, 2)
        assert store.stats.reads == reads_before + 1
        assert cache.read(plid) == (1, 2)
        assert store.stats.reads == reads_before + 1  # served from cache
        assert cache.traffic.hits == 1 and cache.traffic.misses == 1

    def test_zero_plid_free(self):
        store, cache = make()
        assert cache.read(0) == (0, 0)
        assert store.stats.reads == 0


class TestLookup:
    def test_lookup_hit_avoids_dram(self):
        store, cache = make()
        p1 = cache.lookup((5, 6))
        dram_before = store.stats.total()
        p2 = cache.lookup((5, 6))
        assert p1 == p2
        assert store.stats.total() == dram_before  # pure cache hit
        assert cache.traffic.lookup_hits == 1

    def test_lookup_hit_still_counts_reference(self):
        store, cache = make()
        plid = cache.lookup((5, 6))
        cache.lookup((5, 6))
        assert store.refcount(plid) == 2

    def test_zero_content(self):
        store, cache = make()
        assert cache.lookup((0, 0)) == 0

    def test_same_bucket_single_set(self):
        # Every line of one hash bucket lands in one cache set, whether a
        # content lookup or a read by PLID brought it in.
        store, cache = make(cache_lines=16, ways=2)
        plids = [cache.lookup((i, 7)) for i in range(1, 30)]
        assert_residency(cache)
        cache.flush()
        assert_residency(cache)
        for plid in plids:
            cache.read(plid)
            assert_residency(cache)
        assert cache.traffic.evictions > 0
        for plid in plids[::2]:
            store.decref(plid)  # deallocates: the listener invalidates
            assert_residency(cache)
        assert cache.resident_lines() == sum(len(w) for w in cache._sets)


class TestEvictionAndWriteback:
    def test_eviction_charges_deferred_write(self):
        store, cache = make(cache_lines=8, ways=2)
        for i in range(1, 60):
            cache.lookup((i, 0))
        assert cache.traffic.evictions > 0
        assert store.stats.writes > 0

    def test_flush_writes_everything_once(self):
        store, cache = make()
        plids = [cache.lookup((i, 0)) for i in range(1, 10)]
        cache.flush()
        assert store.stats.writes == len(plids)
        cache.flush()
        assert store.stats.writes == len(plids)

    def test_invalidate_on_dealloc(self):
        store, cache = make()
        plid = cache.lookup((9, 9))
        assert cache.resident_lines() == 1
        store.decref(plid)
        assert cache.resident_lines() == 0
        # And the freed line was never written back to DRAM.
        assert store.stats.writes == 0
