"""Unit tests for the conventional cache-hierarchy baseline."""

from repro.memory.conventional import Arena, CacheLevel, ConventionalMemory
from repro.params import CacheGeometry, ConventionalConfig
from tests.test_dedup_spill import _calls


def small_config(line_bytes=16):
    return ConventionalConfig(
        line_bytes=line_bytes,
        l1=CacheGeometry(size_bytes=1024, ways=2, line_bytes=line_bytes),
        l2=CacheGeometry(size_bytes=8192, ways=4, line_bytes=line_bytes),
    )


class TestCacheLevel:
    def test_hit_after_miss(self):
        level = CacheLevel(CacheGeometry(size_bytes=256, ways=2, line_bytes=16))
        missed, _ = level.access(0, False)
        assert missed
        missed, _ = level.access(0, False)
        assert not missed

    def test_lru_eviction(self):
        level = CacheLevel(CacheGeometry(size_bytes=64, ways=2, line_bytes=16))
        # two sets; lines 0, 32, 64 map to set 0 (line 16*2k)
        level.access(0, False)
        level.access(32, False)
        level.access(64, False)  # evicts line 0 (LRU)
        missed, _ = level.access(0, False)
        assert missed

    def test_dirty_writeback_address(self):
        level = CacheLevel(CacheGeometry(size_bytes=64, ways=2, line_bytes=16))
        level.access(0, True)
        level.access(32, False)
        _, wb = level.access(64, False)
        assert wb == 0  # the dirty victim's address

    def test_flush_reports_dirty(self):
        level = CacheLevel(CacheGeometry(size_bytes=64, ways=2, line_bytes=16))
        level.access(0, True)
        level.access(16, False)
        assert level.flush() == [0]


class TestConventionalMemory:
    def test_first_touch_reads_dram(self):
        mem = ConventionalMemory(small_config())
        mem.load(0, 8)
        assert mem.dram.reads == 1

    def test_cached_access_free(self):
        mem = ConventionalMemory(small_config())
        mem.load(0, 8)
        mem.load(4, 4)
        assert mem.dram.reads == 1

    def test_spanning_access_touches_lines(self):
        mem = ConventionalMemory(small_config())
        mem.load(8, 16)  # crosses one 16B line boundary
        assert mem.dram.reads == 2

    def test_writeback_on_drain(self):
        mem = ConventionalMemory(small_config())
        mem.store(0, 8)
        assert mem.dram.writes == 0
        mem.drain()
        assert mem.dram.writes == 1

    def test_capacity_thrash_produces_traffic(self):
        mem = ConventionalMemory(small_config())
        span = 64 * 1024  # far beyond L2
        for addr in range(0, span, 16):
            mem.store(addr, 8)
        for addr in range(0, span, 16):
            mem.load(addr, 8)
        assert mem.dram.reads >= span // 16  # second pass misses again
        assert mem.dram.writes > 0

    def test_l1_hit_does_not_touch_l2(self):
        mem = ConventionalMemory(small_config())
        mem.load(0, 8)
        l2_before = mem.l2.traffic.misses + mem.l2.traffic.hits
        mem.load(0, 8)
        assert mem.l2.traffic.misses + mem.l2.traffic.hits == l2_before

    def test_zero_size_access_is_noop(self):
        mem = ConventionalMemory(small_config())
        mem.load(0, 0)
        assert mem.dram.reads == 0


class TestCallCeilings:
    """Clockless ``sys.setprofile`` counts of one ``access`` at the
    default geometry: one loop over both levels costs a C call or two per
    line, not three Python frames (514 / 194 / 5 calls when each line
    went through ``_access_line`` and ``CacheLevel.access``)."""

    LINES = 64

    def test_cold_multi_line_store(self):
        mem = ConventionalMemory()
        assert _calls(mem.access, 0x10000, self.LINES * mem._line, True) <= 250

    def test_warm_multi_line_load(self):
        mem = ConventionalMemory()
        mem.store(0x10000, self.LINES * mem._line)
        assert _calls(mem.access, 0x10000, self.LINES * mem._line, False) <= 100

    def test_one_line_l1_hit(self):
        mem = ConventionalMemory()
        mem.load(0x10000)
        assert _calls(mem.access, 0x10004, 4, False) <= 4


class TestArena:
    def test_alignment(self):
        arena = Arena(base=0, align=16)
        a = arena.alloc(10)
        b = arena.alloc(10)
        assert a == 0 and b == 16
        assert arena.used == 32

    def test_distinct_regions(self):
        arena = Arena()
        a = arena.alloc(100)
        b = arena.alloc(100)
        assert b >= a + 100
