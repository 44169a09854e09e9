"""Unit tests for iterator registers."""

import pytest

from repro.errors import IteratorStateError, ReadOnlyError
from repro.segments.iterator import IteratorRegister
from repro.segments.segment_map import SegmentMap
from repro.testing.auditors import audit_machine


@pytest.fixture
def env(machine):
    return machine


def new_it(machine, words, **kwargs):
    vsid = machine.create_segment(words, **kwargs)
    it = IteratorRegister(machine.mem, machine.segmap)
    it.load(vsid)
    return vsid, it


class TestLoadAndRead:
    def test_reads_through_register(self, machine):
        _, it = new_it(machine, [10, 20, 30])
        assert it.get(0) == 10
        assert it.get(2) == 30

    def test_unloaded_register_raises(self, machine):
        it = IteratorRegister(machine.mem, machine.segmap)
        with pytest.raises(IteratorStateError):
            it.get(0)

    def test_leaf_caching_counts_path_hits(self, machine):
        _, it = new_it(machine, list(range(100, 200)))
        it.get(0)
        reads_before = it.stats.reads
        it.get(1)  # same leaf line
        assert it.stats.reads == reads_before
        assert it.stats.path_hits >= 1

    def test_read_beyond_capacity_is_zero(self, machine):
        _, it = new_it(machine, [1, 2])
        assert it.get(10_000) == 0


class TestSnapshotIsolation:
    def test_register_sees_load_time_content(self, machine):
        vsid, it = new_it(machine, [1, 2, 3])
        machine.write_word(vsid, 0, 99)  # concurrent committed update
        assert it.get(0) == 1  # the register's snapshot is stable
        it.load(vsid)
        assert it.get(0) == 99

    def test_snapshot_survives_segment_drop(self, machine):
        vsid, it = new_it(machine, list(range(50)))
        machine.drop_segment(vsid)
        assert it.get(10) == 10  # register still holds the content
        it.reset()
        assert machine.footprint_lines() == 0


class TestTransientWrites:
    def test_uncommitted_writes_private(self, machine):
        vsid, it = new_it(machine, [1, 2, 3])
        it.put(42, offset=1)
        assert it.get(1) == 42
        assert machine.read_word(vsid, 1) == 2

    def test_abort_discards(self, machine):
        vsid, it = new_it(machine, [1, 2, 3])
        it.put(42, offset=1)
        it.abort()
        assert it.get(1) == 2
        assert not it.dirty

    def test_commit_publishes(self, machine):
        vsid, it = new_it(machine, [1, 2, 3])
        it.put(42, offset=1)
        assert it.try_commit()
        assert machine.read_word(vsid, 1) == 42
        assert not it.dirty

    def test_write_extends_length(self, machine):
        vsid, it = new_it(machine, [1, 2, 3])
        it.put(7, offset=100)
        assert it.try_commit()
        assert machine.segment_length(vsid) == 101
        assert machine.read_word(vsid, 100) == 7

    def test_transient_writes_cost_no_lookups(self, machine):
        vsid, it = new_it(machine, [1, 2, 3])
        lookups_before = machine.mem.store.counters.lookups
        for i in range(50):
            it.put(i + 1000, offset=i)
        # stores land in transient lines; no dedup lookups until commit
        assert machine.mem.store.counters.lookups == lookups_before
        it.try_commit()
        assert machine.mem.store.counters.lookups > lookups_before

    def test_read_only_register_rejects_put(self, machine):
        vsid = machine.create_segment([1, 2, 3])
        ro = machine.share_read_only(vsid)
        it = IteratorRegister(machine.mem, machine.segmap)
        it.load(ro)
        with pytest.raises(ReadOnlyError):
            it.put(9, offset=0)

    def test_read_only_register_commit_is_refused_before_it_builds(
            self, machine):
        # words too wide to pack, so the build would take line references
        vsid = machine.create_segment([1 << 63 | i for i in range(16)])
        it = IteratorRegister(machine.mem, machine.segmap)
        it.load(machine.share_read_only(vsid))
        with pytest.raises(ReadOnlyError):
            it.try_commit()
        it.reset()
        machine.drain()
        assert audit_machine(machine, strict=True).failures == []


class TestCommitRaces:
    def test_lost_race_returns_false_and_keeps_transients(self, machine):
        vsid = machine.create_segment([1, 2, 3])
        it1 = IteratorRegister(machine.mem, machine.segmap).load(vsid)
        it2 = IteratorRegister(machine.mem, machine.segmap).load(vsid)
        it1.put(10, offset=0)
        it2.put(20, offset=1)
        assert it1.try_commit()
        assert not it2.try_commit()
        assert it2.dirty  # caller may retry or merge
        assert machine.read_word(vsid, 0) == 10
        assert machine.read_word(vsid, 1) == 2

    def test_commit_moves_snapshot_forward(self, machine):
        vsid, it = new_it(machine, [1, 2, 3])
        it.put(10, offset=0)
        assert it.try_commit()
        it.put(11, offset=1)
        assert it.try_commit()  # second commit builds on the first
        assert machine.read_segment(vsid) == [10, 11, 3]


class TestNextNonzero:
    def test_skips_zeros(self, machine):
        vsid = machine.create_segment([0] * 64)
        machine.write_words(vsid, {5: 50, 20: 200, 63: 630})
        it = IteratorRegister(machine.mem, machine.segmap).load(vsid)
        it.seek(0)
        hits = []
        while True:
            item = it.next_nonzero()
            if item is None:
                break
            hits.append(item)
        assert hits == [(5, 50), (20, 200), (63, 630)]

    def test_includes_transient_stores(self, machine):
        vsid = machine.create_segment([0] * 32)
        machine.write_words(vsid, {10: 1})
        it = IteratorRegister(machine.mem, machine.segmap).load(vsid)
        it.put(5, offset=3)
        it.seek(0)
        assert it.next_nonzero() == (3, 5)
        assert it.next_nonzero() == (10, 1)

    def test_transient_overwrite_hides_committed(self, machine):
        vsid = machine.create_segment([0] * 16)
        machine.write_words(vsid, {4: 9})
        it = IteratorRegister(machine.mem, machine.segmap).load(vsid)
        it.put(0, offset=4)  # deletes element 4 in the transient view
        it.seek(0)
        assert it.next_nonzero() is None

    def test_iter_items(self, machine):
        vsid = machine.create_segment([7, 0, 8, 0, 9])
        it = IteratorRegister(machine.mem, machine.segmap).load(vsid)
        assert list(it.iter_items()) == [(0, 7), (2, 8), (4, 9)]


class TestPrefetch:
    def test_sequential_scan_prefetches(self, machine):
        words = list(range(1000, 1000 + 16 * machine.mem.words_per_line))
        vsid = machine.create_segment(words)
        it = IteratorRegister(machine.mem, machine.segmap).load(vsid)
        for offset in range(len(words)):
            assert it.get(offset) == words[offset]
        assert it.stats.prefetches > 0
        # after warm-up, every demand fill was prefetched ahead of time
        assert it.stats.prefetch_hits >= it.stats.prefetches - 1

    def test_random_access_does_not_prefetch(self, machine):
        words = list(range(1000, 1256))
        vsid = machine.create_segment(words)
        it = IteratorRegister(machine.mem, machine.segmap).load(vsid)
        w = machine.mem.words_per_line
        for offset in (0, 9 * w, 3 * w, 12 * w, 6 * w):
            it.get(offset)
        assert it.stats.prefetches == 0

    def test_prefetch_can_be_disabled(self, machine):
        words = list(range(1000, 1128))
        vsid = machine.create_segment(words)
        it = IteratorRegister(machine.mem, machine.segmap)
        it.prefetch = False
        it.load(vsid)
        for offset in range(len(words)):
            it.get(offset)
        assert it.stats.prefetches == 0

    def test_prefetch_preserves_dram_total(self, machine):
        # prefetching shifts fetches earlier; it must not change the
        # total lines moved for a full sequential scan
        words = list(range(2000, 2000 + 128))
        vsid = machine.create_segment(words)

        def scan(prefetch):
            it = IteratorRegister(machine.mem, machine.segmap)
            it.prefetch = prefetch
            it.load(vsid)
            before = machine.dram.snapshot()
            for offset in range(len(words)):
                it.get(offset)
            it.reset()
            return machine.dram.delta(before).total()

        first = scan(True)
        second = scan(False)  # cache is warm now; compare shapes only
        assert first >= second  # warm second pass can only be cheaper
