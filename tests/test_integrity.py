"""Tests for the section 3.1 error-detection capability and the
compaction configuration flags."""

import pytest

from repro import Machine, MachineConfig, MemoryConfig
from repro.errors import IntegrityError
from repro.memory.dedup_store import DedupStore
from repro.params import CacheGeometry


def small_store(**kwargs):
    return DedupStore(MemoryConfig(line_bytes=16, num_buckets=256,
                                   data_ways=4, overflow_lines=1024,
                                   **kwargs))


class TestIntegrity:
    def test_clean_lines_verify(self):
        store = small_store()
        plid, _ = store.lookup((1, 2))
        store.verify_line(plid)  # no raise

    def test_corruption_detected(self):
        store = small_store()
        plid, _ = store.lookup((1, 2))
        store.corrupt_line_for_test(plid, (9, 9))
        with pytest.raises(IntegrityError):
            store.verify_line(plid)

    def test_verify_on_read(self):
        store = small_store(verify_reads=True)
        plid, _ = store.lookup((1, 2))
        assert store.read_dram(plid) == (1, 2)
        store.corrupt_line_for_test(plid, (9, 9))
        with pytest.raises(IntegrityError):
            store.read_dram(plid)

    def test_zero_plid_always_clean(self):
        store = small_store(verify_reads=True)
        store.verify_line(0)
        assert store.read_dram(0) == (0, 0)

    def test_overflow_lines_not_constrained(self):
        store = DedupStore(MemoryConfig(line_bytes=16, num_buckets=1,
                                        data_ways=1, overflow_lines=64))
        store.lookup((1, 1))
        plid, _ = store.lookup((2, 2))  # overflow resident
        store.verify_line(plid)  # placed by capacity, not content


def machine_with(path=True, data=True):
    return Machine(MachineConfig(
        memory=MemoryConfig(line_bytes=16, num_buckets=1 << 12,
                            data_ways=12, overflow_lines=1 << 16),
        cache=CacheGeometry(size_bytes=64 * 1024, ways=8, line_bytes=16),
        path_compaction=path, data_compaction=data,
    ))


class TestCompactionFlags:
    @pytest.mark.parametrize("path", [True, False])
    @pytest.mark.parametrize("data", [True, False])
    def test_content_correct_in_all_modes(self, path, data):
        machine = machine_with(path, data)
        words = [0] * 200
        words[7] = 3
        words[150] = 1 << 50
        vsid = machine.create_segment(words)
        assert machine.read_segment(vsid) == words
        machine.write_word(vsid, 8, 4)
        assert machine.read_word(vsid, 8) == 4
        machine.drop_segment(vsid)
        assert machine.footprint_lines() == 0

    def test_path_compaction_saves_lines(self):
        on, off = machine_with(path=True), machine_with(path=False)
        for m in (on, off):
            v = m.create_segment([0] * 4096)
            m.write_word(v, 4000, 1 << 50)
        assert on.footprint_lines() < off.footprint_lines()

    def test_data_compaction_saves_lines(self):
        on, off = machine_with(data=True), machine_with(data=False)
        for m in (on, off):
            m.create_segment([1, 2, 3, 4, 5, 6, 7, 8])
        assert on.footprint_lines() < off.footprint_lines()

    def test_canonical_within_one_mode(self):
        # equal content still yields equal roots with compaction off
        machine = machine_with(path=False, data=False)
        a = machine.create_segment([0, 5, 0, 9])
        b = machine.create_segment([0] * 4)
        machine.write_word(b, 1, 5)
        machine.write_word(b, 3, 9)
        assert machine.segments_equal(a, b)


class TestVerifyReadsConfig:
    def test_machine_level_flag(self):
        from repro import Machine, MachineConfig, MemoryConfig
        from repro.params import CacheGeometry
        machine = Machine(MachineConfig(
            memory=MemoryConfig(line_bytes=16, num_buckets=1 << 10,
                                data_ways=12, overflow_lines=1 << 14,
                                verify_reads=True),
            cache=CacheGeometry(size_bytes=16 * 1024, ways=4,
                                line_bytes=16)))
        assert machine.mem.store.verify_reads
        vsid = machine.create_segment([1 << 40, 2 << 40])
        assert machine.read_segment(vsid) == [1 << 40, 2 << 40]
        # inject a fault; the next uncached read detects it
        plid = machine.mem.store.live_plids()[0]
        machine.mem.store.corrupt_line_for_test(plid, (9 << 40, 9))
        with pytest.raises(IntegrityError):
            machine.mem.store.read_dram(plid)
