"""Edge-case and failure-path coverage across the stack."""

import pytest

from repro import (
    BadVsidError,
    HicampError,
    Machine,
    MachineConfig,
    MemoryConfig,
    MemoryExhaustedError,
    SegmentRangeError,
)
from repro.errors import (
    BadPlidError,
    CasFailedError,
    IntegrityError,
    IteratorStateError,
    MergeConflictError,
    ReadOnlyError,
)
from repro.memory.line import pack, pack_for
from repro.params import CacheGeometry, ConventionalConfig
from repro.segments.anon import AnonSegment
from repro.structures import HArray, HString
from repro.testing.auditors import audit_machine


class TestDataWordRange:
    def test_one_segment_cannot_read_back_anothers_word(self, machine):
        # -1 was once stored verbatim but encoded as 2**64 - 1, so the
        # second segment deduped to its line and the first read back a
        # word it never wrote; a data word is now refused outside 64 bits
        with pytest.raises(ValueError):
            machine.create_segment([-1, 1 << 63])
        assert machine.footprint_lines() == 0
        vsid = machine.create_segment([2 ** 64 - 1, 1 << 63])
        assert machine.read_segment(vsid) == [2 ** 64 - 1, 1 << 63]

    @pytest.mark.parametrize("words", [
        [-1, 7], [7, -(1 << 70)], [1 << 64, 0], [0, (1 << 64) + 5],
        [1.5], ["a"]])
    def test_a_word_outside_the_data_range_is_refused(self, machine,
                                                      words):
        with pytest.raises(ValueError):
            machine.create_segment(words)
        vsid = machine.create_segment([1])
        with pytest.raises(ValueError):
            machine.append_words(vsid, words)
        with pytest.raises(ValueError):
            AnonSegment.from_words(machine.mem, words)
        assert machine.read_segment(vsid) == [1]

    @pytest.mark.parametrize("word", [
        1 << 64, -12345,
        pytest.param(pack(2, (1, 2), 2), id="pack-too-wide"),
        pytest.param(pack_for((1, 2)) | 1 << 40, id="pack-stray-bits"),
        pytest.param(1.5, id="float")])
    def test_write_words_refuses_what_is_neither_data_nor_a_reference(
            self, machine, word):
        # a negative int is a reference word: one naming no live line is
        # refused before any line is built
        vsid = machine.create_segment([1, 2])
        with pytest.raises(ValueError):
            machine.write_word(vsid, 1, word)
        assert machine.read_segment(vsid) == [1, 2]
        assert audit_machine(machine, strict=True).ok

    @pytest.mark.parametrize("word", [
        1 << 64, -12345,
        pytest.param(pack(1, (1, 2), 4), id="pack-span"),
        pytest.param(pack_for((1, 2)) | 1 << 40, id="pack-stray-bits"),
        pytest.param(1.5, id="float")])
    def test_a_register_commit_refuses_it_too(self, machine, word):
        # the register's stores reach the same rebuild: a bad one is
        # refused before the commit takes a reference (it once raised
        # KeyError half-way and leaked the line it had built)
        vsid = machine.create_segment([1, 2, 3])
        lines = machine.footprint_lines()
        it = machine.iterator(vsid)
        try:
            it.put(word, offset=1)
            with pytest.raises(ValueError, match="not a data word"):
                it.try_commit()
        finally:
            machine.release_iterator(it)
        assert machine.footprint_lines() == lines
        assert machine.read_segment(vsid) == [1, 2, 3]
        assert audit_machine(machine, strict=True).ok

    def test_a_word_that_is_no_int_is_refused_before_the_rebuild(
            self, machine):
        # a float passed the range test and failed in the line encoder
        # half-way through the rebuild, leaking the lines it had taken
        vsid = machine.create_segment([(1 << 40) + i for i in range(64)])
        with pytest.raises(ValueError, match="not a data word"):
            machine.write_words(vsid, {37: 1.5})
        assert audit_machine(machine, strict=True).ok

    def test_a_canonical_pack_is_a_word_a_segment_holds(self, machine):
        # a map slot holds a tiny value's packed root the same way
        word = pack_for((1, 2))
        vsid = machine.create_segment([1, 2])
        machine.write_word(vsid, 1, word)
        assert machine.read_segment(vsid) == [1, word]
        assert audit_machine(machine, strict=True).ok


class TestErrorHierarchy:
    def test_all_derive_from_hicamp_error(self):
        for exc in (BadPlidError, BadVsidError, ReadOnlyError,
                    CasFailedError, MergeConflictError, IteratorStateError,
                    SegmentRangeError, MemoryExhaustedError, IntegrityError):
            assert issubclass(exc, HicampError)


class TestConfigValidation:
    def test_line_must_hold_two_words(self):
        with pytest.raises(ValueError):
            MemoryConfig(line_bytes=8)

    def test_line_must_be_word_multiple(self):
        with pytest.raises(ValueError):
            MemoryConfig(line_bytes=20)

    def test_plid_bytes_restricted(self):
        with pytest.raises(ValueError):
            MemoryConfig(plid_bytes=5)

    def test_cache_geometry_divisibility(self):
        with pytest.raises(ValueError):
            CacheGeometry(size_bytes=1000, ways=3, line_bytes=16)

    def test_cache_line_must_match_memory_line(self):
        with pytest.raises(ValueError):
            MachineConfig(
                memory=MemoryConfig(line_bytes=32),
                cache=CacheGeometry(size_bytes=1024, ways=2, line_bytes=16))

    def test_conventional_line_sizes_consistent(self):
        with pytest.raises(ValueError):
            ConventionalConfig(
                line_bytes=32,
                l1=CacheGeometry(size_bytes=1024, ways=2, line_bytes=16),
                l2=CacheGeometry(size_bytes=4096, ways=2, line_bytes=32))

    def test_with_line_size_helpers(self):
        mc = MachineConfig.with_line_size(64)
        assert mc.memory.line_bytes == 64 and mc.cache.line_bytes == 64
        cc = ConventionalConfig.with_line_size(32)
        assert cc.l1.line_bytes == 32 and cc.l2.line_bytes == 32


class TestEmptyAndBoundary:
    def test_empty_segment(self, machine):
        vsid = machine.create_segment([])
        assert machine.segment_length(vsid) == 0
        assert machine.read_segment(vsid) == []
        assert machine.read_word(vsid, 0) == 0

    def test_empty_string(self, machine):
        s = HString.create(machine, b"")
        assert s.to_bytes() == b""
        assert len(s) == 0

    def test_empty_array_iteration(self, machine):
        a = HArray.create(machine)
        assert list(a.iter_nonzero()) == []

    def test_snapshot_of_empty(self, machine):
        vsid = machine.create_segment([])
        with machine.snapshot(vsid) as snap:
            assert snap.words() == []
            assert snap.read(100) == 0
            assert snap.read_range(5, 10) == []

    def test_write_words_empty_updates(self, machine):
        vsid = machine.create_segment([1])
        machine.write_words(vsid, {})
        assert machine.read_segment(vsid) == [1]

    def test_max_word_value(self, machine):
        top = (1 << 64) - 1
        vsid = machine.create_segment([top, 0, top])
        assert machine.read_segment(vsid) == [top, 0, top]

    def test_single_zero_word_segment(self, machine):
        vsid = machine.create_segment([0])
        assert machine.segment_length(vsid) == 1
        assert machine.footprint_lines() == 0  # all-zero content is free

    def test_negative_seek_rejected(self, machine):
        vsid = machine.create_segment([1])
        it = machine.iterator(vsid)
        with pytest.raises(SegmentRangeError):
            it.seek(-1)
        machine.release_iterator(it)

    def test_iterator_put_negative_rejected(self, machine):
        vsid = machine.create_segment([1])
        it = machine.iterator(vsid)
        with pytest.raises(SegmentRangeError):
            it.put(5, offset=-2)
        machine.release_iterator(it)


class TestExhaustion:
    def test_memory_exhaustion_surfaces(self):
        machine = Machine(MachineConfig(
            memory=MemoryConfig(line_bytes=16, num_buckets=2, data_ways=2,
                                overflow_lines=8),
            cache=CacheGeometry(size_bytes=512, ways=2, line_bytes=16)))
        with pytest.raises(MemoryExhaustedError):
            for i in range(1, 200):
                # wide values: not inline-compactable, so lines allocate
                machine.create_segment([i << 40, (i + 1) << 40])

    def test_cas_retry_exhaustion(self, machine):
        vsid = machine.create_segment([1])

        def always_interfered(it):
            machine.write_word(vsid, 0, it.get(0) + 1)  # poison every try
            it.put(99, offset=0)

        with pytest.raises(CasFailedError):
            machine.atomic_update(vsid, always_interfered, max_retries=3)


class TestDoubleOperations:
    def test_drop_twice_raises(self, machine):
        vsid = machine.create_segment([1])
        machine.drop_segment(vsid)
        with pytest.raises(BadVsidError):
            machine.drop_segment(vsid)

    def test_read_after_drop_raises(self, machine):
        vsid = machine.create_segment([1])
        machine.drop_segment(vsid)
        with pytest.raises(BadVsidError):
            machine.read_word(vsid, 0)

    def test_commit_without_changes_succeeds(self, machine):
        vsid = machine.create_segment([1, 2])
        it = machine.iterator(vsid)
        assert it.try_commit()  # validates the snapshot is current
        machine.release_iterator(it)

    def test_abort_then_commit(self, machine):
        vsid = machine.create_segment([1, 2])
        it = machine.iterator(vsid)
        it.put(9, offset=0)
        it.abort()
        assert it.try_commit()
        assert machine.read_segment(vsid) == [1, 2]
        machine.release_iterator(it)


class TestMixedGeometrySafety:
    def test_same_value_different_tags_do_not_collide(self, machine):
        # data word 5 and a reference to PLID 5 must never dedup together
        from repro.memory.line import ref
        mem = machine.mem
        p1, _ = mem.store.lookup((5, 0))
        p2, _ = mem.store.lookup((ref(p1), 0))
        assert mem.store.peek(p2)[0] == ref(p1)
        p3, _ = mem.store.lookup((p1, 0))  # the PLID *value* as data
        assert p3 != p2

    def test_deep_segment_many_levels(self, machine):
        # force a tall DAG: single element at a gigantic index
        vsid = machine.create_segment([])
        machine.write_word(vsid, 10**15, 7)
        assert machine.read_word(vsid, 10**15) == 7
        assert machine.read_word(vsid, 10**15 - 1) == 0
        machine.drop_segment(vsid)
        assert machine.footprint_lines() == 0
