"""Unit tests for the Machine facade."""

import weakref

import pytest

from repro import Machine, IteratorStateError
from repro.errors import ReadOnlyError
from repro.structures import HMap
from repro.testing.auditors import audit_machine


class TestSegments:
    def test_create_read_roundtrip(self, machine):
        vsid = machine.create_segment([3, 1, 4, 1, 5])
        assert machine.read_segment(vsid) == [3, 1, 4, 1, 5]
        assert machine.segment_length(vsid) == 5

    def test_equality_is_content_based(self, machine):
        a = machine.create_segment([1, 2, 3])
        b = machine.create_segment([1, 2, 3])
        c = machine.create_segment([1, 2, 4])
        assert machine.segments_equal(a, b)
        assert not machine.segments_equal(a, c)

    def test_equality_distinguishes_lengths(self, machine):
        a = machine.create_segment([1, 2])
        b = machine.create_segment([1, 2, 0])
        assert not machine.segments_equal(a, b)

    def test_write_word_cow(self, machine):
        a = machine.create_segment([1, 2, 3])
        b = machine.create_segment([1, 2, 3])
        machine.write_word(a, 0, 9)
        assert machine.read_segment(a) == [9, 2, 3]
        assert machine.read_segment(b) == [1, 2, 3]

    def test_append_grows(self, machine):
        a = machine.create_segment(list(range(10)))
        machine.append_words(a, [100, 101])
        assert machine.segment_length(a) == 12
        assert machine.read_word(a, 11) == 101

    def test_read_past_length_is_zero(self, machine):
        a = machine.create_segment([1])
        assert machine.read_word(a, 5) == 0

    def test_drop_reclaims(self, machine):
        a = machine.create_segment(list(range(1000)))
        machine.drop_segment(a)
        assert machine.footprint_lines() == 0

    def test_dedup_across_segments(self, machine):
        machine.create_segment(list(range(500, 628)))
        lines = machine.footprint_lines()
        machine.create_segment(list(range(500, 628)))
        assert machine.footprint_lines() == lines


class TestSnapshotApi:
    def test_snapshot_is_stable(self, machine):
        vsid = machine.create_segment([1, 2, 3])
        with machine.snapshot(vsid) as snap:
            machine.write_word(vsid, 0, 9)
            assert snap.read(0) == 1
            assert snap.words() == [1, 2, 3]
        assert machine.read_word(vsid, 0) == 9

    def test_snapshot_key_compares_content(self, machine):
        a = machine.create_segment([5, 6])
        b = machine.create_segment([5, 6])
        with machine.snapshot(a) as sa, machine.snapshot(b) as sb:
            assert sa.key() == sb.key()

    def test_snapshot_release_idempotent(self, machine):
        vsid = machine.create_segment([1])
        snap = machine.snapshot(vsid)
        snap.release()
        snap.release()

    def test_read_range(self, machine):
        vsid = machine.create_segment(list(range(40)))
        with machine.snapshot(vsid) as snap:
            assert snap.read_range(10, 5) == [10, 11, 12, 13, 14]
            assert snap.read_range(38, 10) == [38, 39]

    def test_iter_nonzero(self, machine):
        vsid = machine.create_segment([0, 5, 0, 0, 7])
        with machine.snapshot(vsid) as snap:
            assert list(snap.iter_nonzero()) == [(1, 5), (4, 7)]


class TestIteratorPool:
    def test_registers_are_finite(self, machine):
        held = [machine.iterator() for _ in range(
            machine.config.iterator_registers)]
        with pytest.raises(IteratorStateError):
            machine.iterator()
        for it in held:
            machine.release_iterator(it)
        machine.iterator()  # works again

    def test_release_resets(self, machine):
        vsid = machine.create_segment([1, 2])
        it = machine.iterator(vsid)
        machine.release_iterator(it)
        assert it.vsid is None


class TestReadOnlySharing:
    def test_share_read_only_blocks_writes(self, machine):
        vsid = machine.create_segment([1, 2, 3])
        ro = machine.share_read_only(vsid)
        with pytest.raises(ReadOnlyError):
            machine.write_word(ro, 0, 9)
        assert machine.read_segment(ro) == [1, 2, 3]

    def test_refused_write_builds_no_version(self, machine):
        # words too wide to pack, so the segment and an update are lines
        vsid = machine.create_segment([1 << 63 | i for i in range(16)])
        with pytest.raises(ReadOnlyError):
            machine.write_words(machine.share_read_only(vsid), {3: 12345})
        machine.drain()
        assert audit_machine(machine, strict=True).failures == []


class TestAtomicUpdate:
    def test_applies_update(self, machine):
        vsid = machine.create_segment([10, 20])

        def bump(it):
            it.put(it.get(0) + 1, offset=0)

        machine.atomic_update(vsid, bump)
        assert machine.read_word(vsid, 0) == 11

    def test_retries_on_interference(self, machine):
        vsid = machine.create_segment([10, 20])
        poked = []

        def bump(it):
            if not poked:
                # simulate interference after the snapshot was taken
                machine.write_word(vsid, 1, 99)
                poked.append(True)
            it.put(it.get(0) + 1, offset=0)

        machine.atomic_update(vsid, bump)
        assert machine.read_segment(vsid) == [11, 99]


class TestLifetime:
    def test_dropped_machine_is_freed_by_reference_counting(
            self, gc_disabled):
        machine = Machine()
        machine.mem.store.hold_reclaim()
        kvp = HMap.create(machine)
        for i in range(40):
            kvp.put(b"k%d" % (i % 8), b"value-%d" % i)
        for i in range(8):
            assert kvp.get(b"k%d" % i) is not None
        for i in range(4):
            kvp.delete(b"k%d" % i)
        assert machine.mem.store.reclaim_quiesce() > 0
        alive = weakref.ref(machine)
        del kvp, machine
        # no reference cycle runs through the machine: it is gone
        # without a gc.collect()
        assert alive() is None
