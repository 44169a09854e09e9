"""Unit tests for the virtual segment map."""

import pytest

from repro.errors import BadVsidError, ReadOnlyError
from repro.segments import dag
from repro.segments.segment_map import SegmentFlags, SegmentMap


@pytest.fixture
def segmap(mem):
    return SegmentMap(mem)


def build(mem, words):
    return dag.build_segment(mem, words)


class TestLifecycle:
    def test_create_and_entry(self, mem, segmap):
        root, height = build(mem, [1, 2, 3])
        vsid = segmap.create(root, height, 3)
        entry = segmap.entry(vsid)
        assert entry.height == height and entry.length == 3

    def test_vsids_are_distinct(self, segmap):
        assert segmap.create() != segmap.create()

    def test_unknown_vsid_raises(self, segmap):
        with pytest.raises(BadVsidError):
            segmap.entry(424242)

    def test_drop_releases_content(self, mem, segmap):
        root, height = build(mem, list(range(100, 164)))
        vsid = segmap.create(root, height, 64)
        assert mem.footprint_lines() > 0
        segmap.drop(vsid)
        assert mem.footprint_lines() == 0
        assert not segmap.exists(vsid)

    def test_len_counts_entries(self, segmap):
        a = segmap.create()
        segmap.create()
        segmap.drop(a)
        assert len(segmap) == 1


class TestCas:
    def test_cas_success_swaps_root(self, mem, segmap):
        root, h = build(mem, [1, 2, 3])
        vsid = segmap.create(root, h, 3)
        new_root, nh = build(mem, [9, 9, 9])
        assert segmap.cas_root(vsid, root, h, new_root, nh, 3)
        entry = segmap.entry(vsid)
        assert entry.root == new_root
        assert entry.version == 1

    def test_cas_failure_keeps_old(self, mem, segmap):
        root, h = build(mem, [1, 2, 3])
        vsid = segmap.create(root, h, 3)
        stale, sh = build(mem, [7, 7, 7])
        new_root, nh = build(mem, [9, 9, 9])
        assert not segmap.cas_root(vsid, stale, sh, new_root, nh, 3)
        assert segmap.entry(vsid).root == root
        # the loser cleans up its references
        dag.release_entry(mem, stale)
        dag.release_entry(mem, new_root)

    def test_cas_failure_counted(self, mem, segmap):
        root, h = build(mem, [1, 2, 3])
        vsid = segmap.create(root, h, 3)
        stale, sh = build(mem, [7, 7, 7])
        new_root, nh = build(mem, [9, 9, 9])
        segmap.cas_root(vsid, stale, sh, new_root, nh, 3)
        assert segmap.cas_attempts == 1 and segmap.cas_failures == 1
        dag.release_entry(mem, stale)
        dag.release_entry(mem, new_root)

    def test_old_content_reclaimed_after_swap(self, mem, segmap):
        root, h = build(mem, list(range(500, 600)))
        vsid = segmap.create(root, h, 100)
        new_root, nh = build(mem, [1])
        assert segmap.cas_root(vsid, root, h, new_root, nh, 1)
        # the old 100-word DAG is unreferenced now
        assert mem.footprint_lines() <= 2
        mem.store.check_refcounts()


class TestReadOnly:
    def test_read_only_share_sees_snapshot(self, mem, segmap):
        root, h = build(mem, [1, 2, 3])
        vsid = segmap.create(root, h, 3)
        ro = segmap.share_read_only(vsid)
        assert segmap.is_read_only(ro)
        assert not segmap.is_read_only(vsid)
        # the owner moves on; the read-only view keeps its version
        new_root, nh = build(mem, [5, 5, 5])
        segmap.set_root(vsid, new_root, nh, 3)
        assert segmap.entry(ro).root == root

    def test_read_only_rejects_update(self, mem, segmap):
        root, h = build(mem, [1, 2, 3])
        vsid = segmap.create(root, h, 3)
        ro = segmap.share_read_only(vsid)
        other, oh = build(mem, [4])
        with pytest.raises(ReadOnlyError):
            segmap.set_root(ro, other, oh, 1)
        with pytest.raises(ReadOnlyError):
            segmap.cas_root(ro, root, h, other, oh, 1)
        dag.release_entry(mem, other)

    def test_flags_preserved(self, mem, segmap):
        vsid = segmap.create(flags=SegmentFlags.MERGE_UPDATE)
        ro = segmap.share_read_only(vsid)
        assert segmap.entry(ro).flags & SegmentFlags.MERGE_UPDATE
        assert segmap.entry(ro).flags & SegmentFlags.READ_ONLY


class TestWeakReferences:
    def test_alias_tracks_live_target(self, mem, segmap):
        root, h = build(mem, [1, 2, 3])
        vsid = segmap.create(root, h, 3)
        alias = segmap.create_weak_alias(vsid)
        assert segmap.entry(alias).root == root
        # tracks updates, unlike a read-only share
        new_root, nh = build(mem, [9, 9])
        segmap.set_root(vsid, new_root, nh, 2)
        assert segmap.entry(alias).root == segmap.entry(vsid).root

    def test_alias_does_not_pin_content(self, mem, segmap):
        root, h = build(mem, list(range(100, 200)))
        vsid = segmap.create(root, h, 100)
        alias = segmap.create_weak_alias(vsid)
        segmap.drop(vsid)
        # content reclaimed despite the alias; alias reads as empty
        assert mem.footprint_lines() == 0
        entry = segmap.entry(alias)
        assert entry.root == 0 and entry.length == 0

    def test_alias_is_read_only(self, mem, segmap):
        root, h = build(mem, [1])
        vsid = segmap.create(root, h, 1)
        alias = segmap.create_weak_alias(vsid)
        other, oh = build(mem, [2])
        with pytest.raises(ReadOnlyError):
            segmap.set_root(alias, other, oh, 1)
        dag.release_entry(mem, other)

    def test_dropping_alias_leaves_target(self, mem, segmap):
        root, h = build(mem, [1, 2])
        vsid = segmap.create(root, h, 2)
        alias = segmap.create_weak_alias(vsid)
        segmap.drop(alias)
        assert not segmap.exists(alias)
        assert segmap.entry(vsid).root == root
        segmap.drop(vsid)
        assert mem.footprint_lines() == 0

    def test_alias_of_unknown_vsid_rejected(self, segmap):
        with pytest.raises(BadVsidError):
            segmap.create_weak_alias(999)
