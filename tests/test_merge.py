"""Unit tests for merge-update and mCAS (section 3.4)."""

import pytest

from repro.errors import MergeConflictError
from repro.memory.line import is_pack, pack_for, ref
from repro.segments import dag
from repro.segments.merge import (
    MergeStats,
    merge_entries,
    merge_roots,
    three_way_merge_word,
)


class TestWordRule:
    def test_untouched_side_takes_other(self):
        assert three_way_merge_word(1, 1, 5) == 5
        assert three_way_merge_word(1, 5, 1) == 5

    def test_identical_data_updates_sum_their_diffs(self):
        # both sides applied +4 to base 1: the diffs compose to +8
        # (two concurrent "+1"s must not collapse into one)
        assert three_way_merge_word(1, 5, 5) == 9

    def test_identical_reference_updates_coalesce(self):
        assert three_way_merge_word(0, ref(3), ref(3)) == ref(3)

    def test_counter_difference_sums(self):
        # base 10, mine +3, theirs +4 -> 17
        assert three_way_merge_word(10, 13, 14) == 17

    def test_wraps_modulo_word(self):
        top = (1 << 64) - 1
        assert three_way_merge_word(top, 0, top) == 0  # +1 wraps

    def test_reference_conflict_raises(self):
        with pytest.raises(MergeConflictError):
            three_way_merge_word(0, ref(1), ref(2))

    def test_reference_matching_side_ok(self):
        assert three_way_merge_word(0, ref(1), 0) == ref(1)
        assert three_way_merge_word(ref(1), 0, ref(1)) == 0

    def test_mixed_tag_conflict_raises(self):
        with pytest.raises(MergeConflictError):
            three_way_merge_word(0, ref(1), 7)

    def test_distinct_pack_stores_conflict(self):
        # a pack is a non-negative int above the data range: it matches
        # the base or one side, or the merge fails — never a difference
        a, b, c = pack_for((1,)), pack_for((2,)), pack_for((1, 2))
        for base in (0, 7, c):
            with pytest.raises(MergeConflictError):
                three_way_merge_word(base, a, b)
        with pytest.raises(MergeConflictError):
            three_way_merge_word(0, a, 7)
        assert three_way_merge_word(0, a, a) == a
        assert three_way_merge_word(c, a, c) == a


def merged_words(mem, base, mine, theirs):
    b, bh = dag.build_segment(mem, base)
    m, mh = dag.build_segment(mem, mine)
    t, th = dag.build_segment(mem, theirs)
    root, h = merge_roots(mem, (b, bh), (m, mh), (t, th))
    out = dag.gather_words(mem, root, h, 0, max(len(base), len(mine), len(theirs)))
    for e in (b, m, t, root):
        dag.release_entry(mem, e)
    return out


class TestSegmentMerge:
    def test_disjoint_updates_compose(self, mem):
        base = [0] * 40
        mine = list(base); mine[3] = 33
        theirs = list(base); theirs[30] = 77
        assert merged_words(mem, base, mine, theirs)[3] == 33
        assert merged_words(mem, base, mine, theirs)[30] == 77

    def test_counter_semantics_at_scale(self, mem):
        base = [100] * 20
        mine = [101] * 20    # +1 each
        theirs = [105] * 20  # +5 each
        assert merged_words(mem, base, mine, theirs) == [106] * 20

    def test_identical_subtrees_skipped(self, mem):
        stats = MergeStats()
        base = list(range(1000, 1256))
        mine = list(base); mine[0] = 1
        theirs = list(base); theirs[255] = 2
        b, bh = dag.build_segment(mem, base)
        m, mh = dag.build_segment(mem, mine)
        t, th = dag.build_segment(mem, theirs)
        root, h = merge_roots(mem, (b, bh), (m, mh), (t, th), stats=stats)
        assert stats.subtrees_skipped > 0
        # only the two diverging paths were leaf-merged
        assert stats.leaf_merges <= 4
        for e in (b, m, t, root):
            dag.release_entry(mem, e)

    def test_different_heights_merge(self, mem):
        base = [1, 2]
        mine = [1, 2] + [0] * 30 + [9]  # grew the segment
        theirs = [5, 2]
        out = merged_words(mem, base, mine, theirs)
        assert out[0] == 5 and out[32] == 9

    def test_merge_conflict_propagates(self, mem):
        w = mem.words_per_line
        value_a, _ = dag.build_segment(mem, list(range(70, 90)))
        value_b, _ = dag.build_segment(mem, list(range(90, 110)))
        base = [0] * (w * 2)
        b, bh = dag.build_segment(mem, base)
        m = dag.write_words_bulk(mem, dag.retain_entry(mem, b), bh, {0: value_a})
        t = dag.write_words_bulk(mem, dag.retain_entry(mem, b), bh, {0: value_b})
        with pytest.raises(MergeConflictError):
            root, _ = merge_roots(mem, (b, bh), (m, bh), (t, bh))
        for e in (b, m, t, value_a, value_b):
            dag.release_entry(mem, e)
        mem.store.check_refcounts()

    def test_distinct_packed_roots_in_one_field_conflict(self, mem):
        # two tiny values, stored into one slot the way a map stores a
        # value root: both roots are packs, so the stores conflict
        value_a, _ = dag.build_segment(mem, [1, 2])
        value_b, _ = dag.build_segment(mem, [3])
        assert is_pack(value_a) and is_pack(value_b)
        b, bh = dag.build_segment(mem, [0] * (mem.words_per_line * 2))
        m = dag.write_words_bulk(mem, dag.retain_entry(mem, b), bh,
                                 {1: value_a})
        t = dag.write_words_bulk(mem, dag.retain_entry(mem, b), bh,
                                 {1: value_b})
        with pytest.raises(MergeConflictError):
            merge_roots(mem, (b, bh), (m, bh), (t, bh))
        for e in (b, m, t):
            dag.release_entry(mem, e)
        mem.store.check_refcounts()

    def test_merge_releases_cleanly(self, mem):
        base = list(range(1, 65))
        mine = list(base); mine[5] += 1
        theirs = list(base); theirs[60] += 2
        b, bh = dag.build_segment(mem, base)
        m, mh = dag.build_segment(mem, mine)
        t, th = dag.build_segment(mem, theirs)
        root, h = merge_roots(mem, (b, bh), (m, mh), (t, th))
        for e in (b, m, t, root):
            dag.release_entry(mem, e)
        assert mem.footprint_lines() == 0


class TestMixedHeightMerge:
    """merge_roots across trees of different heights (replication
    followers promote short snapshots against grown leader roots)."""

    def test_theirs_grows_the_segment(self, mem):
        base = [1, 2]
        mine = [5, 2]
        theirs = [1, 2] + [0] * 30 + [9]
        out = merged_words(mem, base, mine, theirs)
        assert out[0] == 5 and out[32] == 9

    def test_both_sides_grow_to_different_heights(self, mem):
        base = [1, 2]
        mine = [1, 2] + [0] * 14 + [7]            # one extra level
        theirs = [1, 2] + [0] * 300 + [8]         # several extra levels
        out = merged_words(mem, base, mine, theirs)
        assert out[16] == 7 and out[302] == 8
        assert out[0] == 1 and out[1] == 2

    def test_counter_semantics_survive_height_promotion(self, mem):
        base = [10, 2]
        mine = [13, 2] + [0] * 30 + [9]  # +3 on word 0, and grew
        theirs = [14, 2]                 # +4 on word 0
        out = merged_words(mem, base, mine, theirs)
        assert out[0] == 17 and out[32] == 9

    def test_mixed_height_merge_releases_cleanly(self, mem):
        base = list(range(1, 9))
        mine = list(base) + [0] * 120 + [4]
        theirs = list(base); theirs[0] += 2
        b, bh = dag.build_segment(mem, base)
        m, mh = dag.build_segment(mem, mine)
        t, th = dag.build_segment(mem, theirs)
        assert mh > bh == th
        root, h = merge_roots(mem, (b, bh), (m, mh), (t, th))
        assert h == mh
        for e in (b, m, t, root):
            dag.release_entry(mem, e)
        assert mem.footprint_lines() == 0
        mem.store.check_refcounts()
