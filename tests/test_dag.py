"""Unit tests for canonical segment DAGs, including compaction."""

import gc

import pytest

from repro import Machine
from repro.errors import SegmentRangeError
from repro.memory.line import (
    encode_line, encode_word, is_pack, is_ref, pack_fields, pack_for, ref_path)
from repro.segments import dag
from repro.structures import HMap


def build(mem, words):
    return dag.build_segment(mem, words)


class TestBuildAndRead:
    def test_roundtrip_dense(self, mem):
        words = list(range(1000, 1100))
        root, height = build(mem, words)
        got = dag.gather_words(mem, root, height, 0, len(words))
        assert got == words

    def test_single_word(self, mem):
        root, height = build(mem, [12345678901234])
        assert height == 0
        assert dag.read_word(mem, root, height, 0) == 12345678901234

    def test_empty_is_zero(self, mem):
        root, height = build(mem, [])
        assert root == 0

    def test_all_zero_collapses(self, mem):
        root, height = build(mem, [0] * 500)
        assert root == 0
        assert mem.footprint_lines() == 0

    def test_trailing_zeros_free(self, mem):
        dense, _ = build(mem, [1, 2, 3])
        lines_before = mem.footprint_lines()
        padded, _ = build(mem, [1, 2, 3] + [0] * 1000)
        # the padded version adds no leaf lines, only (possibly) nothing
        assert mem.footprint_lines() == lines_before

    def test_out_of_range_read_raises(self, mem):
        root, height = build(mem, [1, 2])
        with pytest.raises(SegmentRangeError):
            dag.read_word(mem, root, height,
                          dag.entry_capacity(mem, height))


class TestContentUniqueness:
    def test_same_content_same_root(self, mem):
        r1, h1 = build(mem, [5, 6, 7, 8, 9])
        r2, h2 = build(mem, [5, 6, 7, 8, 9])
        assert r1 == r2
        assert h1 == h2

    def test_different_content_different_root(self, mem):
        r1, _ = build(mem, [5, 6, 7, 8, 9])
        r2, _ = build(mem, [5, 6, 7, 8, 10])
        assert r1 != r2

    def test_incremental_matches_bulk(self, mem):
        words = [0, 7, 0, 0, 255, 1 << 40, 0, 3, 0, 0, 0, 9]
        bulk, bh = build(mem, words)
        root, height = build(mem, [0] * len(words))
        for i, w in enumerate(words):
            if w:
                root = dag.write_words_bulk(mem, root, height, {i: w})
        assert root == bulk

    def test_write_then_erase_restores_root(self, mem):
        words = [1, 2, 3, 4, 5, 6, 7]
        r1, h = build(mem, words)
        r2 = dag.write_words_bulk(mem, dag.retain_entry(mem, r1) and r1, h, {3: 99})
        # note: retain above keeps r1 alive through the functional update
        r3 = dag.write_words_bulk(mem, r2, h, {3: 4})
        assert r3 == r1


class TestSharing:
    def test_shared_suffix_shares_lines(self, mem):
        # Figure 1: a string and an aligned substring share lines.
        long_words = list(range(100, 100 + 64))
        sub_words = long_words[:32]
        r1, _ = build(mem, long_words)
        before = mem.footprint_lines()
        r2, _ = build(mem, sub_words)
        added = mem.footprint_lines() - before
        # the prefix's leaves already exist; only interior glue may differ
        assert added <= 2

    def test_repeated_blocks_dedup(self, mem):
        block = [11, 22, 33, 44, 55, 66, 77, 88]
        r1, _ = build(mem, block * 16)
        w = mem.words_per_line
        # unique leaf lines: only the distinct blocks
        assert mem.footprint_lines() < 16 * len(block) // w


class TestPathCompaction:
    def test_single_value_deep_is_one_line(self, mem):
        root, height = build(mem, [0] * 4095 + [1 << 50])
        assert is_ref(root)
        assert ref_path(root)  # compacted path to the single leaf
        assert mem.footprint_lines() == 1

    def test_path_read_hits_and_misses(self, mem):
        root, height = build(mem, [0] * 100 + [1 << 50] + [0] * 27)
        assert dag.read_word(mem, root, height, 100) == 1 << 50
        assert dag.read_word(mem, root, height, 99) == 0
        assert dag.read_word(mem, root, height, 101) == 0


class TestDataCompaction:
    def test_small_ints_inline(self, mem):
        root, height = build(mem, [1, 2, 3, 4])
        assert is_pack(root)
        assert mem.footprint_lines() == 0  # fully inlined, no lines at all

    def test_two_32bit_values_pack(self, mem):
        root, _ = build(mem, [0xAAAA_BBBB, 0xCCCC_DDDD])
        assert is_pack(root)
        assert pack_fields(root)[0] == 4

    def test_wide_values_do_not_inline(self, mem):
        root, _ = build(mem, [1 << 40, 1 << 40])
        assert is_ref(root)

    def test_inline_reads_back(self, mem):
        words = [9, 8, 7, 6, 5, 0, 0, 1]
        root, height = build(mem, words)
        assert dag.gather_words(mem, root, height, 0, 8) == words


class TestPackedContentPins:
    """Bytes and PLIDs recorded when a pack was a tagged object: a pack
    that became an int hashes, places and fingerprints as it did."""

    def test_a_packed_segment_root(self):
        machine = Machine()
        root = machine.segmap.entry(machine.create_segment([1, 2, 3])).root
        assert root == pack_for((1, 2, 3))
        assert encode_word(root).hex() == (
            "49010303" "0000000000000001" "0000000000000002"
            "0000000000000003")

    def test_a_pack_inside_an_interior_line(self):
        machine = Machine()
        vsid = machine.create_segment([1 << 63, (1 << 63) + 1, 5, 0])
        lines = dict(dag.walk_lines(machine.mem.store,
                                    machine.segmap.entry(vsid).root))
        assert {plid: encode_line(line).hex()
                for plid, line in lines.items()} == {
            120083: "44" "8000000000000000" "44" "8000000000000001",
            89847: "50" "000000000001d513"  # the leaf line, 120083
                   "49010101" "0000000000000005"
                   "44" "0000000000000000" "44" "0000000000000000",
        }
        assert dag.segment_fingerprint(machine, vsid).hex() == \
            "377a9926a01da35374da882a536030db"

    def test_packs_in_map_leaf_slots(self):
        machine = Machine()
        kvp = HMap.create(machine)
        kvp.put(b"k", b"v")
        kvp.put(b"key-2", b"\x01\x02\x03\x04")
        packed = {plid: encode_line(line).hex()
                  for plid, line in dag.walk_lines(
                      machine.mem.store, machine.segmap.entry(kvp.vsid).root)
                  if any(is_pack(w) for w in line)}
        assert packed == {
            # a key's packed root beside its slot's meta word
            125231: "490801016b00000000000000440000000100000003",
            119616: "490801017600000000000000440000000100000003",
            109736: "490801016b65792d3200000044000000010000000b",
            84071: "490801010102030400000000440000000100000009",
            # the count word's pack beside the slot spine
            81313: "490101010000000000000002" "440000000000000000"
                   "5000000000000198ce0100020001000000000100000000020301"
                   "0102" "440000000000000000",
        }
        assert dag.segment_fingerprint(machine, kvp.vsid).hex() == \
            "580587d5629150c9dc2133a038816ba3"


class TestGrow:
    def test_grow_preserves_content(self, mem):
        words = list(range(50, 70))
        root, height = build(mem, words)
        grown = dag.grow_entry(mem, root, height, height + 3)
        got = dag.gather_words(mem, grown, height + 3, 0, len(words))
        assert got == words

    def test_grow_is_canonical(self, mem):
        words = list(range(50, 70))
        r1, h = build(mem, words)
        grown = dag.grow_entry(mem, r1, h, h + 2)
        r2 = dag.build_entry(mem, words, h + 2)
        assert grown == r2


class TestIterNonzero:
    def test_sparse_iteration(self, mem):
        updates = {3: 30, 77: 70, 500: 5, 1023: 11}
        root, height = build(mem, [0] * 1024)
        height = dag.height_for(mem, 1024)
        root = dag.write_words_bulk(mem, 0, height, updates)
        found = list(dag.iter_nonzero(mem, root, height))
        assert found == sorted(updates.items())

    def test_start_and_stop(self, mem):
        root, height = build(mem, list(range(1, 33)))
        found = list(dag.iter_nonzero(mem, root, height, start=10, stop=13))
        assert found == [(10, 11), (11, 12), (12, 13)]

    def test_zero_segment_yields_nothing(self, mem):
        assert list(dag.iter_nonzero(mem, 0, 3)) == []


class TestGatherWords:
    def test_leaves_no_cyclic_garbage(self, mem, gc_disabled):
        words = list(range(1000, 1200))
        root, height = build(mem, words)
        gc.collect()
        for start in range(0, 160, 7):
            assert dag.gather_words(mem, root, height, start, 40) \
                == words[start:start + 40]
        assert gc.collect() == 0


class TestRefcountHygiene:
    def test_release_reclaims_everything(self, mem):
        root, _ = build(mem, list(range(1000, 1300)))
        dag.release_entry(mem, root)
        assert mem.footprint_lines() == 0

    def test_cow_update_shares_then_reclaims(self, mem):
        words = list(range(2000, 2128))
        r1, h = build(mem, words)
        dag.retain_entry(mem, r1)
        r2 = dag.write_words_bulk(mem, r1, h, {0: 1})
        # both versions alive, mostly shared
        total = mem.footprint_lines()
        dag.release_entry(mem, r2)
        dag.release_entry(mem, r1)
        assert mem.footprint_lines() == 0
        mem.store.check_refcounts()

    def test_leaf_refs_keep_subobjects_alive(self, mem):
        value, _ = build(mem, list(range(3000, 3040)))
        holder = dag.write_words_bulk(mem, 0, 2, {1: value})
        # stored words are borrowed: the holder's leaf took its own
        # reference, so the creator releases its handle ...
        dag.release_entry(mem, value)
        assert mem.footprint_lines() > 0  # value kept alive by holder
        # ... and dropping the holder reclaims the value transitively.
        dag.release_entry(mem, holder)
        assert mem.footprint_lines() == 0
