"""Unit tests for the tagged-word line model."""

import random

import pytest

from repro.memory.line import (
    encode_line,
    encode_word,
    is_pack,
    is_ref,
    is_word,
    is_zero_line,
    line_child_plids,
    make_leaf,
    pack,
    pack_fields,
    pack_for,
    pack_values,
    pack_words,
    ref,
    ref_path,
    ref_plid,
    unpack_words,
    zero_line,
)


class TestZeroLine:
    def test_zero_line_width(self):
        assert zero_line(2) == (0, 0)
        assert zero_line(8) == (0,) * 8

    def test_is_zero_line(self):
        assert is_zero_line((0, 0))
        assert not is_zero_line((0, 1))
        assert not is_zero_line((ref(3), 0))
        # a reference to the zero line and an empty pack are not zero words
        assert not is_zero_line((ref(0), 0))
        assert not is_zero_line((pack(1, (), 1), 0))
        assert is_zero_line((0,) * 4) and is_zero_line((False, 0))


class TestMakeLeaf:
    def test_pads_right(self):
        assert make_leaf([1, 2], 4) == (1, 2, 0, 0)

    def test_full(self):
        assert make_leaf([1, 2, 3, 4], 4) == (1, 2, 3, 4)

    def test_too_many_words_rejected(self):
        with pytest.raises(ValueError):
            make_leaf([1, 2, 3], 2)


class TestReferenceWord:
    def test_default_empty_path(self):
        assert ref_path(ref(7)) == b"" and ref_plid(ref(7)) == 7

    def test_hashable_and_equal(self):
        assert ref(7, (1,)) == ref(7, (1,))
        assert ref(7, (1,)) != ref(7, (2,))
        assert hash(ref(7)) == hash(ref(7))

    def test_not_equal_to_int(self):
        # the tag is outside the data range: no reference is a data word,
        # and none is falsy
        for word in (ref(0), ref(7), ref(0, (0,)), ref((1 << 40) - 1)):
            assert is_ref(word) and word and not 0 <= word < 1 << 64
        assert not any(is_ref(w) for w in (0, 7, (1 << 64) - 1, True))
        assert not is_ref(pack(1, (1,), 1))

    def test_fields_roundtrip(self):
        for plid in (0, 1, 12345, (1 << 40) - 1):
            for path in ((), (0,), (3, 0, 1), (0,) * 300, tuple(range(256))):
                word = ref(plid, path)
                assert ref_plid(word) == plid
                assert tuple(ref_path(word)) == path
                # a path-free reference is just the PLID's complement
                assert (word == ~plid) == (not path)

    def test_out_of_range_refused(self):
        with pytest.raises(ValueError):
            ref(1 << 40)
        with pytest.raises(ValueError):
            ref(-1)
        with pytest.raises(ValueError):
            ref(1, (256,))


class TestPack:
    def test_width_bounds(self):
        for width in (0, 3, 257, -1):
            with pytest.raises(ValueError):
                pack(width, (1,), 1)

    def test_overflow_pack_rejected(self):
        with pytest.raises(ValueError):
            pack(4, (1, 2, 3), 3)  # 12 bytes > 8
        with pytest.raises(ValueError):
            pack(1, (1,), 256)  # the span is one byte

    def test_value_range_checked(self):
        for values in ((256,), (-1,), (1.5,)):
            with pytest.raises(ValueError):
                pack(1, values, 1)

    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_every_shape_roundtrips(self, width):
        rng = random.Random(width)
        for count in range(8 // width + 1):
            for span in (count, 8, 0xFF):
                values = tuple(rng.getrandbits(8 * width)
                               for _ in range(count))
                word = pack(width, values, span)
                # the third range: above every data word, never a reference
                assert is_pack(word) and not is_ref(word)
                assert pack_values(word) == values
                assert pack_fields(word) == (width, values, span)
                # canonical only as data compaction builds it
                assert is_word(word) == (word == pack_for(values))

    def test_pack_for_takes_the_narrowest_width(self):
        assert pack_for((1, 2, 3)) == pack(1, (1, 2, 3), 3)
        assert pack_for((1, 256)) == pack(2, (1, 256), 2)
        assert pack_for((7, 1 << 16)) == pack(4, (7, 1 << 16), 2)
        assert pack_for((1 << 32,)) == pack(8, (1 << 32,), 1)
        assert pack_for(tuple(range(1, 9))) == pack(1, tuple(range(1, 9)), 8)
        # too wide for the count, too many, none, a reference, a pack
        for values in ((1, 1 << 32), (1,) * 9, (), (ref(3),),
                       (pack_for((1,)),)):
            assert pack_for(values) is None

    def test_is_word_refuses_what_no_constructor_returns(self):
        word = pack_for((1, 2))
        for bad in (word | 1 << 40,          # a value past count * width
                    3 << 64,                 # width 3
                    (9 << 8 | 1) << 64,      # 9 values of one byte
                    word | 1 << 88,          # a span past one byte
                    pack(2, (1, 2), 2),      # not the narrowest width
                    pack(1, (1, 2), 4),      # a span other than the count
                    pack(1, (1, 0), 2),      # a trailing zero
                    pack(1, (), 0),          # nothing packed
                    ~((1 << 16 | 0) << 40),  # path digits without a length
                    1.0, True, None, "7"):
            assert not is_word(bad), bad
        for good in (0, 7, (1 << 64) - 1, ref(0), ref(9, (0, 3)), word):
            assert is_word(good), good


class TestChildPlids:
    def test_empty_for_data_line(self):
        assert list(line_child_plids((1, 2, 3, 4))) == []

    def test_yields_refs_skipping_zero(self):
        line = (ref(3), 0, ref(0), ref(9, (1, 0)))
        assert list(line_child_plids(line)) == [3, 9]


class TestEncoding:
    def test_data_vs_plid_distinct(self):
        # The same numeric value as data and as a reference must encode
        # differently (the tag is part of content identity).
        assert encode_word(7) != encode_word(ref(7))

    def test_path_part_of_identity(self):
        assert encode_word(ref(7)) != encode_word(ref(7, (0,)))

    def test_inline_identity_includes_width(self):
        assert encode_word(pack(1, (1,), 1)) != encode_word(pack(2, (1,), 1))

    @pytest.mark.parametrize("args, encoded", [
        ((1, (1, 2, 3), 3), "490103030000000000000001"
                            "00000000000000020000000000000003"),
        ((2, (1, 258), 2), "4902020200000000000000010000000000000102"),
        ((4, (7, 0xDEADBEEF), 2), "49040202000000000000000700000000deadbeef"),
        ((8, (0xFEDCBA9876543210,), 1), "49080101fedcba9876543210"),
        ((2, (1, 2), 4), "4902040200000000000000010000000000000002"),
        ((1, (5,), 8), "490108010000000000000005"),
    ], ids=["w1", "w2", "w4", "w8", "trimmed", "trimmed-w1"])
    def test_pack_bytes_are_the_tagged_encoding(self, args, encoded):
        # the bytes a pack hashed to when it was a tagged object: ``I``,
        # width, span, count, one u64 per value — so no PLID moves
        assert encode_word(pack(*args)).hex() == encoded

    def test_line_encoding_concatenates(self):
        line = (1, ref(2))
        assert encode_line(line) == encode_word(1) + encode_word(ref(2))

    def test_distinct_lines_distinct_encodings(self):
        assert encode_line((1, 2)) != encode_line((2, 1))

    @pytest.mark.parametrize("word", [
        0, 7, (1 << 64) - 1, -1, -(1 << 70), 1 << 64, (1 << 64) + 5,
        True, False, pytest.param(ref(0), id="word9"),
        pytest.param(ref(7, (1, 0, 3)), id="word10"),
        pytest.param(pack(2, (1, 2), 4), id="word11"),
    ])
    def test_line_fast_path_equals_per_word_encoding(self, word):
        # encode_line packs data words in place; every word kind —
        # negative ints, which are references, and ints from 2**64 up,
        # which are packs (an empty one, and one whose value bits no
        # count covers) — must still equal the per-word form
        for line in ((word, 9), (9, word), (word,) * 4):
            assert encode_line(line) == b"".join(
                encode_word(w) for w in line)

    @pytest.mark.parametrize("n_words", [2, 3, 4, 8])
    def test_random_lines_equal_per_word_encoding(self, n_words):
        # an all-data line is one struct call; anything struct refuses
        # must come out of the per-word path byte for byte the same
        rng = random.Random(n_words)
        kinds = [
            lambda: rng.getrandbits(64), lambda: rng.getrandbits(64),
            lambda: rng.getrandbits(64), lambda: 0,
            lambda: ref(rng.getrandbits(32)),
            lambda: ref(rng.getrandbits(32), (rng.randrange(4), 1)),
            lambda: pack(2, (rng.getrandbits(16),), 3),
            lambda: True, lambda: -1, lambda: 1 << 64,
        ]
        for _ in range(400):
            line = tuple(rng.choice(kinds)() for _ in range(n_words))
            assert encode_line(line) == b"".join(
                encode_word(w) for w in line)
        assert encode_line(()) == b""


class TestBytePacking:
    def test_roundtrip_exact_multiple(self):
        data = bytes(range(16))
        assert unpack_words(pack_words(data), 16) == data

    def test_roundtrip_with_padding(self):
        data = b"hello"
        words = pack_words(data)
        assert len(words) == 1
        assert unpack_words(words, 5) == data

    def test_empty(self):
        assert pack_words(b"") == ()
        assert unpack_words((), 0) == b""

    def test_pack_words_is_one_word_per_eight_bytes(self):
        data = random.Random(5).randbytes(8 * 37 + 3)
        padded = data + b"\x00" * 5
        assert pack_words(data) == tuple(
            int.from_bytes(padded[i:i + 8], "big")
            for i in range(0, len(padded), 8))

    def test_big_endian_layout(self):
        words = pack_words(b"\x01" + b"\x00" * 7)
        assert words == (0x0100000000000000,)
