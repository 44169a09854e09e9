"""Unit tests for the tagged-word line model."""

import random

import pytest

from repro.memory.line import (
    Inline,
    PlidRef,
    encode_line,
    encode_word,
    is_zero_line,
    line_child_plids,
    make_leaf,
    pack_words,
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
        assert not is_zero_line((PlidRef(3), 0))
        # a reference to the zero line and an empty pack are not zero words
        assert not is_zero_line((PlidRef(0), 0))
        assert not is_zero_line((Inline(width=1, values=(), span=1), 0))
        assert is_zero_line((0,) * 4) and is_zero_line((False, 0))


class TestMakeLeaf:
    def test_pads_right(self):
        assert make_leaf([1, 2], 4) == (1, 2, 0, 0)

    def test_full(self):
        assert make_leaf([1, 2, 3, 4], 4) == (1, 2, 3, 4)

    def test_too_many_words_rejected(self):
        with pytest.raises(ValueError):
            make_leaf([1, 2, 3], 2)


class TestPlidRef:
    def test_default_empty_path(self):
        assert PlidRef(7).path == ()

    def test_hashable_and_equal(self):
        assert PlidRef(7, (1,)) == PlidRef(7, (1,))
        assert PlidRef(7, (1,)) != PlidRef(7, (2,))
        assert hash(PlidRef(7)) == hash(PlidRef(7))

    def test_not_equal_to_int(self):
        assert PlidRef(7) != 7
        assert not PlidRef(7) == 0


class TestInline:
    def test_expand_pads_span(self):
        inline = Inline(width=1, values=(5, 6), span=4)
        assert inline.expand() == (5, 6, 0, 0)

    def test_width_bounds(self):
        with pytest.raises(ValueError):
            Inline(width=3, values=(1,), span=1)

    def test_overflow_pack_rejected(self):
        with pytest.raises(ValueError):
            Inline(width=4, values=(1, 2, 3), span=3)  # 12 bytes > 8

    def test_value_range_checked(self):
        with pytest.raises(ValueError):
            Inline(width=1, values=(256,), span=1)


class TestChildPlids:
    def test_empty_for_data_line(self):
        assert list(line_child_plids((1, 2, 3, 4))) == []

    def test_yields_refs_skipping_zero(self):
        line = (PlidRef(3), 0, PlidRef(0), PlidRef(9, (1, 0)))
        assert list(line_child_plids(line)) == [3, 9]


class TestEncoding:
    def test_data_vs_plid_distinct(self):
        # The same numeric value as data and as a reference must encode
        # differently (the tag is part of content identity).
        assert encode_word(7) != encode_word(PlidRef(7))

    def test_path_part_of_identity(self):
        assert encode_word(PlidRef(7)) != encode_word(PlidRef(7, (0,)))

    def test_inline_identity_includes_width(self):
        a = Inline(width=1, values=(1,), span=1)
        b = Inline(width=2, values=(1,), span=1)
        assert encode_word(a) != encode_word(b)

    def test_line_encoding_concatenates(self):
        line = (1, PlidRef(2))
        assert encode_line(line) == encode_word(1) + encode_word(PlidRef(2))

    def test_distinct_lines_distinct_encodings(self):
        assert encode_line((1, 2)) != encode_line((2, 1))

    @pytest.mark.parametrize("word", [
        0, 7, (1 << 64) - 1, -1, -(1 << 70), 1 << 64, (1 << 64) + 5,
        True, False, PlidRef(0), PlidRef(7, (1, 0, 3)),
        Inline(width=2, values=(1, 2), span=4),
    ])
    def test_line_fast_path_equals_per_word_encoding(self, word):
        # encode_line packs data words in place; every word kind — and
        # every int the mask folds — must still equal the per-word form
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
            lambda: PlidRef(rng.getrandbits(32)),
            lambda: PlidRef(rng.getrandbits(32), (rng.randrange(4), 1)),
            lambda: Inline(width=2, values=(rng.getrandbits(16),), span=3),
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
