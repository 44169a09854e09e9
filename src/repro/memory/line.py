"""The HICAMP line model: fixed-size lines of tagged 64-bit words.

A memory line holds ``line_bytes / 8`` words. A word is one ``int`` in
one of three ranges:

* a plain 64-bit **data word**: ``[0, 2**64)``;
* a **PLID reference**: negative — a tagged pointer to another line,
  optionally carrying a *path-compaction* suffix (Figure 4a): the
  sequence of intra-line positions that a chain of elided single-child
  interior nodes would have traversed;
* an **inline value pack**: ``2**64`` and up — the *data-compaction*
  encoding (Figure 4b): several narrow values packed into one word slot
  together with their element width (:func:`pack`).

The paper stores the tag distinguishing data from PLIDs in spare ECC
bits; here the tag is the range, outside the data range. A reference is
``~x`` for ``x = (digits << 16 | len(path)) << PLID_BITS | plid``
(``digits``: the path read as big-endian bytes), never zero and never a
data word, told apart by one test (:func:`is_ref`). A pack is
``(span << 16 | count << 8 | width) << 64 | values``, the values
little-endian at ``width`` bytes each, first value lowest, so one struct
call reads them; the header above bit 63 is never zero, so one test
tells a pack too (:func:`is_pack`), and its fields are whole bytes, so
the hash encoding's header is read straight off. Content-uniqueness and
hashing operate on a canonical byte encoding of the tagged words
(:func:`encode_line`), so two lines are duplicates exactly when their
tagged contents are identical; :func:`is_word` checks a word that comes
from outside.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

from repro.params import PLID_BITS, WORD_MASK

#: The reserved PLID of the all-zero line. Reading it at any level yields
#: zero content; looking up all-zero content returns it without allocation.
ZERO_PLID = 0

#: the PLID field of a reference word's complement
PLID_MASK = (1 << PLID_BITS) - 1


def ref(plid: int, path: Sequence[int] = ()) -> int:
    """The reference word to line ``plid`` with path-compaction suffix
    ``path``: the way positions of the elided single-child interior
    nodes, from the level just below this word down toward the target."""
    if not 0 <= plid <= PLID_MASK or len(path) > 0xFFFF:
        raise ValueError("PLID %d or a path of %d digits does not fit a "
                         "reference word" % (plid, len(path)))
    return ~((int.from_bytes(bytes(path), "big") << 16 | len(path))
             << PLID_BITS | plid)


def is_ref(word: int) -> bool:
    """True when ``word`` is a reference word (the tag test)."""
    return word < 0


def ref_plid(word: int) -> int:
    """The PLID a reference word names."""
    return ~word & PLID_MASK


def ref_path(word: int) -> bytes:
    """A reference word's path-compaction suffix, one digit per byte."""
    tail = ~word >> PLID_BITS
    return (tail >> 16).to_bytes(tail & 0xFFFF, "big")


#: ``_PACKS[count << 8 | width]``: the struct holding ``count`` values
#: of ``width`` bytes, little-endian — one entry per shape that fits 8 bytes
_PACKS = {count << 8 | width: struct.Struct("<%d%s" % (count, code))
          for width, code in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))
          for count in range(8 // width + 1)}


def pack(width: int, values: Sequence[int], span: int) -> int:
    """The data-compaction word packing ``values`` at ``width`` bytes
    each (1, 2, 4 or 8, all of them in 8 bytes). ``span`` (below 256)
    records how many logical leaf words the packed values replace
    (trailing zero elements of the subtree may be omitted from
    ``values``)."""
    layout = _PACKS.get(len(values) << 8 | width) if 0 < width <= 8 else None
    if layout is None or not 0 <= span <= 0xFF:
        raise ValueError("no pack of %d values at width %r, span %r"
                         % (len(values), width, span))
    try:
        low = int.from_bytes(layout.pack(*values), "little")
    except struct.error:
        raise ValueError("a value of %r does not fit in %d bytes"
                         % (tuple(values), width)) from None
    return (span << 16 | len(values) << 8 | width) << 64 | low


#: ``_PACK_BOUND[n]``: the least value ``n`` values cannot pack at, at
#: the widest width that fits ``n`` of them in one 8-byte slot
_PACK_BOUND = (0,) + tuple(
    1 << 8 * max(w for w in (1, 2, 4, 8) if n * w <= 8) for n in range(1, 9))

#: bytes a value needs -> the narrowest pack width that holds it
_WIDTH_FOR = (1, 1, 2, 4, 4, 8, 8, 8, 8)


def pack_for(words: Sequence[int]) -> Optional[int]:
    """The pack data compaction makes of data ``words`` (Figure 4b): the
    values left when trailing zeros are dropped, all at the narrowest
    width that fits the biggest, in one 8-byte slot, span the count — or
    None when there are none or they do not fit (a reference or a pack
    never does)."""
    n = len(words)
    while n and not words[n - 1]:
        n -= 1
    if not 0 < n <= 8:
        return None
    values = words[:n]
    biggest = max(values)
    if biggest >= _PACK_BOUND[n] or min(values) < 0:
        return None
    return pack(_WIDTH_FOR[biggest.bit_length() + 7 >> 3], values, n)


def is_pack(word: int) -> bool:
    """True when ``word`` is a data-compaction pack (the tag test)."""
    return word > WORD_MASK


def pack_values(word: int) -> Tuple[int, ...]:
    """A pack's values, trailing zeros as stored."""
    return _PACKS[word >> 64 & 0xFFFF].unpack_from(
        (word & WORD_MASK).to_bytes(8, "little"))


def pack_fields(word: int) -> Tuple[int, Tuple[int, ...], int]:
    """``(width, values, span)``: the arguments :func:`pack` took."""
    return word >> 64 & 0xFF, pack_values(word), word >> 80


def is_word(word) -> bool:
    """True when ``word`` is a data word, an int :func:`ref` returns or
    one :func:`pack_for` returns (a canonical pack) — the check for a
    word from outside (a wire frame, an image, a caller's store)."""
    if type(word) is not int:
        return False
    if word < 0:  # the path's digits fit its length field
        tail = ~word >> PLID_BITS
        return not tail >> 16 >> 8 * (tail & 0xFFFF)
    return word <= WORD_MASK or (word >> 64 & 0xFFFF in _PACKS
                                 and pack_for(pack_values(word)) == word)


#: A line is an immutable tuple of words, each an int.
Line = Tuple[int, ...]

_DATA_WORD = struct.Struct(">sQ").pack


def zero_line(words_per_line: int) -> Line:
    """The all-zero line for the given geometry."""
    return (0,) * words_per_line


def make_leaf(words: Sequence[int], words_per_line: int) -> Line:
    """Build a leaf line from up to ``words_per_line`` data words,
    zero-padded on the right (canonical left-to-right fill, section 2.2)."""
    if len(words) > words_per_line:
        raise ValueError("too many words for one line")
    return tuple(int(w) for w in words) + (0,) * (words_per_line - len(words))


def check_data_words(words: Sequence) -> None:
    """Refuse, with ``ValueError``, any word that is not a data word (an
    int in ``[0, 2**64)``): one struct call, no loop per word."""
    try:
        struct.pack(">%dQ" % len(words), *words)
    except struct.error:
        raise ValueError("a data word is an int in [0, 2**64)") from None


def is_zero_line(line: Line) -> bool:
    """True when every word of the line is a zero data word."""
    # only 0 is falsy: a reference is negative and a pack is 2**64 or more
    return not any(line)


def line_child_plids(line: Line) -> Iterator[int]:
    """Yield the PLIDs of every non-zero child referenced by this line.

    Used by hardware reference counting: when a line is allocated it takes
    a reference on each child; when deallocated those references are
    dropped (the recursive-deallocation state machine of section 3.1).
    """
    for w in line:
        if w < 0 and ~w & PLID_MASK:
            yield ~w & PLID_MASK


def encode_word(word: int) -> bytes:
    """Canonical byte encoding of one tagged word (for hashing)."""
    if word < 0:
        return _DATA_WORD(b"P", ~word & PLID_MASK) + ref_path(word)
    if word <= WORD_MASK:
        return _DATA_WORD(b"D", word)
    width, values, span = pack_fields(word)
    return struct.pack(">s3B%dQ" % len(values), b"I", width, span,
                       len(values), *values)


#: words per line -> its :func:`_data_line_packer`, made on first use
_DATA_LINE_PACKERS: Dict[int, Callable[..., bytes]] = {}


def _data_line_packer(n_words: int) -> Callable[..., bytes]:
    """``pack(*line)`` encoding an all-data line of ``n_words`` words in
    one struct call: ``b"D"`` and eight bytes per word, as
    :func:`encode_word` gives. The tags are interleaved by the generated
    lambda's own signature, which is what saves a Python loop per line.
    A word struct will not take as an unsigned 64-bit integer (a
    reference, a pack) raises ``struct.error``.
    """
    names = ["w%d" % i for i in range(n_words)]
    pack = _DATA_LINE_PACKERS[n_words] = eval(
        "lambda %s: pack(%s)" % (", ".join(names),
                                 ", ".join("D, " + w for w in names)),
        {"pack": struct.Struct(">" + "sQ" * n_words).pack, "D": b"D"})
    return pack


def encode_line(line: Line) -> bytes:
    """Canonical byte encoding of a line's tagged content.

    Two lines are content-duplicates iff their encodings are equal; the
    deduplicating store hashes this encoding to choose the hash bucket and
    the 8-bit signature.
    """
    # an interior line leads with a reference, so only a line that leads
    # with data is offered to the all-data packer
    if line and 0 <= line[0] <= WORD_MASK:
        n = len(line)
        try:
            return (_DATA_LINE_PACKERS.get(n) or _data_line_packer(n))(*line)
        except struct.error:
            pass  # a reference or a pack further in
    # encode_word's bytes, a data word's and a path-free reference's in
    # one struct call
    return b"".join([_DATA_WORD(b"D", w) if 0 <= w <= WORD_MASK
                     else _DATA_WORD(b"P", ~w) if 0 <= ~w <= PLID_MASK
                     else encode_word(w)
                     for w in line])


def pack_words(data: bytes) -> Tuple[int, ...]:
    """Pack a byte string into big-endian 64-bit data words (zero-padded)."""
    if len(data) % 8:
        data = data + b"\x00" * (8 - len(data) % 8)
    return struct.unpack(">%dQ" % (len(data) // 8), data)


def unpack_words(words: Sequence[int], length: int) -> bytes:
    """Inverse of :func:`pack_words`: recover ``length`` bytes."""
    return struct.pack(">%dQ" % len(words), *words)[:length]
