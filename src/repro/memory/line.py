"""The HICAMP line model: fixed-size lines of tagged 64-bit words.

A memory line holds ``line_bytes / 8`` words. Each word is one of:

* a plain 64-bit **data word**: an ``int`` in ``[0, 2**64)``;
* a **PLID reference**: a negative ``int`` — a tagged pointer to another
  line, optionally carrying a *path-compaction* suffix (Figure 4a): the
  sequence of intra-line positions that a chain of elided single-child
  interior nodes would have traversed;
* an **inline value pack** (:class:`Inline`) — the *data-compaction*
  encoding (Figure 4b): several narrow values packed into one word slot
  together with their element width.

The paper stores the tag distinguishing data from PLIDs in spare ECC
bits; here the tag is the sign, outside the data range. A reference is
``~x`` for ``x = (digits << 16 | len(path)) << PLID_BITS | plid``
(``digits``: the path read as big-endian bytes), never zero and never a
data word, told apart by one test (:func:`is_ref`). Content-uniqueness
and hashing operate on a canonical byte encoding of the tagged words
(:func:`encode_line`), so two lines are duplicates exactly when their
tagged contents are identical.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Sequence, Tuple, Union

from repro.params import PLID_BITS, WORD_MASK

#: The reserved PLID of the all-zero line. Reading it at any level yields
#: zero content; looking up all-zero content returns it without allocation.
ZERO_PLID = 0

#: A plain 64-bit data word.
DataWord = int

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


def is_ref(word) -> bool:
    """True when ``word`` is a reference word (the tag test)."""
    return type(word) is int and word < 0


def ref_plid(word: int) -> int:
    """The PLID a reference word names."""
    return ~word & PLID_MASK


def ref_path(word: int) -> bytes:
    """A reference word's path-compaction suffix, one digit per byte."""
    tail = ~word >> PLID_BITS
    return (tail >> 16).to_bytes(tail & 0xFFFF, "big")


@dataclass(frozen=True, slots=True)
class Inline:
    """Data-compaction word: ``values`` packed at ``width`` bytes each.

    ``span`` records how many logical leaf words the packed values replace
    (trailing zero elements of the subtree may be omitted from ``values``).
    """

    width: int
    values: Tuple[int, ...]
    span: int

    def __post_init__(self) -> None:
        if self.width not in (1, 2, 4, 8):
            raise ValueError("inline width must be 1, 2, 4 or 8 bytes")
        if len(self.values) * self.width > 8:
            raise ValueError("inline pack exceeds one 64-bit word")
        limit = 1 << (8 * self.width)
        for v in self.values:
            if not 0 <= v < limit:
                raise ValueError("value %d does not fit in %d bytes" % (v, self.width))


Word = Union[DataWord, Inline]  # a data or a reference int, or a pack

#: A line is an immutable tuple of words.
Line = Tuple[Word, ...]

_U64 = struct.Struct(">Q")
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
    # only 0 is falsy: a reference is negative and an Inline is an object
    return not any(line)


def line_child_plids(line: Line) -> Iterator[int]:
    """Yield the PLIDs of every non-zero child referenced by this line.

    Used by hardware reference counting: when a line is allocated it takes
    a reference on each child; when deallocated those references are
    dropped (the recursive-deallocation state machine of section 3.1).
    """
    for w in line:
        if type(w) is int and w < 0 and ~w & PLID_MASK:
            yield ~w & PLID_MASK


def encode_word(word: Word) -> bytes:
    """Canonical byte encoding of one tagged word (for hashing)."""
    if isinstance(word, Inline):
        return (
            b"I"
            + bytes((word.width, word.span, len(word.values)))
            + b"".join(_U64.pack(v) for v in word.values)
        )
    if word < 0:
        return _DATA_WORD(b"P", ~word & PLID_MASK) + ref_path(word)
    return b"D" + _U64.pack(word & WORD_MASK)


#: words per line -> its :func:`_data_line_packer`, made on first use
_DATA_LINE_PACKERS: Dict[int, Callable[..., bytes]] = {}


def _data_line_packer(n_words: int) -> Callable[..., bytes]:
    """``pack(*line)`` encoding an all-data line of ``n_words`` words in
    one struct call: ``b"D"`` and eight bytes per word, as
    :func:`encode_word` gives. The tags are interleaved by the generated
    lambda's own signature, which is what saves a Python loop per line.
    A word struct will not take as an unsigned 64-bit integer (a tagged
    word, a wider int) raises ``struct.error``.
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
    first = line[0] if line else None
    if type(first) is int and first >= 0:
        n = len(line)
        try:
            return (_DATA_LINE_PACKERS.get(n) or _data_line_packer(n))(*line)
        except struct.error:
            pass  # a tagged word further in, or one outside 64 bits
    # encode_word's bytes, a path-free reference's in one struct call
    return b"".join([(_DATA_WORD(b"D", w & WORD_MASK) if w >= 0
                      else _DATA_WORD(b"P", ~w) if ~w <= PLID_MASK
                      else _DATA_WORD(b"P", ~w & PLID_MASK) + ref_path(w))
                     if type(w) is int else encode_word(w)
                     for w in line])


def pack_words(data: bytes) -> Tuple[int, ...]:
    """Pack a byte string into big-endian 64-bit data words (zero-padded)."""
    if len(data) % 8:
        data = data + b"\x00" * (8 - len(data) % 8)
    return struct.unpack(">%dQ" % (len(data) // 8), data)


def unpack_words(words: Sequence[int], length: int) -> bytes:
    """Inverse of :func:`pack_words`: recover ``length`` bytes."""
    return struct.pack(">%dQ" % len(words), *words)[:length]
