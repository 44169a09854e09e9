"""The HICAMP line model: fixed-size lines of tagged 64-bit words.

A memory line holds ``line_bytes / 8`` words. Each word is one of:

* a plain 64-bit **data word** (represented as a Python ``int``);
* a **PLID reference** (:class:`PlidRef`) — a tagged pointer to another
  line, optionally carrying a *path-compaction* suffix (Figure 4a): the
  sequence of intra-line positions that a chain of elided single-child
  interior nodes would have traversed;
* an **inline value pack** (:class:`Inline`) — the *data-compaction*
  encoding (Figure 4b): several narrow values packed into one word slot
  together with their element width.

The paper stores the tag distinguishing data from PLIDs in spare ECC bits;
here the distinction is carried by the Python type. Content-uniqueness and
hashing operate on a canonical byte encoding of the tagged words
(:func:`encode_line`), so two lines are duplicates exactly when their
tagged contents are identical.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Sequence, Tuple, Union

from repro.params import WORD_MASK

#: The reserved PLID of the all-zero line. Reading it at any level yields
#: zero content; looking up all-zero content returns it without allocation.
ZERO_PLID = 0

#: A plain 64-bit data word.
DataWord = int


@dataclass(frozen=True, slots=True)
class PlidRef:
    """A tagged reference word pointing at line ``plid``.

    Attributes:
        plid: the referenced Physical Line ID.
        path: path-compaction suffix — intra-line way positions of the
            elided single-child interior nodes, ordered from the level just
            below this word down toward the target. Empty when no path
            compaction applies. The paper encodes this in unused high-order
            PLID bits; we keep it symbolic and charge its encoded size in
            :func:`encode_line`.
    """

    plid: int
    path: Tuple[int, ...] = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.path:
            return "PlidRef(%d, path=%r)" % (self.plid, self.path)
        return "PlidRef(%d)" % self.plid


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

    def expand(self) -> Tuple[int, ...]:
        """Return the logical leaf words this pack represents."""
        out = list(self.values) + [0] * (self.span - len(self.values))
        return tuple(out)


Word = Union[DataWord, PlidRef, Inline]

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
    padded = tuple(int(w) for w in words) + (0,) * (words_per_line - len(words))
    return padded


def is_zero_line(line: Line) -> bool:
    """True when every word of the line is a zero data word."""
    # only a zero data word is falsy: PlidRef and Inline are plain objects
    return not any(line)


def line_child_plids(line: Line) -> Iterator[int]:
    """Yield the PLIDs of every non-zero child referenced by this line.

    Used by hardware reference counting: when a line is allocated it takes
    a reference on each child; when deallocated those references are
    dropped (the recursive-deallocation state machine of section 3.1).
    """
    for w in line:
        if isinstance(w, PlidRef) and w.plid != ZERO_PLID:
            yield w.plid


def encode_word(word: Word) -> bytes:
    """Canonical byte encoding of one tagged word (for hashing)."""
    if isinstance(word, PlidRef):
        return b"P" + _U64.pack(word.plid) + bytes(word.path)
    if isinstance(word, Inline):
        return (
            b"I"
            + bytes((word.width, word.span, len(word.values)))
            + b"".join(_U64.pack(v) for v in word.values)
        )
    return b"D" + _U64.pack(word & WORD_MASK)


#: words per line -> its :func:`_data_line_packer`, made on first use
_DATA_LINE_PACKERS: Dict[int, Callable[..., bytes]] = {}


def _data_line_packer(n_words: int) -> Callable[..., bytes]:
    """``pack(*line)`` encoding an all-data line of ``n_words`` words in
    one struct call: ``b"D"`` and eight bytes per word, as
    :func:`encode_word` gives. The tags are interleaved by the generated
    lambda's own signature, which is what saves a Python loop per line.
    A word struct will not take as an unsigned 64-bit integer (a tagged
    word, a negative or wider int) raises ``struct.error``.
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
    if line and type(line[0]) is int:
        n = len(line)
        try:
            return (_DATA_LINE_PACKERS.get(n) or _data_line_packer(n))(*line)
        except struct.error:
            pass  # a tagged word further in, or one outside 64 bits
    # a reference word is b"P", its PLID and its path: encode_word's
    # bytes in one struct call
    return b"".join([_DATA_WORD(b"D", w & WORD_MASK) if type(w) is int
                     else _DATA_WORD(b"P", w.plid) + bytes(w.path)
                     if type(w) is PlidRef else encode_word(w)
                     for w in line])


def pack_words(data: bytes) -> Tuple[int, ...]:
    """Pack a byte string into big-endian 64-bit data words (zero-padded)."""
    if len(data) % 8:
        data = data + b"\x00" * (8 - len(data) % 8)
    return struct.unpack(">%dQ" % (len(data) // 8), data)


def unpack_words(words: Sequence[int], length: int) -> bytes:
    """Inverse of :func:`pack_words`: recover ``length`` bytes."""
    return struct.pack(">%dQ" % len(words), *words)[:length]
