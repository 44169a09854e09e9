"""Anonymous segments: content-unique DAGs without a segment-map entry.

Structures like :class:`repro.structures.hmap.HMap` embed sub-objects
(keys, values) directly by their root entry word, as the paper's
memcached stores "the root PLID for the associated value" in the map
(section 4.4). Such sub-objects need no VSID: the embedding line's
reference keeps them alive, and dedup makes equal contents share one
root.

:class:`AnonSegment` is the value-handle for such content: a
``(root entry, height, length)`` triple with an owned reference, plus the
packing helpers used to move byte strings in and out of word form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.memory.line import PlidRef, pack_words, unpack_words
from repro.memory.system import MemorySystem
from repro.segments import dag
from repro.segments.dag import Entry


@dataclass
class AnonSegment:
    """A content-unique anonymous segment handle (owned root reference)."""

    mem: MemorySystem
    root: Entry
    height: int
    length: int  # logical length in words

    @classmethod
    def from_words(cls, mem: MemorySystem, words: Sequence) -> "AnonSegment":
        """Build (or find, via dedup) the canonical DAG for ``words``."""
        if len(words) == 0:
            return cls(mem, 0, 0, 0)
        root, height = dag.build_segment(mem, words)
        return cls(mem, root, height, len(words))

    @classmethod
    def from_bytes(cls, mem: MemorySystem, data: bytes) -> "AnonSegment":
        """Build from a byte string (packed big-endian into words).

        With the structural memo enabled, a repeated payload resolves to
        its memoized root in one probe — taking the same owned reference
        a full rebuild would have netted (the rebuild's intermediate
        dedup hits all cancel) — instead of packing and rebuilding the
        whole canonical DAG.
        """
        if not data:
            return cls(mem, 0, 0, 0)
        memo = mem.memo
        if not memo.enabled:
            return cls.from_words(mem, pack_words(data))
        cached = memo.get_segment(data)
        if cached is not None:
            root, height, length = cached
            dag.retain_entry(mem, root)
            return cls(mem, root, height, length)
        seg = cls.from_words(mem, pack_words(data))
        memo.put_segment(data, seg.root, seg.height, seg.length)
        return seg

    def words(self) -> List:
        """The full content as words."""
        if self.length == 0:
            return []
        return dag.gather_words(self.mem, self.root, self.height, 0, self.length)

    def to_bytes(self, byte_length: int) -> bytes:
        """Recover ``byte_length`` bytes of packed content."""
        return unpack_words(self.words(), byte_length)

    def read(self, offset: int):
        """One word of content."""
        if offset >= self.length:
            return 0
        return dag.read_word(self.mem, self.root, self.height, offset)

    def key(self) -> bytes:
        """Canonical identity: equal iff contents (and lengths) are equal."""
        return (dag.entry_key(self.root)
                + bytes((self.height,))
                + self.length.to_bytes(8, "big"))

    def retain(self) -> "AnonSegment":
        """Take an extra owned reference (for a second handle)."""
        dag.retain_entry(self.mem, self.root)
        return AnonSegment(self.mem, self.root, self.height, self.length)

    def release(self) -> None:
        """Drop the handle's reference."""
        dag.release_entry(self.mem, self.root)
        self.root = 0

    def __enter__(self) -> "AnonSegment":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


def pack_meta(height: int, word_length: int, byte_length: int) -> int:
    """Pack an anonymous segment's shape into one data word.

    Layout: ``[height:8][word_length:24][byte_length:31][present:1]``.
    The low ``present`` bit keeps the word non-zero even for empty
    content, so "mapped to empty" and "absent" stay distinct.
    """
    if word_length >= 1 << 24 or byte_length >= 1 << 31:
        raise ValueError("segment too large for packed metadata")
    return (height << 56) | (word_length << 32) | (byte_length << 1) | 1


def unpack_meta(meta: int) -> Tuple[int, int, int]:
    """Inverse of :func:`pack_meta`: ``(height, word_length, byte_length)``."""
    if not meta & 1:
        raise ValueError("not a packed metadata word: %r" % meta)
    return (meta >> 56) & 0xFF, (meta >> 32) & 0xFFFFFF, (meta >> 1) & 0x7FFFFFFF


def read_ref_slot(mem: MemorySystem, entry, meta: int) -> bytes:
    """Materialize the bytes referenced by an ``(entry, meta)`` slot pair.

    The common convention of HMap, HQueue, HSortedMap,
    HOrderedCollection and the database views: a slot stores a
    sub-object as its root entry word plus a :func:`pack_meta` shape
    word. The caller must hold the slot's containing version alive (e.g.
    via a snapshot) while reading; that pin is also what keeps the
    root's PLID from being reused.

    With the structural memo enabled, a root line the segment memo
    built from bytes is answered with those bytes
    (:meth:`~repro.memory.memo.StructuralMemo.get_payload`): content
    uniqueness makes them a function of the root, so the DAG walk and
    its line reads are skipped. A store that verifies reads (section
    3.1) always walks, so every line is read and rehashed.
    """
    height, word_len, byte_len = unpack_meta(meta)
    if word_len == 0:
        return b""
    memo = mem.memo
    if memo.enabled and type(entry) is PlidRef and not mem.store.verify_reads:
        data = memo.get_payload(entry, height, word_len, byte_len)
        if data is not None:
            return data
    words = dag.gather_words(mem, entry, height, 0, word_len)
    return unpack_words(words, byte_len)
