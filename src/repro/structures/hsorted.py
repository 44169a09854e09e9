"""String-ordered maps — the paper's two-array construction (§4.1).

"An ordered collection indexed by a string value can be realized using
two arrays, one mapping the root PLID of the string segment to the
corresponding value and a second segment for storing the values in order
for iteration. The memory deduplication minimizes the space overhead
that this two-array solution would incur in a conventional memory."

:class:`HSortedMap` implements exactly that: an :class:`HMap` for point
lookups by key identity, plus an *order index* segment holding the key
root entries in lexicographic key order. The order index stores
references, so it adds four words per key, not a copy of the key — and
those reference words dedup against the map's own slots.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional, Tuple

from repro.core.machine import Machine
from repro.segments.anon import AnonSegment, pack_meta, read_ref_slot
from repro.structures.hmap import HMap


class HSortedMap:
    """Map with lexicographically ordered iteration and range scans."""

    def __init__(self, machine: Machine, kvp: HMap, index_vsid: int) -> None:
        self.machine = machine
        self.kvp = kvp
        self.index_vsid = index_vsid

    @classmethod
    def create(cls, machine: Machine) -> "HSortedMap":
        """Create an empty sorted map."""
        return cls(machine, HMap.create(machine), machine.create_segment([]))

    # ------------------------------------------------------------------
    # order-index helpers (2 words per key: key root entry + shape)

    def _index_keys(self) -> List[bytes]:
        """Decode the order index into its key byte strings."""
        out: List[bytes] = []
        length = self.machine.segment_length(self.index_vsid)
        if length == 0:
            return out
        with self.machine.snapshot(self.index_vsid) as snap:
            words = snap.read_range(0, length)
        for at in range(0, length, 2):
            meta = words[at + 1]
            if meta == 0:
                continue
            out.append(read_ref_slot(self.machine.mem, words[at], meta))
        return out

    def _rewrite_index(self, keys: List[bytes]) -> None:
        """Rebuild the order index for the given sorted key list."""
        segments = [AnonSegment.from_bytes(self.machine.mem, key)
                    for key in keys]
        try:
            updates = {}
            for i, (key, seg) in enumerate(zip(keys, segments)):
                updates[2 * i] = seg.root
                updates[2 * i + 1] = pack_meta(seg.height, seg.length,
                                               len(key))
            new_vsid = self.machine.create_segment([])
            if updates:
                self.machine.write_words(new_vsid, updates)
            old = self.index_vsid
            self.index_vsid = new_vsid
            self.machine.drop_segment(old)
        finally:
            for seg in segments:
                seg.release()

    # ------------------------------------------------------------------
    # operations

    def put(self, key: bytes, value: bytes) -> bool:
        """Insert or update; keeps the order index sorted."""
        was_new = self.kvp.put(key, value)
        if was_new:
            keys = self._index_keys()
            bisect.insort(keys, key)
            self._rewrite_index(keys)
        return was_new

    def get(self, key: bytes) -> Optional[bytes]:
        """Point lookup (through the identity-indexed map)."""
        return self.kvp.get(key)

    def delete(self, key: bytes) -> bool:
        """Remove a key from both structures."""
        removed = self.kvp.delete(key)
        if removed:
            keys = self._index_keys()
            keys.remove(key)
            self._rewrite_index(keys)
        return removed

    def __len__(self) -> int:
        return len(self.kvp)

    def items_ordered(self) -> Iterator[Tuple[bytes, bytes]]:
        """Iterate ``(key, value)`` in lexicographic key order."""
        for key in self._index_keys():
            value = self.kvp.get(key)
            if value is not None:
                yield key, value

    def range(self, lo: bytes, hi: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """Iterate keys in ``[lo, hi)`` in order."""
        keys = self._index_keys()
        start = bisect.bisect_left(keys, lo)
        stop = bisect.bisect_left(keys, hi)
        for key in keys[start:stop]:
            value = self.kvp.get(key)
            if value is not None:
                yield key, value

    def first(self) -> Optional[Tuple[bytes, bytes]]:
        """The smallest key and its value."""
        for item in self.items_ordered():
            return item
        return None

    def drop(self) -> None:
        """Release both structures."""
        self.kvp.drop()
        self.machine.drop_segment(self.index_vsid)
