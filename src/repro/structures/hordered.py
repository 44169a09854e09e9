"""Timestamp-ordered collections (the section 4.1 example).

"An ordered collection of objects indexed by a 64-bit time stamp can be
efficiently represented as a segment with the VSID of the object stored
at the numeric index equal to its time stamp. In contrast, the same
collection in a conventional memory system would require a red-black
tree or similar data structure."

Each element occupies a two-word slot at ``2 * timestamp``: the value's
root entry and a shape word. Path compaction makes the astronomically
sparse index cheap (a single element costs one leaf line plus a
compacted path), and iterator-register next-non-null gives in-order
traversal and range queries directly.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.core.machine import Machine
from repro.segments.anon import AnonSegment, pack_meta, read_ref_slot
from repro.segments.segment_map import SegmentFlags


class HOrderedCollection:
    """A collection of byte-string payloads ordered by 64-bit timestamp."""

    def __init__(self, machine: Machine, vsid: int) -> None:
        self.machine = machine
        self.vsid = vsid

    @classmethod
    def create(cls, machine: Machine) -> "HOrderedCollection":
        """Create an empty collection (merge-update enabled: concurrent
        inserts at distinct timestamps merge)."""
        vsid = machine.create_segment([0], flags=SegmentFlags.MERGE_UPDATE)
        return cls(machine, vsid)

    @staticmethod
    def _slot(timestamp: int) -> int:
        if timestamp < 0:
            raise ValueError("timestamps are unsigned")
        return 2 * timestamp + 2  # word 0/1 reserved

    def insert(self, timestamp: int, payload: bytes) -> None:
        """Store ``payload`` at ``timestamp`` (replaces an existing one)."""
        seg = AnonSegment.from_bytes(self.machine.mem, payload)
        base = self._slot(timestamp)

        def update(it):
            it.put(seg.root, offset=base)
            it.put(pack_meta(seg.height, seg.length, len(payload)),
                   offset=base + 1)

        try:
            self.machine.atomic_update(self.vsid, update, merge=True)
        finally:
            seg.release()

    def get(self, timestamp: int) -> Optional[bytes]:
        """Payload at exactly ``timestamp``, or None."""
        base = self._slot(timestamp)
        with self.machine.snapshot(self.vsid) as snap:
            meta = snap.read(base + 1)
            if meta == 0:
                return None
            return read_ref_slot(self.machine.mem, snap.read(base), meta)

    def delete(self, timestamp: int) -> bool:
        """Remove the element at ``timestamp``."""
        base = self._slot(timestamp)
        removed: List[bool] = []

        def update(it):
            removed.clear()
            if it.get(base + 1) == 0:
                removed.append(False)
                return
            removed.append(True)
            it.put(0, offset=base)
            it.put(0, offset=base + 1)

        self.machine.atomic_update(self.vsid, update, merge=True)
        return removed[0]

    def scan(self, start: int = 0,
             stop: Optional[int] = None) -> Iterator[Tuple[int, bytes]]:
        """Iterate ``(timestamp, payload)`` in timestamp order.

        This is the red-black-tree replacement: an in-order range scan is
        just next-non-null over the sparse segment, against a stable
        snapshot.
        """
        first = self._slot(start)
        limit = None if stop is None else self._slot(stop)
        with self.machine.snapshot(self.vsid) as snap:
            pending: dict = {}
            for offset, word in snap.iter_nonzero(start=first):
                if limit is not None and offset >= limit:
                    break
                slot = (offset - 2) // 2
                pending.setdefault(slot, {})[(offset - 2) % 2] = word
                entry = pending[slot]
                if 1 in entry:
                    yield slot, read_ref_slot(self.machine.mem,
                                              entry.get(0, 0), entry[1])
                    del pending[slot]

    def first_at_or_after(self, timestamp: int) -> Optional[Tuple[int, bytes]]:
        """The earliest element with timestamp >= the given one."""
        for item in self.scan(start=timestamp):
            return item
        return None

    def drop(self) -> None:
        """Release the collection segment."""
        self.machine.drop_segment(self.vsid)
