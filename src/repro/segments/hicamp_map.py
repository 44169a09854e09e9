"""A virtual segment map stored in a HICAMP segment (section 2.3).

"When the segment map itself is implemented as a HICAMP segment indexed
by VSID, multiple segments can be updated by one atomic update/commit of
the segment map. In particular, the revised segments are not visible to
other threads until the commit of the revised segment map takes place."

Layout: VSID ``v`` occupies the two-word slot at ``8 + 2*v``::

    +0  root entry word (a tagged reference — or Inline for tiny content)
    +1  meta word: [length:47][height:8][flags:7][present:1]

The map segment itself is anchored by one entry in a conventional
:class:`~repro.segments.segment_map.SegmentMap` (hardware would hold this
root in a register); committing a :class:`MapTransaction` is a single
mCAS on that anchor, so:

* all segments revised in the transaction become visible atomically;
* two transactions touching disjoint VSIDs merge instead of aborting
  (slots are tagged fields — same-VSID races are true conflicts);
* reference counting is automatic: the map's leaf lines own the root
  references, so replacing a root reclaims the old version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import BadVsidError, MergeConflictError
from repro.memory.system import MemorySystem
from repro.segments import dag
from repro.segments.dag import Entry
from repro.segments.segment_map import SegmentFlags, SegmentMap

_SLOT_BASE = 8
_MAX_LENGTH = (1 << 47) - 1


def _pack_meta(height: int, length: int, flags: int) -> int:
    if length > _MAX_LENGTH:
        raise ValueError(
            "segment too long (%d words) for a segment-backed map entry"
            % length)
    return (length << 16) | ((height & 0xFF) << 8) | ((flags & 0x7F) << 1) | 1


def _unpack_meta(meta: int) -> Tuple[int, int, int]:
    return (meta >> 8) & 0xFF, meta >> 16, (meta >> 1) & 0x7F


@dataclass
class MapEntryView:
    """A decoded map slot. The root is *borrowed* from the map segment —
    valid while the map version it was read from stays reachable."""

    root: Entry
    height: int
    length: int
    flags: SegmentFlags


class HicampSegmentMap:
    """Segment map held in HICAMP memory, committed by root CAS."""

    def __init__(self, mem: MemorySystem, anchor: Optional[SegmentMap] = None) -> None:
        self.mem = mem
        self.anchor = anchor or SegmentMap(mem)
        self._anchor_vsid = self.anchor.create(
            0, 0, _SLOT_BASE, SegmentFlags.MERGE_UPDATE)
        self._next_vsid = 1

    # ------------------------------------------------------------------

    @property
    def map_vsid(self) -> int:
        """The anchor VSID of the map segment itself."""
        return self._anchor_vsid

    def allocate_vsid(self) -> int:
        """Reserve a VSID (slot); contents are written by a transaction."""
        vsid = self._next_vsid
        self._next_vsid += 1
        return vsid

    def create(self, root: Entry = 0, height: int = 0, length: int = 0,
               flags: SegmentFlags = SegmentFlags.NONE) -> int:
        """Create a segment entry (single-writer convenience).

        Takes over the caller's reference on ``root``.
        """
        vsid = self.allocate_vsid()
        txn = self.begin()
        txn.set_root(vsid, root, height, length, flags)
        if not txn.commit():
            raise MergeConflictError("map create lost an unmergeable race")
        return vsid

    def entry(self, vsid: int) -> MapEntryView:
        """Decode the current slot for ``vsid``."""
        anchor = self.anchor.entry(self._anchor_vsid)
        base = _SLOT_BASE + 2 * vsid
        capacity = dag.entry_capacity(self.mem, anchor.height)
        if base + 1 >= capacity:
            raise BadVsidError("VSID %d is not mapped" % vsid)
        # a slot is two words of one leaf line: one descent
        root, meta = dag.read_word(self.mem, anchor.root, anchor.height,
                                   base, 2)
        if meta == 0:
            raise BadVsidError("VSID %d is not mapped" % vsid)
        height, length, flags = _unpack_meta(meta)
        return MapEntryView(root, height, length, SegmentFlags(flags))

    def read_segment(self, vsid: int) -> list:
        """Convenience: the full content of a mapped segment."""
        view = self.entry(vsid)
        if view.length == 0:
            return []
        return dag.gather_words(self.mem, view.root, view.height, 0,
                                view.length)

    def begin(self) -> "MapTransaction":
        """Start a multi-segment transaction against the current map."""
        return MapTransaction(self)

    def drop(self, vsid: int) -> None:
        """Remove a mapping (its content is reclaimed if unshared)."""
        txn = self.begin()
        txn.clear(vsid)
        if not txn.commit():
            raise MergeConflictError("map drop lost an unmergeable race")


class MapTransaction:
    """Buffered updates to several segments, committed by one mCAS."""

    def __init__(self, hmap: HicampSegmentMap) -> None:
        self._map = hmap
        self.mem = hmap.mem
        anchor = hmap.anchor.entry(hmap.map_vsid)
        # pin the base map version: another transaction's commit must not
        # reclaim it while this transaction builds against it
        self._base_root = anchor.root
        dag.retain_entry(self.mem, self._base_root)
        self._base_height = anchor.height
        self._base_length = anchor.length
        # staged slot words; staged root entries are caller-owned until
        # commit/abort
        self._updates: Dict[int, object] = {}
        self._owned: Dict[int, Entry] = {}
        self._done = False

    def set_root(self, vsid: int, new_root: Entry, height: int, length: int,
                 flags: SegmentFlags = SegmentFlags.NONE) -> None:
        """Stage a new version for ``vsid`` (takes over the caller's
        reference on ``new_root``)."""
        base = _SLOT_BASE + 2 * vsid
        if base in self._owned:
            dag.release_entry(self.mem, self._owned.pop(base))
        self._updates[base] = new_root
        self._updates[base + 1] = _pack_meta(height, length, int(flags))
        self._owned[base] = new_root

    def clear(self, vsid: int) -> None:
        """Stage removal of ``vsid``."""
        base = _SLOT_BASE + 2 * vsid
        if base in self._owned:
            dag.release_entry(self.mem, self._owned.pop(base))
        self._updates[base] = 0
        self._updates[base + 1] = 0

    def commit(self) -> bool:
        """Build the revised map and mCAS it over the anchor.

        Returns False on a true conflict (another transaction changed one
        of the same slots incompatibly); disjoint transactions merge.
        """
        from repro.core.transactions import mcas

        if self._done:
            raise MergeConflictError("transaction already finished")
        self._done = True
        length = max(self._base_length,
                     max(self._updates, default=0) + 1)
        root, height = self._base_root, self._base_height
        dag.retain_entry(self.mem, root)
        needed = dag.height_for(self.mem, max(1, length))
        if needed > height:
            root = dag.grow_entry(self.mem, root, height, needed)
            height = needed
        new_root = dag.write_words_bulk(self.mem, root, height, self._updates)
        ok = mcas(self.mem, self._map.anchor, self._map.map_vsid,
                  (self._base_root, self._base_height),
                  (new_root, height), length)
        # release the staged (caller-transferred) references: the map's
        # leaves own them now (or, on failure, they are simply dropped)
        for entry in self._owned.values():
            dag.release_entry(self.mem, entry)
        self._owned.clear()
        dag.release_entry(self.mem, self._base_root)  # unpin the base map
        return ok

    def abort(self) -> None:
        """Discard staged updates, releasing transferred references."""
        if self._done:
            return
        self._done = True
        for entry in self._owned.values():
            dag.release_entry(self.mem, entry)
        self._owned.clear()
        self._updates.clear()
        dag.release_entry(self.mem, self._base_root)
