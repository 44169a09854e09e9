"""The HICAMP map: a sparse array indexed by key-content identity
(sections 4.1 and 4.4).

A map is one segment. Each entry occupies a 4-word slot at an offset
*derived from the key segment's content-unique root*: deduplication
guarantees any given key content has exactly one root, so the offset is a
collision-free index — no hashing of the key, no chains, no rebalancing,
and a worst-case bound a conventional hash table cannot give.

Slot layout (``SLOT_BASE + 4 * index_of(key)``)::

    +0  key root entry      (pins the key content, keeps its PLID stable)
    +1  key shape word      (height / word length / byte length)
    +2  value root entry    (the paper's "root PLID for the associated value")
    +3  value shape word

Word offset 0 of the segment holds the entry count; being a plain data
word, concurrent inserts merge to the correct sum under merge-update.
Inserting writes a zero slot and deleting zeroes a non-zero slot, so
concurrent non-conflicting updates merge instead of aborting
(section 4.3).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.machine import Machine
from repro.core.transactions import atomic_update
from repro.errors import MergeConflictError
from repro.memory.line import PlidRef
from repro.segments import dag
from repro.segments.segment_map import SegmentFlags
from repro.structures.anon import (
    AnonSegment,
    pack_meta,
    read_ref_slot,
    unpack_meta,
)

#: Word offsets 0..15 are reserved for map metadata (0 = entry count).
SLOT_BASE = 16
COUNT_OFFSET = 0

_WIDE_SPACE = 1 << 120  # index space for compacted (non-PLID) key roots


def _index_for_key(root, height: int, byte_length: int) -> int:
    """Collision-free slot index from a key segment's identity: its root
    entry and height, as a build returns them or the segment memo
    records them, and the key's byte length.

    A key whose root is a plain line reference indexes by
    ``(PLID, height, byte length)`` — the content-uniqueness of segments
    makes this exact. Compacted roots (tiny keys) fall back to the full
    canonical encoding, placed in a disjoint, higher index space.
    """
    if type(root) is PlidRef and not root.path:
        return ((root.plid << 8 | height) << 36) | byte_length
    raw = dag.entry_key(root) + bytes((height,)) + byte_length.to_bytes(5, "big")
    return _WIDE_SPACE + int.from_bytes(raw, "big")


class HMap:
    """Map from byte-string keys to byte-string values."""

    def __init__(self, machine: Machine, vsid: int) -> None:
        self.machine = machine
        self.vsid = vsid

    @classmethod
    def create(cls, machine: Machine,
               flags: SegmentFlags = SegmentFlags.MERGE_UPDATE) -> "HMap":
        """Create an empty map (merge-update enabled by default)."""
        vsid = machine.create_segment([0] * SLOT_BASE, flags=flags)
        return cls(machine, vsid)

    # ------------------------------------------------------------------
    # internals

    def _key_segment(self, key: bytes) -> Tuple[AnonSegment, int]:
        """Build/find the key's segment; returns (handle, slot base)."""
        seg = AnonSegment.from_bytes(self.machine.mem, key)
        index = _index_for_key(seg.root, seg.height, len(key))
        return seg, SLOT_BASE + 4 * index

    def _known_slot(self, key: bytes) -> Optional[int]:
        """Slot base of a key the segment memo names, or None.

        Taken without a reference: the memo's root *is* the root a build
        would return (equal contents have one representation), and
        :meth:`~repro.memory.memo.StructuralMemo.on_dealloc` drops the
        entry before its PLID can be reused, so the slot it names holds
        this key or nothing. A read needs no more, because the caller's
        snapshot pins the map and with it every key the map holds.
        """
        memo = self.machine.mem.memo
        if not (memo.enabled and key):
            return None
        known = memo.get_segment(key)
        if known is None:
            return None
        return SLOT_BASE + 4 * _index_for_key(known[0], known[1], len(key))

    def _read_slot(self, snap, base: int) -> Optional[Tuple[object, int]]:
        """(value entry, value meta) at a slot, or None when absent."""
        # the two words share a leaf line: one descent (section 3.3)
        value_entry, meta = snap.read(base + 2, 2)
        if meta == 0:
            return None
        return value_entry, meta

    # ------------------------------------------------------------------
    # operations

    def get(self, key: bytes) -> Optional[bytes]:
        """Value for ``key``, or None. Reads a private snapshot of the
        map, so it needs no synchronization with concurrent updates
        (section 4.4).

        A key the segment memo knows is addressed from the memo's root
        (:meth:`_known_slot`): no key segment is built and no reference
        taken, so the get costs the slot's lines and the snapshot's
        pin. Any other key — every key with the memo off — is built,
        and its handle released once the slot is read.
        """
        base, key_seg = self._known_slot(key), None
        if base is None:
            key_seg, base = self._key_segment(key)
        try:
            with self.machine.snapshot(self.vsid) as snap:
                slot = self._read_slot(snap, base)
                if slot is None:
                    return None
                value_entry, meta = slot
                return read_ref_slot(self.machine.mem, value_entry, meta)
        finally:
            if key_seg is not None:
                key_seg.release()

    @staticmethod
    def _stage_put(it, base: int, key_seg: AnonSegment, key_len: int,
                   value_seg: AnonSegment, value_len: int) -> bool:
        """Stage one insert/update into an iterator register's transient
        buffer; returns True when the key was absent."""
        was_new = it.get(base + 3) == 0
        it.put(key_seg.root, offset=base)
        it.put(pack_meta(key_seg.height, key_seg.length, key_len),
               offset=base + 1)
        it.put(value_seg.root, offset=base + 2)
        it.put(pack_meta(value_seg.height, value_seg.length, value_len),
               offset=base + 3)
        if was_new:
            it.put((it.get(COUNT_OFFSET) + 1) & ((1 << 64) - 1),
                   offset=COUNT_OFFSET)
        return was_new

    def put(self, key: bytes, value: bytes) -> bool:
        """Insert or update; returns True when the key was new.

        Runs as an atomic update with merge, so concurrent puts/deletes
        of *different* keys never abort each other (section 4.3).
        """
        key_seg, base = self._key_segment(key)
        value_seg = AnonSegment.from_bytes(self.machine.mem, value)
        created = []

        def update(it):
            created.clear()
            created.append(self._stage_put(it, base, key_seg, len(key),
                                           value_seg, len(value)))

        try:
            self.machine.atomic_update(self.vsid, update)
        finally:
            key_seg.release()
            value_seg.release()
        return created[0]

    def put_many(self, items: Sequence[Tuple[bytes, bytes]]) -> List[bool]:
        """Insert/update many pairs in **one** atomic commit.

        All stages land in a single iterator register, so the whole batch
        is one bottom-up tree rebuild and one root CAS instead of one per
        key — the bulk-ingest path the router's commit queue coalesces
        into. Returns one was-new flag per item, in input order; a key
        repeated within the batch counts as new at most once (later
        stages observe the earlier transient store) and the last value
        wins, exactly as sequential puts would behave.
        """
        if not items:
            return []
        results = [False] * len(items)
        staged: List[Tuple[int, AnonSegment, int, AnonSegment, int]] = []
        try:
            for key, value in items:
                key_seg, base = self._key_segment(key)
                value_seg = AnonSegment.from_bytes(self.machine.mem, value)
                staged.append((base, key_seg, len(key),
                               value_seg, len(value)))

            def update(it):
                # atomic_update may re-run this on a lost CAS: start the
                # accumulator from scratch each attempt
                for i in range(len(results)):
                    results[i] = False
                for i, (base, kseg, klen, vseg, vlen) in enumerate(staged):
                    results[i] = self._stage_put(it, base, kseg, klen,
                                                 vseg, vlen)

            self.machine.atomic_update(self.vsid, update)
        finally:
            for _, key_seg, _, value_seg, _ in staged:
                key_seg.release()
                value_seg.release()
        return results

    def put_steps(self, key: bytes, value: bytes, max_retries: int = 16):
        """Generator variant of :meth:`put` for concurrency simulation.

        Yields once between taking the snapshot (staging the update) and
        committing, so a deterministic scheduler can interleave other
        clients into the update window — the conflict the section 5.1.1
        analysis prices. A lost CAS falls back to merge-update (mCAS); a
        *true* conflict (another client stored a different value for the
        same key in the window) re-executes at application level, as the
        paper prescribes. Returns the number of true-conflict retries.
        """
        from repro.core.transactions import mcas

        key_seg, base = self._key_segment(key)
        value_seg = AnonSegment.from_bytes(self.machine.mem, value)
        it = self.machine.iterator(self.vsid)
        true_conflicts = 0
        try:
            for _ in range(max_retries):
                self._stage_put(it, base, key_seg, len(key), value_seg,
                                len(value))
                yield  # the update window: other clients may commit here
                if it.try_commit():
                    return true_conflicts
                base_pair = (it.snapshot_root, it.height)
                new_root, new_height = it.build_updated_root()
                if mcas(self.machine.mem, self.machine.segmap, self.vsid,
                        base_pair, (new_root, new_height), it.length):
                    return true_conflicts
                # logically conflicting update: application-level retry
                true_conflicts += 1
                it.load(self.vsid)
            raise MergeConflictError(
                "update of key %r starved after %d true conflicts"
                % (key, max_retries))
        finally:
            self.machine.release_iterator(it)
            key_seg.release()
            value_seg.release()

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns False when it was absent."""
        key_seg, base = self._key_segment(key)
        removed = []

        def update(it):
            removed.clear()
            if it.get(base + 3) == 0:
                removed.append(False)
                return
            removed.append(True)
            for off in range(4):
                it.put(0, offset=base + off)
            it.put((it.get(COUNT_OFFSET) - 1) & ((1 << 64) - 1),
                   offset=COUNT_OFFSET)

        try:
            self.machine.atomic_update(self.vsid, update)
        finally:
            key_seg.release()
        return removed[0]

    def contains(self, key: bytes) -> bool:
        """Membership test; a key the segment memo knows is addressed
        without a reference, as in :meth:`get`."""
        base, key_seg = self._known_slot(key), None
        if base is None:
            key_seg, base = self._key_segment(key)
        try:
            with self.machine.snapshot(self.vsid) as snap:
                return snap.read(base + 3) != 0
        finally:
            if key_seg is not None:
                key_seg.release()

    def __len__(self) -> int:
        return self.machine.read_word(self.vsid, COUNT_OFFSET)

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Iterate ``(key, value)`` over a stable snapshot of the map."""
        with self.machine.snapshot(self.vsid) as snap:
            slots = {}
            for offset, word in snap.iter_nonzero(start=SLOT_BASE):
                slot_base = SLOT_BASE + ((offset - SLOT_BASE) // 4) * 4
                slots.setdefault(slot_base, {})[offset - slot_base] = word
            for slot_base in sorted(slots):
                words = slots[slot_base]
                if 3 not in words:
                    continue
                yield (read_ref_slot(self.machine.mem, words.get(0, 0),
                                     words.get(1, 0)),
                       read_ref_slot(self.machine.mem, words.get(2, 0),
                                     words[3]))

    def keys(self) -> List[bytes]:
        """All keys (snapshot order = index order)."""
        return [k for k, _ in self.items()]

    def drop(self) -> None:
        """Release the map segment (values/keys it pins are reclaimed)."""
        self.machine.drop_segment(self.vsid)
