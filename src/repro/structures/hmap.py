"""The HICAMP map: a sparse array indexed by key-content identity
(sections 4.1 and 4.4).

A map is one segment. Each entry occupies a 4-word slot at an offset
*derived from the key segment's content-unique root*: deduplication
guarantees any given key content has exactly one root, so the offset is a
collision-free index — no hashing of the key, no chains, no rebalancing,
and a worst-case bound a conventional hash table cannot give.

Slot layout (``SLOT_BASE + 4 * key_index(key)``)::

    +0  key root entry      (pins the key content, keeps its PLID stable)
    +1  key shape word      (height / word length / byte length)
    +2  value root entry    (the paper's "root PLID for the associated value")
    +3  value shape word

Word offset 0 of the segment holds the entry count; being a plain data
word, concurrent inserts merge to the correct sum under merge-update.
Inserting writes a zero slot and deleting zeroes a non-zero slot, so
concurrent non-conflicting updates merge instead of aborting
(section 4.3).

Only this module knows the layout: every write is staged by
:meth:`HMap._stage`, and :meth:`HMap.slots` hands out a snapshot's slot
words.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.machine import Machine
from repro.errors import MergeConflictError
from repro.memory.line import PLID_MASK, encode_word
from repro.memory.memo import MISS
from repro.params import WORD_MASK
from repro.segments import dag
from repro.segments.anon import (
    AnonSegment,
    pack_meta,
    read_ref_slot,
    unpack_meta,
)
from repro.segments.segment_map import SegmentFlags

#: Word offsets 0..15 are reserved for map metadata (0 = entry count).
SLOT_BASE = 16
COUNT_OFFSET = 0

_WIDE_SPACE = 1 << 120  # index space for compacted (non-PLID) key roots


def key_index(root, height: int, byte_length: int) -> int:
    """Collision-free slot index from a key segment's identity: its root
    entry and height, as a build returns them or the segment memo
    records them, and the key's byte length.

    A key whose root is a plain line reference indexes by
    ``(PLID, height, byte length)`` — the content-uniqueness of segments
    makes this exact. Compacted roots (tiny keys) fall back to the full
    canonical encoding, placed in a disjoint, higher index space.
    """
    if root < 0 and ~root <= PLID_MASK:  # a reference with no path
        return ((~root << 8 | height) << 36) | byte_length
    raw = ((encode_word(root) if root else b"Z") + bytes((height,))
           + byte_length.to_bytes(5, "big"))
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
        index = key_index(seg.root, seg.height, len(key))
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
        return SLOT_BASE + 4 * key_index(known[0], known[1], len(key))

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
        and its handle released once the slot is read. With the memo
        on, a key this map version already answered is not read again.
        """
        machine, vsid, version = self.machine, self.vsid, None
        mem = machine.mem
        memo = mem.memo
        if memo.enabled and not mem.store.verify_reads:
            version = machine.segmap.entry(vsid).version
            answer = memo.get_read(vsid, version, key)
            if answer is not MISS:
                return answer
        base, key_seg = self._known_slot(key), None
        if base is None:
            key_seg, base = self._key_segment(key)
        try:
            with machine.snapshot(vsid) as snap:
                slot = self._read_slot(snap, base)
                answer = None if slot is None else read_ref_slot(mem, *slot)
        finally:
            if key_seg is not None:
                key_seg.release()
        if version is not None:
            memo.put_read(vsid, version, key, answer)
        return answer

    @staticmethod
    def _stage(it, base: int, key_seg: AnonSegment, key_len: int,
               value_seg: Optional[AnonSegment], value_len: int,
               known=MISS) -> bool:
        """Stage one write of a key into an iterator register: a put of
        ``value_seg``, or a delete when it is None. True when the write
        changes whether the key is present.

        ``known`` is the read table's answer for the key at the
        register's snapshot version, or MISS. An answer stands in for
        the slot descent, and a put of a key answered present stages
        only the value words: its slot already holds this key's words
        (the slot index *is* the key's identity), so the committed map
        is the same either way (section 2.2), minus the key leaf's
        rebuild.
        """
        if known is MISS:
            present = it.get(base + 3) != 0
        else:
            present = known is not None
        if value_seg is None:
            if present:
                for off in range(4):
                    it.put(0, offset=base + off)
                it.put((it.get(COUNT_OFFSET) - 1) & WORD_MASK,
                       offset=COUNT_OFFSET)
            return present
        if known is MISS or not present:
            it.put(key_seg.root, offset=base)
            it.put(pack_meta(key_seg.height, key_seg.length, key_len),
                   offset=base + 1)
        it.put(value_seg.root, offset=base + 2)
        it.put(pack_meta(value_seg.height, value_seg.length, value_len),
               offset=base + 3)
        if not present:
            it.put((it.get(COUNT_OFFSET) + 1) & WORD_MASK,
                   offset=COUNT_OFFSET)
        return not present

    @contextmanager
    def staging(self, items: Sequence[Tuple[bytes, Optional[bytes]]]):
        """Build the segments of ``(key, value)`` pairs (a None value
        deletes) and yield ``stage(it)``, which stages them in order into
        a register loaded with this map: one :meth:`_stage` flag each.

        Stay inside until the register's rebuild: its buffer holds bare
        reference words, which the segments pin until lines own them.
        With the memo on and reads not verified, the read table answers
        each key's first stage; a later one sees the earlier stages.
        """
        mem, staged = self.machine.mem, []
        memo = mem.memo if mem.memo.enabled \
            and not mem.store.verify_reads else None
        try:
            for key, value in items:
                key_seg, base = self._key_segment(key)
                value_seg = None if value is None \
                    else AnonSegment.from_bytes(mem, value)
                staged.append((key, base, key_seg, value_seg,
                               0 if value is None else len(value)))

            def stage(it) -> List[bool]:
                seen, flags = set(), []
                for key, base, key_seg, value_seg, value_len in staged:
                    known = MISS
                    if memo is not None and key not in seen:
                        seen.add(key)
                        known = memo.get_read(self.vsid, it.version, key)
                    flags.append(self._stage(it, base, key_seg, len(key),
                                             value_seg, value_len, known))
                return flags

            yield stage
        finally:
            for _, _, key_seg, value_seg, _ in staged:
                key_seg.release()
                if value_seg is not None:
                    value_seg.release()

    def put(self, key: bytes, value: bytes) -> bool:
        """Insert or update; True when the key was new."""
        return self.put_many(((key, value),))[0]

    def put_many(self, items: Sequence[Tuple[bytes, Optional[bytes]]]
                 ) -> List[bool]:
        """Write ``(key, value)`` pairs in **one** atomic commit, a None
        value deleting its key: the map's one write routine.

        The whole batch is one register, one bottom-up rebuild and one
        root CAS — what the router's landing coalesces a run of sets
        into. A merge-update map (the default) folds a lost CAS in,
        so writes of *different* keys never abort each other (section
        4.3). One flag per pair, in input order: True when it changed
        whether its key is present. A repeated key's later writes see
        its earlier ones, as sequential writes would. With the memo on,
        the commit carries the read table to the new version, answering
        each key's last write.
        """
        if not items:
            return []
        flags: List[bool] = []
        memo, entry = self.machine.mem.memo, self.machine.segmap.entry
        before = entry(self.vsid).version if memo.enabled else None
        with self.staging(items) as stage:

            def update(it):
                flags[:] = stage(it)  # atomic_update may re-run it

            self.machine.atomic_update(self.vsid, update)
            if before is not None:
                memo.carry_reads(self.vsid, before, entry(self.vsid).version,
                                 dict(items).items())
        return flags

    def put_steps(self, key: bytes, value: bytes, max_retries: int = 16):
        """Generator variant of :meth:`put` for concurrency simulation.

        Yields once between taking the snapshot (staging the update) and
        committing, so a deterministic scheduler can interleave other
        clients into the update window — the conflict the section 5.1.1
        analysis prices. Stages through :meth:`staging`, as
        :meth:`put_many` does. A lost CAS falls back to merge-update
        (mCAS); a *true* conflict (another client stored a different
        value for the same key in the window) re-executes at application
        level, as the paper prescribes. Returns the number of
        true-conflict retries.
        """
        true_conflicts = 0
        with self.staging(((key, value),)) as stage:
            it = self.machine.iterator(self.vsid)
            try:
                for _ in range(max_retries):
                    stage(it)
                    yield  # the update window: other clients may commit here
                    if it.try_commit(merge=True):
                        return true_conflicts
                    # logically conflicting update: application-level retry
                    true_conflicts += 1
                    it.load(self.vsid)
                raise MergeConflictError(
                    "update of key %r starved after %d true conflicts"
                    % (key, max_retries))
            finally:
                self.machine.release_iterator(it)

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; False when it was absent."""
        return self.put_many(((key, None),))[0]

    def contains(self, key: bytes) -> bool:
        """Membership test: with the memo on, whether :meth:`get` (and
        so the read table) answers a value; otherwise one slot read."""
        if self.machine.mem.memo.enabled:
            return self.get(key) is not None
        key_seg, base = self._key_segment(key)
        try:
            with self.machine.snapshot(self.vsid) as snap:
                return snap.read(base + 3) != 0
        finally:
            key_seg.release()

    def __len__(self) -> int:
        return self.machine.read_word(self.vsid, COUNT_OFFSET)

    def slots(self, snap) -> Iterator[Tuple[object, int, object, int]]:
        """The words of every present slot of ``snap``, a snapshot of
        this map, in index order: ``(key entry, key shape, value entry,
        value shape)``. The entries are borrowed; ``snap`` pins them."""
        slots = {}
        for offset, word in snap.iter_nonzero(start=SLOT_BASE):
            slot_base = SLOT_BASE + ((offset - SLOT_BASE) // 4) * 4
            slots.setdefault(slot_base, {})[offset - slot_base] = word
        for slot_base in sorted(slots):
            words = slots[slot_base]
            if 3 in words:
                yield (words.get(0, 0), words.get(1, 0), words.get(2, 0),
                       words[3])

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Iterate ``(key, value)`` over a stable snapshot of the map."""
        mem = self.machine.mem
        with self.machine.snapshot(self.vsid) as snap:
            for key_entry, key_meta, value_entry, value_meta \
                    in self.slots(snap):
                yield (read_ref_slot(mem, key_entry, key_meta),
                       read_ref_slot(mem, value_entry, value_meta))

    def keys(self) -> List[bytes]:
        """All keys (snapshot order = index order)."""
        return [k for k, _ in self.items()]

    def drop(self) -> None:
        """Release the map segment (values/keys it pins are reclaimed)."""
        self.machine.drop_segment(self.vsid)
