"""A high-contention queue on merge-update (section 4.3).

The queue is one segment: word 0 is the head counter, word 1 the tail
counter, and slots follow. An enqueue claims the slot named by the tail
counter and bumps the counter; merge-update resolves concurrent enqueues
that landed in *different* slots (counter differences sum), and two
enqueues racing for the *same* slot produce a reference conflict that
aborts exactly one of them into a retry with a fresh tail.

Items are stored as anonymous segment entries plus a shape word, like
map values, so same-slot races are detected by the tagged-field rule
even when two items have equal-looking payload lengths.
"""

from __future__ import annotations

from typing import Optional

from repro.core.machine import Machine
from repro.memory.line import unpack_words
from repro.segments import dag
from repro.segments.anon import AnonSegment, pack_meta, unpack_meta
from repro.segments.segment_map import SegmentFlags

HEAD = 0
TAIL = 1
SLOT_BASE = 8


class HQueue:
    """An unbounded FIFO queue of byte strings."""

    def __init__(self, machine: Machine, vsid: int) -> None:
        self.machine = machine
        self.vsid = vsid

    @classmethod
    def create(cls, machine: Machine) -> "HQueue":
        """Create an empty queue (merge-update enabled)."""
        vsid = machine.create_segment([0] * SLOT_BASE,
                                      flags=SegmentFlags.MERGE_UPDATE)
        return cls(machine, vsid)

    def __len__(self) -> int:
        with self.machine.snapshot(self.vsid) as snap:
            return snap.read(TAIL) - snap.read(HEAD)

    def enqueue(self, item: bytes) -> None:
        """Append an item; concurrent enqueues merge or retry safely."""
        seg = AnonSegment.from_bytes(self.machine.mem, item)

        def update(it):
            tail = it.get(TAIL)
            base = SLOT_BASE + 2 * tail
            it.put(seg.root, offset=base)
            it.put(pack_meta(seg.height, seg.length, len(item)), offset=base + 1)
            it.put(tail + 1, offset=TAIL)

        try:
            self.machine.atomic_update(self.vsid, update, merge=True)
        finally:
            seg.release()

    def dequeue(self) -> Optional[bytes]:
        """Pop the oldest item, or None when empty.

        Dequeue uses plain CAS (no merge): two concurrent dequeues of the
        same slot must serialize, or both would observe the same item.
        Empty slots below the tail — possible when concurrent enqueues of
        identical content coalesced under merge (content-addressed
        identity cannot tell two equal items apart) — are skipped.
        """
        out = []

        def update(it):
            out.clear()
            head, tail = it.get(HEAD), it.get(TAIL)
            while head < tail and it.get(SLOT_BASE + 2 * head + 1) == 0:
                head += 1  # skip coalesced slot
            if head >= tail:
                out.append(None)
                if head != it.get(HEAD):
                    it.put(head, offset=HEAD)
                return
            base = SLOT_BASE + 2 * head
            entry, meta = it.get(base), it.get(base + 1)
            height, word_len, byte_len = unpack_meta(meta)
            if word_len:
                words = dag.gather_words(self.machine.mem, entry, height,
                                         0, word_len)
                out.append(unpack_words(words, byte_len))
            else:
                out.append(b"")
            it.put(0, offset=base)
            it.put(0, offset=base + 1)
            it.put(head + 1, offset=HEAD)

        self.machine.atomic_update(self.vsid, update, merge=False)
        return out[0]

    def peek(self) -> Optional[bytes]:
        """The oldest item without removing it."""
        with self.machine.snapshot(self.vsid) as snap:
            head, tail = snap.read(HEAD), snap.read(TAIL)
            while head < tail and snap.read(SLOT_BASE + 2 * head + 1) == 0:
                head += 1  # skip coalesced slot
            if head >= tail:
                return None
            base = SLOT_BASE + 2 * head
            entry, meta = snap.read(base), snap.read(base + 1)
            height, word_len, byte_len = unpack_meta(meta)
            if not word_len:
                return b""
            words = dag.gather_words(self.machine.mem, entry, height, 0, word_len)
            return unpack_words(words, byte_len)

    def drop(self) -> None:
        """Release the queue segment."""
        self.machine.drop_segment(self.vsid)
