"""The HICAMP machine facade — the library's main entry point.

Wires together the deduplicating memory system, the virtual segment map
and a pool of iterator registers, and offers segment-level convenience
operations. Application code typically goes through the typed structures
in :mod:`repro.structures`, which are built on this facade.

Example::

    from repro import Machine

    m = Machine()
    a = m.create_segment([1, 2, 3])
    b = m.create_segment([1, 2, 3])
    assert m.segments_equal(a, b)      # single root compare
    m.write_word(a, 1, 99)             # copy-on-write update
    assert not m.segments_equal(a, b)
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.core.transactions import atomic_update
from repro.errors import IteratorStateError
from repro.memory.line import check_data_words
from repro.memory.stats import DramStats
from repro.memory.system import MemorySystem
from repro.params import MachineConfig
from repro.segments import dag
from repro.segments.anon import AnonSegment
from repro.segments.iterator import IteratorRegister
from repro.segments.segment_map import SegmentFlags, SegmentMap


class Processor:
    """One processor: a private iterator-register file over the
    machine's shared memory system (section 3.3). Each register buffers
    its uncommitted stores in its own transient lines, so they are
    per-core and never coherent (footnotes 2/7)."""

    def __init__(self, machine: "Machine", pid: int) -> None:
        self.pid = pid
        self._registers: List[IteratorRegister] = [
            IteratorRegister(machine.mem, machine.segmap)
            for _ in range(machine.config.iterator_registers)
        ]
        self._free_registers = list(range(len(self._registers)))

    def iterator(self, vsid: Optional[int] = None,
                 offset: int = 0) -> IteratorRegister:
        """Claim a free iterator register (optionally loading it).

        Release with :meth:`release_iterator`. A processor has a fixed
        register file (``config.iterator_registers``); exhausting it
        raises :class:`IteratorStateError`.
        """
        if not self._free_registers:
            raise IteratorStateError(
                "all iterator registers of processor %d are in use" % self.pid)
        it = self._registers[self._free_registers.pop()]
        if vsid is not None:
            it.load(vsid, offset)
        return it

    def release_iterator(self, it: IteratorRegister) -> None:
        """Return a register to the free pool (drops its snapshot)."""
        it.reset()
        idx = self._registers.index(it)
        self._free_registers.append(idx)


class Machine:
    """A simulated HICAMP processor-memory complex."""

    def __init__(self, config: Optional[MachineConfig] = None) -> None:
        self.config = config or MachineConfig()
        self.mem = MemorySystem(self.config)
        self.segmap = SegmentMap(self.mem)
        #: the machine's processors; single-processor convenience methods
        #: below operate on processor 0
        self.processors: List[Processor] = [
            Processor(self, pid) for pid in range(self.config.n_processors)
        ]

    def configure_serving(self) -> "Machine":
        """Hold the store (the owner drains reclamation between its
        batches) and turn the structural memo on: how a shard router and
        a replication follower run a machine. Returns the machine."""
        self.mem.store.hold_reclaim()
        self.mem.memo.enable()
        return self

    # ------------------------------------------------------------------
    # iterator registers (processor-0 shorthand)

    def iterator(self, vsid: Optional[int] = None, offset: int = 0) -> IteratorRegister:
        """Claim a free iterator register on processor 0."""
        return self.processors[0].iterator(vsid, offset)

    def release_iterator(self, it: IteratorRegister) -> None:
        """Return a processor-0 register to the free pool."""
        self.processors[0].release_iterator(it)

    # ------------------------------------------------------------------
    # segment lifecycle

    def create_segment(self, words: Sequence = (),
                       flags: SegmentFlags = SegmentFlags.NONE) -> int:
        """Create a segment holding data ``words``; returns its VSID."""
        if len(words):
            check_data_words(words)
            root, height = dag.build_segment(self.mem, words)
        else:
            root, height = 0, 0
        return self.segmap.create(root, height, len(words), flags)

    def drop_segment(self, vsid: int) -> None:
        """Delete a segment reference; unshared content is reclaimed."""
        self.segmap.drop(vsid)

    def share_read_only(self, vsid: int) -> int:
        """Read-only VSID for the same content (protected sharing, §2.3)."""
        return self.segmap.share_read_only(vsid)

    def segment_length(self, vsid: int) -> int:
        """Logical length of a segment in words."""
        return self.segmap.entry(vsid).length

    def segments_equal(self, vsid_a: int, vsid_b: int) -> bool:
        """Content equality by root compare — O(1) regardless of size."""
        a, b = self.segmap.entry(vsid_a), self.segmap.entry(vsid_b)
        return (a.root, a.height, a.length) == (b.root, b.height, b.length)

    def snapshot(self, vsid: int) -> AnonSegment:
        """Pin the current version of a segment for stable reading."""
        entry = self.segmap.entry(vsid)
        dag.retain_entry(self.mem, entry.root)
        return AnonSegment(self.mem, entry.root, entry.height, entry.length)

    # ------------------------------------------------------------------
    # word-level convenience (single-writer; contended updates should go
    # through atomic_update / mcas)

    def read_word(self, vsid: int, offset: int):
        """Read one word of a segment."""
        entry = self.segmap.entry(vsid)
        if offset >= entry.length:
            return 0
        return dag.read_word(self.mem, entry.root, entry.height, offset)

    def read_segment(self, vsid: int) -> List:
        """The whole content of a segment as a word list."""
        with self.snapshot(vsid) as snap:
            return snap.words()

    def write_word(self, vsid: int, offset: int, value) -> None:
        """Copy-on-write update of one word (extends the segment if
        written at or past the end); tagged, as :meth:`write_words`."""
        self.write_words(vsid, {offset: value})

    def write_words(self, vsid: int, updates: dict) -> None:
        """Copy-on-write update of several tagged words (the structures
        store their slots' root entries here) in one rebuild pass; an int
        that is neither data nor a live line's reference is refused."""
        if not updates:
            return
        entry = self.segmap.writable(vsid)
        length = max(entry.length, max(updates) + 1)
        root, height = dag.new_version(self.mem, entry.root, entry.height,
                                       length, updates)
        self.segmap.set_root(vsid, root, height, length)

    def append_words(self, vsid: int, words: Sequence) -> None:
        """Append data words — segments grow without reallocation (§4.1)."""
        check_data_words(words)
        start = self.segmap.entry(vsid).length
        self.write_words(vsid, {start + i: w for i, w in enumerate(words)})

    def atomic_update(self, vsid: int, update: Callable[[IteratorRegister], None],
                      merge: Optional[bool] = None,
                      max_retries: int = 64) -> None:
        """Snapshot → update → CAS loop on one segment (section 2.2).
        ``merge`` None follows the segment's MERGE_UPDATE flag; an
        explicit True or False wins over it."""
        it = self.iterator(vsid)
        try:
            atomic_update(it, update, merge=merge, max_retries=max_retries)
        finally:
            self.release_iterator(it)

    # ------------------------------------------------------------------
    # replication surface (a sender walks ``dag.walk_lines``)

    def install_line(self, line) -> "tuple[int, bool]":
        """Install a line received from a replica; ``(plid, created)``.

        Content lookup makes the install idempotent; the returned
        reference is counted and owned by the caller. Children must be
        installed first (the replication wire order guarantees this).
        """
        return self.mem.install_line(line)

    def segment_fingerprint(self, vsid: int) -> bytes:
        """Machine-independent content digest of a mapped segment.

        Equal across machines iff the segments hold equal content —
        the cross-machine analogue of :meth:`segments_equal`.
        """
        return dag.segment_fingerprint(self, vsid)

    # ------------------------------------------------------------------
    # accounting

    @property
    def dram(self) -> DramStats:
        """Off-chip DRAM access counters."""
        return self.mem.dram

    def footprint_bytes(self) -> int:
        """Unique-line DRAM footprint in bytes."""
        return self.mem.footprint_bytes()

    def footprint_lines(self) -> int:
        """Unique-line DRAM footprint in lines."""
        return self.mem.footprint_lines()

    def drain(self) -> None:
        """Flush caches so deferred traffic reaches the DRAM counters."""
        self.mem.drain()
