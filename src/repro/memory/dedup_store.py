"""The deduplicated main memory (section 3.1, Figure 2).

DRAM is divided into hash buckets, each modelling one DRAM row. A bucket
holds a *signature line* (one 8-bit signature per data way), a
*reference-count line*, and a number of data ways. A line lives in the
bucket selected by the hash of its content; its PLID is the concatenation
of its way number and its bucket number. When a bucket is full, lines
spill into a shared overflow area. The paper reaches a spilled line by
chaining through the bucket's overflow pointer; here a bucket with
overflow lines compares an 8-bit fingerprint per line over its ways and
its overflow list instead of the signatures (no experiment spills a
bucket, so every paper number is a Figure-2 number; see
:meth:`DedupStore.lookup`).

The two fundamental operations are:

* :meth:`DedupStore.read_dram` — fetch a line by PLID (one DRAM read);
* :meth:`DedupStore.lookup` — find-or-allocate a line by content: read the
  signature line, compare signatures, read candidate data lines on
  signature match, and on a miss claim an empty way and update the
  signature line. The new line's data write is *deferred*: it is charged
  only when the cache eventually writes it back
  (:meth:`DedupStore.writeback`), matching section 3.1.

Reference counts are maintained exactly — incremented by content lookups
that match and by stores of a PLID into another line or a segment-map
entry, decremented when such a reference is dropped — and deallocation is
recursive over a line's tagged child PLIDs (the paper's hardware state
machine). RC traffic is filtered through a modelled RC cache so only
spills/fills reach the DRAM counters, as in the paper.

**Freeing.** The paper frees a dead subtree with a hardware state
machine behind ``decref``; here that state machine is the store's
reclamation queue. A line whose count reaches zero is appended to it,
and only a drain of the queue frees lines. Freeing a line decrements
its children, and a child that reaches zero joins the tail of the same
queue, so the walk is iterative and one drain step does O(fanout) work.
Deferral is a choice of *when* to free, not a second way:

* An **unheld** store drains the queue to empty at the end of every
  outermost :meth:`DedupStore.decref`: the paper's immediate free.
* A **held** store (:meth:`DedupStore.hold_reclaim`: the shard router
  and a replication follower, which own their machine's batch
  boundaries) leaves the queue alone on release, so a release is O(1).
  Its owner drains up to :data:`RECLAIM_BUDGET` lines per
  :meth:`DedupStore.reclaim_advance` between batches, and
  :meth:`DedupStore.reclaim_quiesce` drains everything for audits,
  persistence images and replication FORGET flushing. A running drain
  holds the store too, which is what keeps the frees it causes queued
  instead of nested.

**Capacity contract.** Dead lines never cost capacity: when
``_allocate`` finds a bucket's ways full while the queue is not empty,
it drains the queue to empty (counted in ``pressure_drains``) and
claims a way again before it spills to the overflow area. A held store
therefore spills and refuses (``MemoryExhaustedError``) exactly when an
unheld store holding the same live lines in the same slots would. The
slots can differ only after a lookup resurrects a dead line that an
unheld store had already freed: the resurrected line keeps its old
slot. Between drains the queue grows by one entry per release to zero.
A freed overflow slot goes on ``free_overflow``, a LIFO stack, so PLID
assignment (and with it machine images and modeled paper statistics)
is the lowest free way, then the most recently freed overflow slot.

Two consequences of deferral in a held store are deliberate:

* **dealloc listeners fire at drain time**, not at release time. The
  memo invalidation, RC-cache drop and replication FORGET hooks all key
  off a PLID that is about to be *reused*, and a deferred line's slot
  is not reusable until it is actually freed, so firing late is not
  just safe but required for the FORGET protocol's "a known PLID is
  never silently reused" invariant.
* **deferred-dead lines can resurrect**: the content map still maps
  their content, so a lookup landing on a count-zero line simply
  increments it back to one (a dedup hit). The drain recognizes the
  resurrection (count > 0) and skips the queue entry.

A bucket is a row of flat data, not an object: byte ``bucket *
(data_ways + 1) + way`` of one store-wide ``bytearray`` is a way's
signature (0 = free; byte 0 of a row is the signature line's own), so a
new line takes the lowest free way with one ``find``. A second
``bytearray`` of the same shape holds each way's fingerprint. One
``content -> PLID`` dict covers every live line, keyed by the very line
tuples ``_lines`` holds, and a sparse ``bucket -> overflow PLIDs`` dict,
with a fingerprint ``bytearray`` parallel to each list, holds only the
buckets that have spilled. Nothing the store owns points back at it, so
a dropped machine is freed by reference counting, not by the cyclic
collector.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple
from zlib import crc32

from repro.errors import BadPlidError, IntegrityError, MemoryExhaustedError
from repro.memory import hashing
from repro.memory.line import (
    PLID_MASK,
    Line,
    ZERO_PLID,
    encode_line,
    is_zero_line,
    line_child_plids,
    zero_line,
)
from repro.memory.memo import StructuralMemo
from repro.memory.stats import DramStats, RowBuffer
from repro.params import MemoryConfig

#: Deferred lines a held store's owner drains per epoch advance: between
#: a shard's commit batches, between a follower's applied root advances.
#: The queue carries at most one batch's frees past it.
RECLAIM_BUDGET = 512

#: Reference counts the modelled RC cache holds (section 3.1).
RC_CACHE_ENTRIES = 1 << 16


def _plid_maps(num_buckets: int, overflow_base: int,
               overflow_bucket: Dict[int, int]
               ) -> Tuple[Callable[[int], int], Callable[[int], int]]:
    """A store's ``row_of`` and ``bucket_of``: closures over its
    geometry and its overflow PLID -> bucket map, not bound methods, so
    the RC cache and the HICAMP cache can keep them without a path back
    to the store."""

    def row_of(plid: int) -> int:
        """DRAM row of a line: its hash bucket, or an overflow-area row."""
        if plid >= overflow_base:
            return num_buckets + (plid - overflow_base) // 64
        return plid % num_buckets

    def bucket_of(plid: int) -> int:
        """Hash-bucket index of a PLID (the cache indexes on these bits)."""
        if plid >= overflow_base:
            return overflow_bucket.get(plid, plid % num_buckets)
        return plid % num_buckets

    return row_of, bucket_of


@dataclass
class StoreCounters:
    """Operation-level counters (diagnostics beyond the DRAM categories)."""

    lookups: int = 0
    lookup_hits: int = 0
    allocations: int = 0
    deallocations: int = 0
    overflow_allocations: int = 0
    signature_false_positives: int = 0
    #: full-line compares performed against non-matching content
    #: (signature collisions + a spilled bucket's fingerprint collisions)
    false_positive_scans: int = 0


@dataclass
class ReclaimStats:
    """Lifecycle counters of the free path (module docstring)."""

    deferred_total: int = 0       # release-to-zero pushes (O(1) frees)
    drained_freed: int = 0        # deferred lines actually deallocated
    drained_resurrected: int = 0  # entries skipped: content re-looked-up
    drained_stale: int = 0        # entries skipped: already freed
    epochs_advanced: int = 0      # the reclamation epoch
    quiesces: int = 0
    max_pending: int = 0          # deepest the deferral queue has been
    pressure_drains: int = 0      # full drains forced by a full bucket
    overflow_reused: int = 0      # overflow slots claimed off the free list


class _RcCache:
    """LRU model of reference-count caching (section 3.1).

    A newly allocated line's RC is created directly in the cache and
    propagated to DRAM only on eviction; RC updates for uncached lines
    first fill from DRAM. Only fills and evictions are charged. Every
    entry is dirty (an entry exists only because its count was just
    updated), so an eviction always writes back and an entry is just
    its PLID's place in LRU order.
    """

    def __init__(self, capacity: int, stats: DramStats, rows: RowBuffer,
                 row_of: Callable[[int], int]) -> None:
        self._capacity = max(1, capacity)
        self._stats = stats
        self._rows = rows
        self._row_of = row_of
        #: cached PLIDs, least recently touched first (values unused)
        self._entries: "OrderedDict[int, None]" = OrderedDict()
        self.fills = 0   # charged fills from DRAM
        self.spills = 0  # charged evictions to DRAM

    def __len__(self) -> int:
        return len(self._entries)

    def touch(self, plid: int, creating: bool = False) -> None:
        """Record an RC update to ``plid``, charging DRAM on fill/spill."""
        entries = self._entries
        if plid in entries:
            entries.move_to_end(plid)
            return
        if not creating:
            self._stats.refcount += 1  # fill the RC entry from DRAM
            self._rows.access(self._row_of(plid))
            self.fills += 1
        entries[plid] = None
        if len(entries) > self._capacity:
            self._spill()

    def _spill(self) -> None:
        """Evict the least recently touched entry, writing it back."""
        victim, _ = self._entries.popitem(last=False)
        self._stats.refcount += 1
        self._rows.access(self._row_of(victim))
        self.spills += 1

    def drop(self, plid: int) -> None:
        """Discard the entry for a deallocated line (no writeback)."""
        self._entries.pop(plid, None)

    def flush(self) -> None:
        """Write back every entry (end-of-run accounting)."""
        self._stats.refcount += len(self._entries)
        self._entries.clear()


class DedupStore:
    """Deduplicated, reference-counted, content-addressable line store."""

    def __init__(self, config: Optional[MemoryConfig] = None) -> None:
        self.config = config or MemoryConfig()
        #: recompute content hashes on every DRAM read (section 3.1's
        #: extra error-detection; off by default for speed)
        self.verify_reads = self.config.verify_reads
        self.stats = DramStats()
        self.counters = StoreCounters()
        self._num_buckets = self.config.num_buckets
        #: bytes per bucket row: the signature line's slot, then the ways
        self._row_len = self.config.data_ways + 1
        self._overflow_base = self._row_len * self._num_buckets
        self._next_overflow = self._overflow_base
        #: recycled overflow-area PLIDs, reused LIFO; persistence
        #: serializes this list verbatim under the image's
        #: ``free_overflow`` key
        self.free_overflow: List[int] = []
        #: every bucket's signature line, one row per bucket (module
        #: docstring); a zero byte is a free way
        self._sigs = bytearray(self._row_len * self._num_buckets)
        #: each way's fingerprint (:meth:`lookup`), 0 beside a free way
        self._fps = bytearray(len(self._sigs))
        #: content -> PLID of every live line, keyed by its ``_lines`` tuple
        self._plid_by_line: Dict[Line, int] = {}
        #: PLID -> the content it is indexed under, for the lines
        #: :meth:`corrupt_line_for_test` replaced
        self._corrupted: Dict[int, Line] = {}
        #: bucket -> its overflow PLIDs, for the buckets that have spilled
        self._overflow: Dict[int, List[int]] = {}
        #: bucket -> its overflow lines' fingerprints, parallel to
        #: ``_overflow``
        self._overflow_fps: Dict[int, bytearray] = {}
        #: overflow PLID -> the bucket it spilled from
        self._overflow_bucket: Dict[int, int] = {}
        self._lines: Dict[int, Line] = {}
        self._refcounts: Dict[int, int] = {}
        #: live lines whose deferred data write has been charged
        #: (:meth:`writeback`); a store that never evicts keeps it empty
        self._written: Set[int] = set()
        self._row_of, self.bucket_of = _plid_maps(
            self._num_buckets, self._overflow_base, self._overflow_bucket)
        #: open-row DRAM model (hash bucket == DRAM row, section 3.1)
        self.rows = RowBuffer()
        self._rc_cache = _RcCache(RC_CACHE_ENTRIES, self.stats, self.rows,
                                  self._row_of)
        self._zero = zero_line(self.config.words_per_line)
        #: callbacks invoked with a PLID just before it is deallocated
        #: (the cache registers here to invalidate its copy).
        self.dealloc_listeners: List = []
        #: host-level structural memo (disabled by default; the serving
        #: stack enables it — see memo.py)
        self.memo = StructuralMemo()
        self.dealloc_listeners.append(self.memo.on_dealloc)
        #: PLIDs released to zero, in release order; children freed by
        #: a drain join the tail, keeping any one drain step O(fanout)
        self._pending: Deque[int] = deque()
        #: counted holds: owners that drain between batches, plus a
        #: running drain. While any is taken, a release only queues.
        self.reclaim_holds = 0
        self.reclaim_stats = ReclaimStats()

    # ------------------------------------------------------------------
    # geometry helpers

    @property
    def words_per_line(self) -> int:
        """Words per line (DAG fan-out)."""
        return self.config.words_per_line

    def _slot_of(self, plid: int) -> int:
        """Byte of a way-resident line in ``_sigs`` and ``_fps``."""
        return (plid % self._num_buckets * self._row_len
                + plid // self._num_buckets)

    def is_allocated(self, plid: int) -> bool:
        """True when ``plid`` names a live line (the zero line is always live)."""
        return plid == ZERO_PLID or plid in self._lines

    # ------------------------------------------------------------------
    # fundamental operations

    def read_dram(self, plid: int) -> Line:
        """Read a line from DRAM by PLID, charging one DRAM read.

        The zero PLID is recognized without a memory access. When
        ``verify_reads`` is enabled, the content hash is recomputed and
        compared to the hash bucket the line lives in — the intrinsic
        error-detection capability of section 3.1.
        """
        if plid == ZERO_PLID:
            return self._zero
        try:
            line = self._lines[plid]
        except KeyError:
            raise BadPlidError("read of unallocated PLID %d" % plid)
        self.stats.reads += 1
        self.rows.access(self._row_of(plid))
        if self.verify_reads:
            self.verify_line(plid, line)
        return line

    def verify_line(self, plid: int, line: Optional[Line] = None) -> None:
        """Check a line's content hash against its bucket (section 3.1).

        Overflow-resident lines carry no hash constraint (they were
        placed by capacity, not content); for bucket-resident lines a
        mismatch raises :class:`IntegrityError`.
        """
        if plid == ZERO_PLID:
            return
        if line is None:
            line = self.peek(plid)
        if plid >= self._overflow_base:
            return
        expected = hashing.bucket_hash(encode_line(line), self._num_buckets)
        if expected != plid % self._num_buckets:
            raise IntegrityError(
                "PLID %d content hashes to bucket %d but lives in bucket %d"
                % (plid, expected, plid % self._num_buckets))

    def corrupt_line_for_test(self, plid: int, line: Line) -> None:
        """Fault injection: silently replace a line's stored content.

        Test-only hook for exercising :meth:`verify_line` — bypasses the
        content indexes on purpose, exactly like a DRAM bit flip would.
        """
        if plid not in self._lines:
            raise BadPlidError("cannot corrupt unallocated PLID %d" % plid)
        self._corrupted.setdefault(plid, self._lines[plid])
        self._lines[plid] = line
        for listener in self.dealloc_listeners:
            listener(plid)  # drop any clean cached copy

    def peek(self, plid: int) -> Line:
        """Read a line without charging DRAM traffic: for the cache after
        it has accounted the access itself, the replication sender (whose
        wire has its own metrics) and test assertions."""
        if plid == ZERO_PLID:
            return self._zero
        try:
            return self._lines[plid]
        except KeyError:
            raise BadPlidError("read of unallocated PLID %d" % plid)

    def install_line(self, line: Line) -> Tuple[int, bool]:
        """Install a line received from another machine.

        Exactly :meth:`lookup` — lookup-by-content is what makes
        replication installs idempotent: a re-sent or already-present
        line dedups to the existing PLID (``created=False``) instead of
        occupying new DRAM. The returned reference is counted and owned
        by the caller. Any tagged child PLIDs in ``line`` must already
        be allocated in *this* store (the wire protocol's
        children-before-parents order guarantees it), and a line must
        be as long as this store's leaves or interior lines
        (``ValueError`` otherwise, before anything is allocated).
        """
        if len(line) not in (self.config.words_per_line, self.config.fanout):
            raise ValueError(
                "install of a %d-word line; this store's lines hold %d "
                "(leaf) or %d (interior) words"
                % (len(line), self.config.words_per_line,
                   self.config.fanout))
        for child in line_child_plids(line):
            if child != ZERO_PLID and child not in self._lines:
                raise BadPlidError(
                    "install references unallocated child PLID %d" % child)
        return self.lookup(line)

    def lookup(self, line: Line) -> Tuple[int, bool]:
        """Find-or-allocate ``line`` by content.

        Returns ``(plid, created)``. The returned reference is counted: a
        matching lookup increments the line's reference count; a fresh
        allocation starts it at one (section 3.1).

        DRAM charging follows the paper's step list: one signature-line
        read; one data-line read per signature match (false positives cost
        extra reads); on allocation, one signature-line write. The data
        line itself is written back later by the cache.

        That signature compare serves every bucket whose overflow list
        is empty. A bucket that has spilled compares each line's 8-bit
        fingerprint instead, over its ways and its overflow list
        together, and is charged the same way: its fingerprints are read
        with its signature line, in the same DRAM row, and each match
        costs one candidate read. The fingerprint is the bucket CRC's
        bits above the bucket index, so unlike the signature it does not
        depend on the bucket. Which compare serves a bucket is a
        function of its live lines, never of its history or of a
        setting, and the answer is exact either way: it comes from the
        ``content -> PLID`` dict.
        """
        if is_zero_line(line):
            return ZERO_PLID, False
        return self.intern(line, self._plid_by_line.get(line))

    def intern(self, line: Line, existing: Optional[int],
               consume: bool = False) -> Tuple[int, bool]:
        """:meth:`lookup` of a non-zero line whose content-map entry
        ``existing`` (a PLID or None) the cache looked up. ``consume``:
        the caller hands over a reference on each child; a created line
        keeps them instead of taking new ones, and on a hit
        :meth:`settle_children` releases them."""
        # hashing.bucket_hash, hashing.signature and hashing.fingerprint,
        # in line
        enc = encode_line(line)
        crc = crc32(enc, hashing.BUCKET_SEED)
        bucket_idx = crc % self._num_buckets
        sig = crc32(enc, hashing.SIGNATURE_SEED) & 0xFF or 1
        fp = crc // self._num_buckets & 0xFF or 1

        self.counters.lookups += 1
        self.stats.lookups += 1  # signature line read
        self.rows.access(bucket_idx)

        row = bucket_idx * self._row_len
        spilled = self._overflow_fps.get(bucket_idx)
        if spilled is None:
            matches = self._sigs.count(sig, row + 1, row + self._row_len)
        else:
            matches = (self._fps.count(fp, row + 1, row + self._row_len)
                       + spilled.count(fp))
        if existing is not None:
            # Read each candidate data line with a matching signature
            # (or fingerprint) — all within the same DRAM row as the
            # signature line.
            self.stats.lookups += max(1, matches)
            for _ in range(max(1, matches)):
                self.rows.access(bucket_idx)
            if spilled is None:
                self.counters.signature_false_positives += max(0, matches - 1)
            self.counters.false_positive_scans += max(0, matches - 1)
            self.counters.lookup_hits += 1
            self._refcounts[existing] += 1
            self._rc_cache.touch(existing)
            return existing, False
        if matches:
            # Collisions with different content: candidate reads.
            self.stats.lookups += matches
            for _ in range(matches):
                self.rows.access(bucket_idx)
            if spilled is None:
                self.counters.signature_false_positives += matches
            self.counters.false_positive_scans += matches

        return self._allocate(line, bucket_idx, sig, fp, consume), True

    def _allocate(self, line: Line, bucket_idx: int,
                  sig: int, fp: int, consume: bool) -> int:
        """Claim the lowest free way (or an overflow slot) for new content.

        Dead lines never cost capacity: a full bucket drains the
        reclamation queue before it spills (the capacity contract in the
        module docstring).
        The line's fingerprint is stored beside it either way, so a
        bucket that spills later already holds its ways' fingerprints.
        """
        sigs = self._sigs
        row = bucket_idx * self._row_len
        slot = sigs.find(0, row + 1, row + self._row_len)
        if slot < 0 and self._pending:
            self.reclaim_stats.pressure_drains += 1
            self._drain()
            slot = sigs.find(0, row + 1, row + self._row_len)
        if slot >= 0:
            plid = (slot - row) * self._num_buckets + bucket_idx
            sigs[slot] = sig
            self._fps[slot] = fp
            self.stats.lookups += 1  # signature line written back
            self.rows.access(bucket_idx)
        else:
            if self.free_overflow:
                self.reclaim_stats.overflow_reused += 1
                plid = self.free_overflow.pop()
            else:
                plid = self._next_overflow
                if plid - self._overflow_base >= self.config.overflow_lines:
                    raise MemoryExhaustedError(
                        "overflow area exhausted (%d lines)"
                        % self.config.overflow_lines
                    )
                self._next_overflow += 1
            self._overflow.setdefault(bucket_idx, []).append(plid)
            self._overflow_fps.setdefault(bucket_idx, bytearray()).append(fp)
            self._overflow_bucket[plid] = bucket_idx
            self.counters.overflow_allocations += 1
            self.stats.lookups += 1  # overflow pointer update
            self.rows.access(bucket_idx)
        self._plid_by_line[line] = plid
        self._lines[plid] = line
        self._refcounts[plid] = 1
        self._rc_cache.touch(plid, creating=True)
        self.counters.allocations += 1
        # A new line takes one reference on each child PLID it stores
        # (hardware tracks sharing through the per-word tags), or keeps
        # the one its caller hands over (:meth:`intern`).
        for word in line:  # is_ref, in line; the zero line is not counted
            if word < 0 and (child := ~word & PLID_MASK):
                if not consume:
                    self._refcounts[child] += 1
                self._rc_cache.touch(child)
        return plid

    def settle_children(self, line: Line, created: bool) -> None:
        """Finish a consuming lookup once the cache has placed ``line``:
        on a hit, release the caller's child references; on creation,
        touch each child's RC entry again, as the released reference
        did when a new line took its own, so the RC cache's order,
        fills and spills stay exactly what they were."""
        for word in line:  # is_ref, in line; the zero line is not counted
            if word < 0 and (child := ~word & PLID_MASK):
                if created:
                    self._rc_cache.touch(child)
                else:
                    self.decref(child)

    def writeback(self, plid: int) -> None:
        """Charge the deferred DRAM write of a newly created line.

        Called by the cache for every line it evicts or flushes. A live
        line is charged once, the first time, and then recorded in
        ``_written``; a line deallocated before eviction is never
        written, and a line an image restored is written already.
        """
        if plid in self._lines and plid not in self._written:
            self._written.add(plid)
            self.stats.writes += 1
            self.rows.access(self._row_of(plid))

    # ------------------------------------------------------------------
    # reference counting

    def refcount(self, plid: int) -> int:
        """Current reference count of a line (0 for the zero line)."""
        if plid == ZERO_PLID:
            return 0
        return self._refcounts.get(plid, 0)

    def incref(self, plid: int, count: int = 1) -> None:
        """Add references to a line (a PLID was stored somewhere)."""
        if plid == ZERO_PLID or count == 0:
            return
        if plid not in self._refcounts:
            raise BadPlidError("incref of unallocated PLID %d" % plid)
        self._refcounts[plid] += count
        self._rc_cache.touch(plid)

    def decref(self, plid: int, count: int = 1) -> None:
        """Drop references to a line; at zero, queue it, and free the
        queue now unless the store is held."""
        if plid == ZERO_PLID or count == 0:
            return
        rc = self._refcounts.get(plid)
        if rc is None:
            raise BadPlidError("decref of unallocated PLID %d" % plid)
        rc -= count
        if rc > 0:
            self._refcounts[plid] = rc
            self._rc_cache.touch(plid)
            return
        if rc < 0:
            raise BadPlidError("refcount underflow on PLID %d" % plid)
        # the line stays resident at count zero (resurrectable by
        # content lookup) until a drain frees it; the free drops its RC
        # entry uncharged, so reaching zero touches no RC entry
        self._refcounts[plid] = 0
        pending = self._pending
        pending.append(plid)
        stats = self.reclaim_stats
        stats.deferred_total += 1
        if len(pending) > stats.max_pending:
            stats.max_pending = len(pending)
        if not self.reclaim_holds:
            self._drain()

    def hold_reclaim(self) -> None:
        """Take a counted hold: releases to zero only queue, and the
        caller drains the queue between its batches
        (:meth:`reclaim_advance`, :meth:`reclaim_quiesce`)."""
        self.reclaim_holds += 1

    def _drain(self, budget: Optional[int] = None) -> int:
        """Free up to ``budget`` queued lines (all of them if None).

        Children-first in effect: freeing a line decrements its
        children through :meth:`decref`, and the running drain holds
        the store, so a child reaching zero joins the tail of the queue
        rather than being freed inline. An unbudgeted drain so reclaims
        whole subtrees, and a budgeted one makes monotonic progress
        without ever exceeding ``budget * fanout`` decrements. An entry
        whose line is gone (freed by an earlier entry) is stale, and
        one whose count is positive again was resurrected by a content
        lookup; both are skipped. Returns the lines freed.
        """
        pending, lines, refcounts = self._pending, self._lines, self._refcounts
        stats = self.reclaim_stats
        freed = 0
        self.reclaim_holds += 1
        try:
            while pending and (budget is None or freed < budget):
                plid = pending.popleft()
                if plid not in lines:
                    stats.drained_stale += 1
                elif refcounts.get(plid, 0) > 0:
                    stats.drained_resurrected += 1
                else:
                    for child in line_child_plids(lines[plid]):
                        self.decref(child)
                    self._deallocate(plid)
                    stats.drained_freed += 1
                    freed += 1
        finally:
            self.reclaim_holds -= 1
        return freed

    def _deallocate(self, plid: int) -> None:
        """Free a line: zero its signature and fingerprint, or release
        its overflow slot and drop its fingerprint from the list."""
        for listener in self.dealloc_listeners:
            listener(plid)
        line = self._lines.pop(plid)
        # a silently corrupted line frees under the content it was
        # indexed by (the audit flags it instead)
        if self._corrupted:
            line = self._corrupted.pop(plid, line)
        self._plid_by_line.pop(line, None)
        if plid >= self._overflow_base:
            bucket_idx = self._overflow_bucket.pop(plid)
            spilled = self._overflow[bucket_idx]
            at = spilled.index(plid)
            del spilled[at]
            del self._overflow_fps[bucket_idx][at]
            if not spilled:
                # last spilled line gone: back to the signature compare
                del self._overflow[bucket_idx]
                del self._overflow_fps[bucket_idx]
            self.free_overflow.append(plid)
        else:
            slot = self._slot_of(plid)
            self._sigs[slot] = self._fps[slot] = 0
        del self._refcounts[plid]
        self._written.discard(plid)
        self._rc_cache.drop(plid)
        self.counters.deallocations += 1
        # Zeroing the signature is one DRAM access; a line deallocated
        # before its deferred write never reaches DRAM at all.
        self.stats.dealloc += 1
        self.rows.access(self._row_of(plid))

    # ------------------------------------------------------------------
    # accounting / inspection

    def footprint_lines(self) -> int:
        """Number of allocated (unique) lines, excluding the zero line.

        A held store counts its queued dead lines until they drain;
        quiesce first for the live-line count."""
        return len(self._lines)

    def footprint_bytes(self) -> int:
        """Bytes of DRAM consumed by allocated data lines."""
        return len(self._lines) * self.config.line_bytes

    def flush_rc_cache(self) -> None:
        """Spill all dirty cached reference counts (end-of-run accounting)."""
        self._rc_cache.flush()

    def live_plids(self) -> List[int]:
        """All allocated PLIDs (test/diagnostic helper)."""
        return list(self._lines)

    def check_refcounts(self) -> None:
        """Verify stored refcounts equal actual in-memory references.

        Counts references from line words only; callers owning root
        references (segment maps, iterator registers, Python handles) must
        account for them separately. Raises ``AssertionError`` on drift.
        Test/diagnostic helper — O(lines).
        """
        internal: Dict[int, int] = {}
        for line in self._lines.values():
            for child in line_child_plids(line):
                internal[child] = internal.get(child, 0) + 1
        for plid, rc in self._refcounts.items():
            inside = internal.get(plid, 0)
            if rc < inside:
                raise AssertionError(
                    "PLID %d refcount %d below internal references %d"
                    % (plid, rc, inside)
                )

    # ------------------------------------------------------------------
    # reclamation

    def pending_lines(self) -> int:
        """Lines released to zero and not yet drained."""
        return len(self._pending)

    def reclaim_advance(self, budget: Optional[int] = None) -> int:
        """Seal the current epoch and drain up to ``budget`` queued
        lines. A held store's owner calls this between batches, so the
        frees one batch deferred are reclaimed, bounded, before the next
        batch commits. Returns the lines freed."""
        self.reclaim_stats.epochs_advanced += 1
        return self._drain(budget)

    def reclaim_quiesce(self) -> int:
        """Synchronously drain the whole queue. After this a held store
        holds exactly the lines an unheld store that ran the same
        workload holds: the contract audits, persistence images and
        fingerprint observers rely on (wired through
        :meth:`repro.memory.system.MemorySystem.drain`). Returns the
        lines freed."""
        self.reclaim_stats.quiesces += 1
        return self.reclaim_advance()

    def free_slots(self) -> int:
        """Free line slots: data ways with a zero signature byte, in
        every bucket, plus recycled overflow slots."""
        return (self._sigs.count(0) - self._num_buckets
                + len(self.free_overflow))

    def reclaim_snapshot(self) -> Dict:
        """JSON-safe view of reclamation state (stats json)."""
        stats = self.reclaim_stats
        free_slots = self.free_slots()
        return {"free_slots": free_slots,
                "allocator": {
                    "free_ways": free_slots - len(self.free_overflow),
                    "free_overflow": len(self.free_overflow),
                    "overflow_reused": stats.overflow_reused},
                "epoch": stats.epochs_advanced,
                "pending_lines": len(self._pending),
                "deferred_total": stats.deferred_total,
                "drained_freed": stats.drained_freed,
                "drained_resurrected": stats.drained_resurrected,
                "drained_stale": stats.drained_stale,
                "epochs_advanced": stats.epochs_advanced,
                "quiesces": stats.quiesces,
                "max_pending": stats.max_pending,
                "pressure_drains": stats.pressure_drains}

    # ------------------------------------------------------------------
    # lookup-by-content

    def index_snapshot(self) -> Dict:
        """JSON-safe view of the lookup-by-content path (stats json)."""
        return {
            "false_positive_scans": self.counters.false_positive_scans,
            "signature_false_positives":
                self.counters.signature_false_positives,
            "indexed_buckets": self.indexed_buckets(),
        }

    def indexed_buckets(self) -> int:
        """Buckets resolved by fingerprint: those with a non-empty
        overflow list."""
        return len(self._overflow)

    def restore_line(self, plid: int, line: Line, refcount: int,
                     bucket: Optional[int] = None) -> None:
        """Install a line from a machine image at its exact PLID.

        ``bucket`` is the image's record of the bucket an overflow line
        spilled from; a way's PLID names its own. Lines go in in image
        order, which is the order their buckets saw them allocated.
        Signature and fingerprint are derived from the content, so an
        image carries neither. Charges no DRAM (restore is out-of-band,
        like replication's export path).
        """
        enc = encode_line(line)
        fp = hashing.fingerprint(enc, self._num_buckets)
        if plid >= self._overflow_base:
            if bucket is None:
                bucket = plid % self._num_buckets
            self._overflow.setdefault(bucket, []).append(plid)
            self._overflow_fps.setdefault(bucket, bytearray()).append(fp)
            self._overflow_bucket[plid] = bucket
        else:
            slot = self._slot_of(plid)
            self._sigs[slot] = hashing.signature(enc)
            self._fps[slot] = fp
        self._plid_by_line[line] = plid
        self._lines[plid] = line
        self._refcounts[plid] = refcount
        self._written.add(plid)

    def index_failures(self) -> List[str]:
        """Prove the lookup structures are exactly reconstructible from
        the live lines.

        Content keys and fingerprints are derived from each line's
        *actual stored content* (not the content it was indexed under),
        so a silently corrupted line surfaces here as well as in the
        canonical-form audit. Returns failure strings; empty =
        clean.
        """
        failures: List[str] = []
        # the content map must exactly cover the live lines, each under
        # its current content
        if len(self._plid_by_line) != len(self._lines):
            failures.append(
                "index: %d content entries for %d live lines"
                % (len(self._plid_by_line), len(self._lines)))
        spilled_fp: Dict[int, int] = {}
        for bucket, plids in self._overflow.items():
            fps = self._overflow_fps.get(bucket, b"")
            if len(fps) != len(plids):
                failures.append(
                    "index: bucket %d has %d overflow lines and %d "
                    "fingerprints" % (bucket, len(plids), len(fps)))
            spilled_fp.update(zip(plids, fps))
        for plid, line in self._lines.items():
            if self._plid_by_line.get(line) != plid:
                failures.append(
                    "index: live PLID %d is not reachable by its content"
                    % plid)
            stored = (spilled_fp.get(plid) if plid >= self._overflow_base
                      else self._fps[self._slot_of(plid)])
            if stored != hashing.fingerprint(encode_line(line),
                                             self._num_buckets):
                failures.append(
                    "index: live PLID %d has fingerprint %s, not its "
                    "content's" % (plid, stored))
        return failures
