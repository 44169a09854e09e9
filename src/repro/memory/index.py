"""Cuckoo-indexed lookup-by-content for overflowed hash buckets.

The paper's Figure-2 organization resolves lookup-by-content inside one
hash bucket: read the signature line, compare 8-bit signatures, read
candidate ways. That is exact and row-local, and it is what
:class:`~repro.memory.dedup_store.DedupStore` does for every bucket
with no overflow lines. When a bucket fills, lines spill into the
shared overflow area; the paper reaches them by chaining through the
bucket's overflow pointer, one DRAM read per spilled line. No
experiment in this repo spills a bucket, and a serving store held at
several times its resident capacity pays a ~40-line scan per miss that
way, so a spilled bucket is resolved here instead (the measurements
are in docs/performance.md, "Why the legacy index went").

:class:`CuckooIndex` is a bounded-probe index, independent of where
lines physically live:

* **two candidate buckets** per content hash, the second derived by
  XOR'ing the first with a spread of the entry's 16-bit partial key
  (fingerprint), so displacement needs only ``(bucket, fingerprint)`` —
  the classic cuckoo-filter trick;
* **bounded-depth displacement**: inserts that find both candidates
  full run a BFS path search (depth- and node-capped) for a chain of
  entry moves ending at a free slot, charging one DRAM write per moved
  entry;
* **adaptive per-bucket fingerprint widths**: each bucket compares only
  ``fp_bits`` low bits of the stored fingerprint; the width is computed
  from the bucket's observed occupancy against a target
  false-positive full-line-compare rate (the density formula of the
  Cuckoo-Indexing reference implementation, grown monotonically from
  6 to 16 bits);
* **online resize**: when occupancy or displacement depth crosses its
  threshold, a doubled table is built *incrementally* — every public
  operation migrates at most ``migrate_step`` old buckets — while the
  old table keeps serving, so a live server never stalls. A tiny stash
  absorbs the (vanishingly rare) placements that fail mid-resize, so
  no operation is ever refused.

The index stores ``(key-hash, PLID)`` pairs and never inspects line
content itself: candidate verification is delegated to a ``match``
callback supplied by the caller (the dedup store charges one data-line
read per verification, and counts the mismatches as false-positive
scans). The index therefore stays an implementation detail that leaks
nothing into PLID assignment, canonical form, or segment fingerprints:
what it holds is a function of the store's live lines, never of the
order they arrived in (``tests/test_index_hi.py``).

DRAM charging goes through the same :class:`~repro.memory.stats.
DramStats` ``lookups`` category and :class:`~repro.memory.stats.
RowBuffer` as the in-bucket path.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["CuckooIndex", "CuckooIndexStats", "compute_fp_bits"]

#: Fingerprint width bounds (bits compared per slot). Widths start
#: narrow — one signature byte's worth minus headroom — and grow
#: per-bucket toward full 16-bit partial keys as density demands.
MIN_FP_BITS = 6
MAX_FP_BITS = 16

_FP_MASK = (1 << MAX_FP_BITS) - 1

#: Entries per index bucket.
SLOTS_PER_BUCKET = 4

#: Target false-positive full-line-compare rate per probe; per-bucket
#: fingerprint widths grow to hold observed density under this rate.
TARGET_FP_RATE = 0.02


def _key_of(encoded: bytes) -> int:
    """64-bit content key of a line's canonical encoding."""
    digest = hashlib.blake2b(encoded, digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _fingerprint(key: int) -> int:
    """16-bit partial key (the stored/compared fingerprint material)."""
    return (key >> 48) & _FP_MASK


def _spread(fp: int) -> int:
    """Deterministic spread of a fingerprint for XOR displacement."""
    return (fp * 0x9E3779B1) & 0x7FFFFFFF


def compute_fp_bits(occupied: int, target_rate: float,
                    lo: int = MIN_FP_BITS, hi: int = MAX_FP_BITS) -> int:
    """Fingerprint bits needed to hold the false-positive scan rate.

    A negative probe of a bucket with ``occupied`` slots triggers an
    expected ``occupied / 2^bits`` spurious full-line compares; both
    candidate buckets are probed, doubling it. This is the density
    formula of the Cuckoo-Indexing reference (fingerprint bits computed
    from observed table density against a target scan rate), applied
    per-bucket.
    """
    bits = lo
    while bits < hi and 2.0 * occupied / (1 << bits) > target_rate:
        bits += 1
    return bits


@dataclass
class CuckooIndexStats:
    """Operation counters of one :class:`CuckooIndex` (diagnostics)."""

    lookups: int = 0
    hits: int = 0
    inserts: int = 0
    removes: int = 0
    false_positive_scans: int = 0
    displacements: int = 0          # entries moved by path execution
    max_depth: int = 0              # deepest displacement path executed
    fp_growth_events: int = 0       # per-bucket width increases
    resizes_started: int = 0
    resizes_completed: int = 0
    migrated_entries: int = 0
    stash_inserts: int = 0
    stash_high_watermark: int = 0
    #: displacement path length -> insert count (0 = direct placement)
    depth_hist: Dict[int, int] = field(default_factory=dict)

    def as_dict(self) -> Dict:
        out = {name: getattr(self, name) for name in (
            "lookups", "hits", "inserts", "removes",
            "false_positive_scans", "displacements", "max_depth",
            "fp_growth_events", "resizes_started", "resizes_completed",
            "migrated_entries", "stash_inserts", "stash_high_watermark")}
        out["depth_hist"] = {str(d): n
                             for d, n in sorted(self.depth_hist.items())}
        return out


class _IndexBucket:
    """One index bucket: resident entries plus its fingerprint width."""

    __slots__ = ("entries", "fp_bits")

    def __init__(self) -> None:
        self.entries: List[Tuple[int, int]] = []  # (key hash, PLID)
        self.fp_bits = MIN_FP_BITS


class _Table:
    """One generation of the cuckoo table (sparse bucket array)."""

    __slots__ = ("num_buckets", "slots", "gen", "buckets", "entries")

    def __init__(self, num_buckets: int, slots: int, gen: int) -> None:
        self.num_buckets = num_buckets
        self.slots = slots
        self.gen = gen
        self.buckets: Dict[int, _IndexBucket] = {}
        self.entries = 0

    def bucket(self, index: int) -> _IndexBucket:
        bucket = self.buckets.get(index)
        if bucket is None:
            bucket = _IndexBucket()
            self.buckets[index] = bucket
        return bucket

    def pair(self, key: int) -> Tuple[int, int]:
        """The two candidate buckets of a key (XOR partial-key rule)."""
        mask = self.num_buckets - 1
        b1 = key & mask
        d = _spread(_fingerprint(key)) & mask
        return b1, b1 ^ (d if d else 1)

    def alt(self, bucket: int, key_hash: int) -> int:
        """The *other* candidate of an entry, from bucket+fingerprint."""
        mask = self.num_buckets - 1
        d = _spread(_fingerprint(key_hash)) & mask
        return bucket ^ (d if d else 1)


class CuckooIndex:
    """Content-hash -> PLID index with displacement and online resize."""

    def __init__(self, initial_buckets: int = 1 << 10,
                 slots_per_bucket: int = SLOTS_PER_BUCKET,
                 target_fp_rate: float = TARGET_FP_RATE,
                 max_load: float = 0.85,
                 max_kick_depth: int = 8,
                 resize_depth_trigger: int = 4,
                 max_bfs_nodes: int = 128,
                 migrate_step: int = 8,
                 stats=None, rows=None) -> None:
        if initial_buckets < 2 or initial_buckets & (initial_buckets - 1):
            raise ValueError("initial_buckets must be a power of two >= 2")
        if not 1 <= slots_per_bucket <= 8:
            raise ValueError("slots_per_bucket must be 1..8")
        self.slots = slots_per_bucket
        self.target_fp_rate = target_fp_rate
        self.max_load = max_load
        self.max_kick_depth = max_kick_depth
        self.resize_depth_trigger = max(1, resize_depth_trigger)
        self.max_bfs_nodes = max_bfs_nodes
        self.migrate_step = max(1, migrate_step)
        #: DRAM counter block charged one ``lookups`` access per index
        #: bucket touched (None = uncharged standalone use)
        self._dram = stats
        #: open-row model shared with the store (index rows live in
        #: their own namespace so bucket locality is modelled honestly)
        self._rows = rows
        self.stats = CuckooIndexStats()
        self._active = _Table(initial_buckets, self.slots, gen=0)
        #: table being drained during an online resize (still serving)
        self._old: Optional[_Table] = None
        self._cursor = 0            # next old bucket to migrate
        #: bounded victim stash (on-chip model: scanned for free); only
        #: populated when a placement fails mid-resize, drained when the
        #: resize completes
        self._stash: List[Tuple[int, int]] = []
        #: callbacks fired with the new slot count (buckets x slots) when
        #: an online resize completes (the store scales its RC cache here)
        self.resize_listeners: List = []

    # ------------------------------------------------------------------
    # geometry / introspection

    @staticmethod
    def key_of(encoded: bytes) -> int:
        """The 64-bit index key of a canonical line encoding."""
        return _key_of(encoded)

    def __len__(self) -> int:
        count = self._active.entries + len(self._stash)
        if self._old is not None:
            count += self._old.entries
        return count

    @property
    def num_buckets(self) -> int:
        """Buckets in the active table (doubles on each resize)."""
        return self._active.num_buckets

    @property
    def resizing(self) -> bool:
        """True while an incremental resize is draining the old table."""
        return self._old is not None

    def occupancy(self) -> float:
        """Fraction of active-table slots occupied."""
        return self._active.entries / float(
            self._active.num_buckets * self.slots)

    def bucket_width_counts(self) -> Dict[int, int]:
        """fp width (bits) -> number of active buckets at that width.

        Buckets never materialized (empty) are reported at the minimum
        width.
        """
        counts: Dict[int, int] = {}
        for bucket in self._active.buckets.values():
            counts[bucket.fp_bits] = counts.get(bucket.fp_bits, 0) + 1
        untouched = self._active.num_buckets - len(self._active.buckets)
        if untouched:
            counts[MIN_FP_BITS] = counts.get(MIN_FP_BITS, 0) + untouched
        return counts

    def snapshot(self) -> Dict:
        """JSON-safe state + counters (obs adapter / stats json)."""
        snap = self.stats.as_dict()
        snap.update({
            "entries": len(self),
            "buckets": self._active.num_buckets,
            "slots_per_bucket": self.slots,
            "occupancy": round(self.occupancy(), 4),
            "resizing": self.resizing,
            "stash": len(self._stash),
            "bucket_widths": {str(w): n for w, n in sorted(
                self.bucket_width_counts().items())},
        })
        return snap

    # ------------------------------------------------------------------
    # DRAM accounting

    def _charge(self, table: _Table, bucket: int, n: int = 1) -> None:
        """One index-row DRAM access (``lookups`` category)."""
        if self._dram is not None:
            self._dram.lookups += n
        if self._rows is not None:
            for _ in range(n):
                self._rows.access(("cidx", table.gen, bucket))

    # ------------------------------------------------------------------
    # fundamental operations

    def get(self, key: int,
            match: Callable[[int], bool]) -> Optional[int]:
        """Find the PLID indexed under ``key``, or None.

        ``match(plid)`` verifies a fingerprint-matching candidate by
        full content compare; the caller charges the data-line read and
        counts mismatches. Fingerprint filtering uses each bucket's own
        adaptive width.
        """
        self._migrate_some()
        self.stats.lookups += 1
        fp = _fingerprint(key)
        for kh, plid in self._stash:  # on-chip victim stash, uncharged
            if kh == key and match(plid):
                self.stats.hits += 1
                return plid
        for table in self._tables():
            b1, b2 = table.pair(key)
            if table is self._old and max(b1, b2) < self._cursor:
                continue  # both candidates already drained
            for b in (b1, b2) if b1 != b2 else (b1,):
                if table is self._old and b < self._cursor:
                    continue
                self._charge(table, b)
                bucket = table.buckets.get(b)
                if bucket is None:
                    continue
                mask = (1 << bucket.fp_bits) - 1
                for kh, plid in bucket.entries:
                    if (_fingerprint(kh) ^ fp) & mask:
                        continue
                    if match(plid):
                        self.stats.hits += 1
                        return plid
                    self.stats.false_positive_scans += 1
        return None

    def insert(self, key: int, plid: int) -> None:
        """Index ``plid`` under ``key`` (displacing entries as needed).

        Never fails: a placement that exhausts the displacement budget
        triggers (or rides out) a resize and falls back to the stash.
        """
        self._migrate_some()
        self.stats.inserts += 1
        self._place(self._active, key, plid, allow_resize=True)
        if self._old is None \
                and self.occupancy() > self.max_load:
            self._start_resize()

    def remove(self, key: int, plid: int) -> bool:
        """Drop the entry for ``(key, plid)``; True when it existed."""
        self._migrate_some()
        for table in self._tables():
            b1, b2 = table.pair(key)
            if table is self._old and max(b1, b2) < self._cursor:
                continue
            for b in (b1, b2) if b1 != b2 else (b1,):
                if table is self._old and b < self._cursor:
                    continue
                self._charge(table, b)
                bucket = table.buckets.get(b)
                if bucket is None:
                    continue
                for i, (kh, p) in enumerate(bucket.entries):
                    if kh == key and p == plid:
                        del bucket.entries[i]
                        table.entries -= 1
                        self._charge(table, b)  # bucket written back
                        self.stats.removes += 1
                        return True
        for i, (kh, p) in enumerate(self._stash):
            if kh == key and p == plid:
                del self._stash[i]
                self.stats.removes += 1
                return True
        return False

    # ------------------------------------------------------------------
    # placement

    def _tables(self):
        yield self._active
        if self._old is not None:
            yield self._old

    def _adapt_width(self, bucket: _IndexBucket) -> None:
        """Grow the bucket's compared width toward the target scan rate
        (monotone: stored fingerprints are rewritten wider, never
        truncated)."""
        needed = compute_fp_bits(len(bucket.entries), self.target_fp_rate)
        if needed > bucket.fp_bits:
            bucket.fp_bits = needed
            self.stats.fp_growth_events += 1

    def _append(self, table: _Table, b: int, entry: Tuple[int, int]) -> None:
        bucket = table.bucket(b)
        bucket.entries.append(entry)
        table.entries += 1
        self._adapt_width(bucket)
        self._charge(table, b)  # slot written back

    def _place(self, table: _Table, key: int, plid: int,
               allow_resize: bool) -> bool:
        """Place an entry in ``table``; displacement then stash."""
        b1, b2 = table.pair(key)
        for b in (b1, b2) if b1 != b2 else (b1,):
            if len(table.bucket(b).entries) < table.slots:
                self._append(table, b, (key, plid))
                self.stats.depth_hist[0] = \
                    self.stats.depth_hist.get(0, 0) + 1
                return True
        found = self._find_path(table, (b1, b2) if b1 != b2 else (b1,))
        if found is not None:
            free_bucket, path = found
            target = free_bucket
            for b, slot in reversed(path):
                moved = table.bucket(b).entries.pop(slot)
                table.entries -= 1
                self._append(table, target, moved)
                target = b
            self._append(table, target, (key, plid))
            depth = len(path)
            self.stats.displacements += depth
            self.stats.max_depth = max(self.stats.max_depth, depth)
            self.stats.depth_hist[depth] = \
                self.stats.depth_hist.get(depth, 0) + 1
            if allow_resize and self._old is None \
                    and depth >= self.resize_depth_trigger:
                self._start_resize()
            return True
        # displacement budget exhausted: resize (if we may) and retry in
        # the doubled table, else stash the victim — never refuse
        if allow_resize and self._old is None:
            self._start_resize()
            if self._place(self._active, key, plid, allow_resize=False):
                return True
        self._stash.append((key, plid))
        self.stats.stash_inserts += 1
        self.stats.stash_high_watermark = max(
            self.stats.stash_high_watermark, len(self._stash))
        return False

    def _find_path(self, table: _Table, roots) -> Optional[Tuple]:
        """BFS for a displacement path ending at a bucket with space.

        Returns ``(free bucket, [(bucket, slot), ...])`` where each
        listed entry moves to the next bucket in the chain (the last one
        into the free bucket), or None within the depth/node budget.
        The root buckets were just probed by the caller; every further
        bucket examined charges one read.
        """
        seen = set(roots)
        queue = deque((b, ()) for b in roots)
        expanded = 0
        while queue:
            b, path = queue.popleft()
            bucket = table.bucket(b)
            if path:
                self._charge(table, b)
            if len(bucket.entries) < table.slots:
                return b, list(path)
            if len(path) >= self.max_kick_depth:
                continue
            expanded += 1
            if expanded > self.max_bfs_nodes:
                return None
            for slot, (kh, _plid) in enumerate(bucket.entries):
                alt = table.alt(b, kh)
                if alt in seen:
                    continue
                seen.add(alt)
                queue.append((alt, path + ((b, slot),)))
        return None

    # ------------------------------------------------------------------
    # online resize

    def _start_resize(self) -> None:
        old = self._active
        self._active = _Table(old.num_buckets * 2, self.slots,
                              gen=old.gen + 1)
        self._old = old
        self._cursor = 0
        self.stats.resizes_started += 1

    def _migrate_some(self) -> None:
        """Bounded incremental migration (called by every public op)."""
        if self._old is None:
            return
        old = self._old
        moved = 0
        while self._cursor < old.num_buckets and moved < self.migrate_step:
            bucket = old.buckets.pop(self._cursor, None)
            if bucket is not None and bucket.entries:
                self._charge(old, self._cursor)  # drain read
                for entry in bucket.entries:
                    old.entries -= 1
                    self._place(self._active, entry[0], entry[1],
                                allow_resize=False)
                    self.stats.migrated_entries += 1
            self._cursor += 1
            moved += 1
        if self._cursor >= old.num_buckets:
            self._old = None
            self.stats.resizes_completed += 1
            self._drain_stash()
            # back-to-back growth under sustained ingest
            if self.occupancy() > self.max_load:
                self._start_resize()
            for listener in self.resize_listeners:
                listener(self._active.num_buckets * self.slots)

    def _drain_stash(self) -> None:
        if not self._stash:
            return
        pending, self._stash = self._stash, []
        for key, plid in pending:
            self._place(self._active, key, plid, allow_resize=False)

    # ------------------------------------------------------------------
    # verification

    def audit(self, expected: Dict[int, int]) -> List[str]:
        """Check the index is exactly the map ``{key(content): plid}``.

        ``expected`` maps every live PLID to the key of its *actual*
        content — so a silently corrupted line (stored content no longer
        matching its indexed key) is reported, proving the index is
        reconstructible from live lines alone. Returns failure strings
        (empty = clean).
        """
        failures: List[str] = []
        located: Dict[int, int] = {}
        for table in self._tables():
            for b, bucket in table.buckets.items():
                for kh, plid in bucket.entries:
                    if plid in located:
                        failures.append(
                            "index: PLID %d indexed twice" % plid)
                    located[plid] = kh
                    if plid not in expected:
                        failures.append(
                            "index: stale entry for dead PLID %d" % plid)
                        continue
                    b1, b2 = table.pair(kh)
                    if b not in (b1, b2):
                        failures.append(
                            "index: PLID %d parked outside its candidate "
                            "buckets" % plid)
        for kh, plid in self._stash:
            if plid in located:
                failures.append("index: PLID %d indexed twice" % plid)
            located[plid] = kh
            if plid not in expected:
                failures.append(
                    "index: stale stash entry for dead PLID %d" % plid)
        for plid, key in expected.items():
            kh = located.get(plid)
            if kh is None:
                failures.append(
                    "index: live PLID %d is not indexed" % plid)
            elif kh != key:
                failures.append(
                    "index: PLID %d indexed under a key that does not "
                    "match its content" % plid)
        return failures
