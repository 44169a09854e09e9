"""Host-level structural memoization over content-unique lines.

HICAMP's content-uniqueness invariant (section 3.1) means a PLID *is*
its content: any pure function of line content can be memoized with no
invalidation logic beyond deallocation. Three tables stay, each because
it pays on traffic the system serves:

* **segment memo** — raw bytes ↔ ``(root, height, length)``, answered
  in both directions. Forwards,
  :meth:`repro.segments.anon.AnonSegment.from_bytes` of a repeated
  payload is one dict probe instead of a full bottom-up build (on
  ``tcp-mixed-zipf``, values drawn from a small pool, the whole memo off
  cost 22 % more CPU per op and 21 % more p90 latency), and the same
  probe addresses reads: :meth:`repro.structures.hmap.HMap.get` and
  ``contains`` compute a known key's slot from its root, building no
  key segment and taking no reference (on ``tcp-read-hot``, with the
  one-step path check in :func:`repro.segments.dag.read_word`, about
  18 % less CPU per op). Backwards,
  :func:`repro.segments.anon.read_ref_slot` returns the bytes a live
  root was built from instead of walking its DAG and repacking it (on
  the same workload, 32 % less CPU per op over ten pairs);
* **read table** — per map VSID, the committed version it answers for
  and ``key → value bytes or None``: a repeated :meth:`HMap.get
  <repro.structures.hmap.HMap.get>` of an unchanged map is one probe,
  and ``HMap``'s writers take an answered key's presence from it (an
  overwrite of a present key stages only its value words) and record
  what their own commit leaves (on ``tcp-mixed-zipf``, where a set
  follows gets of its key, 11 % less CPU per op on seed 11, 19 of 20
  pairs; ``docs/performance.md``);
* **digest cache** — PLID → content fingerprint, promoting the per-call
  ``memo`` of :func:`repro.segments.dag.content_fingerprint` to machine
  level (replication delta pruning, fingerprint convergence checks).

There is no line table: lookup-by-content *is* the store's intern
operation, and a software ``line → PLID`` map in front of it cost more
than it saved (``docs/performance.md``).

Invalidation story: every table is keyed (directly or through a reverse
dependency map) on the PLIDs whose *reuse* could make an entry stale.
The memo holds **no references** — instead :meth:`StructuralMemo.on_dealloc`
is registered as a :class:`~repro.memory.dedup_store.DedupStore` dealloc
listener (the same hook the HICAMP cache and the replication leader's
FORGET path use), so an entry dies with the line it names. A line's
children cannot be deallocated while the line itself is alive (the line
holds counted references on them), so depending on the *top* PLID of a
memoized structure suffices.

The read table is the exception: its answers are bytes, and a committed
version is a value (section 2.2). Every root swap adds one to
``MapEntry.version`` and VSIDs are never reused, so answers recorded at
the current version are current, and a probe at any other version
discards the map's answers (counted as invalidations). A commit runs
without yielding, so a rise of exactly one across an ``HMap`` mutator's
own commit is that commit alone: :meth:`StructuralMemo.carry_reads`
moves the map's answers to the new version and records each staged
key's new answer — nothing is dropped, so an overwrite counts no
invalidation. Any other rise leaves the old version in place, to be
discarded by the next probe.

Modeled-stats transparency: the memo is **disabled by default**. The
figure/table experiments construct plain machines and never see it, so
their DRAM/cache statistics are untouched; the serving stack opts in
explicitly (a documented ``DramStats``-bypassing fast path: a forward
hit skips a build's lookups, a backward hit or a read-table hit a
read's line reads — see ``docs/performance.md``).
Reference counts stay *exact* either way: a segment-memo hit takes the
one reference a rebuild would have netted, and a hit that only
addresses a read takes none and drops none, so the refcount auditors
hold with the memo on.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.memory.line import is_ref, ref_plid

#: table names, in the order reported by :meth:`StructuralMemo.snapshot`
TABLES = ("segment", "digest", "read")

#: segment-table entries kept (LRU)
MAX_SEGMENTS = 1 << 13
#: digest-cache entries kept before :meth:`StructuralMemo.trim_digests`
#: empties it
MAX_DIGESTS = 1 << 16
#: answers the read table holds across all maps (the segment bound)
MAX_READS = 1 << 13
#: :meth:`StructuralMemo.get_read`'s "no answer recorded"
MISS = object()


@dataclass
class TableStats:
    """Per-table operation counters (surfaced through ``repro.obs``)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0


class StructuralMemo:
    """Bounded memo tables over one line store.

    The PLID-keyed tables are size-capped *and* invalidated through
    :meth:`on_dealloc`; either bound alone would suffice for safety
    (dealloc) or for memory (caps) — together they keep the memo both
    correct under PLID reuse and bounded under churn.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._max_segments = MAX_SEGMENTS
        self._max_digests = MAX_DIGESTS
        self.stats: Dict[str, TableStats] = {t: TableStats() for t in TABLES}
        # never counted: benchmarks/ledger/ledger.py still reads it
        self.stats["line"] = TableStats()
        self._read_stats = self.stats["read"]
        # segment memo: raw bytes -> (root entry, height, length). Path
        # compaction lets distinct contents share a root PLID (with
        # different paths), so the reverse map holds a tuple of keys per
        # PLID: a tuple of bytes is untracked by the cyclic collector
        # once it has seen it, where a set per root would stay tracked.
        self._segments: "OrderedDict[bytes, tuple]" = OrderedDict()
        self._seg_rev: Dict[int, Tuple[bytes, ...]] = {}
        # read table: VSID -> [version, {key: answer}]; one LRU order
        self._read_maps: Dict[int, list] = {}
        self._read_lru: "OrderedDict[tuple, None]" = OrderedDict()
        #: digest cache, used *directly* as the ``memo`` dict of
        #: :func:`repro.segments.dag.content_fingerprint` (the key is the
        #: PLID itself, so invalidation is a plain pop)
        self.digests: Dict[int, bytes] = {}

    # ------------------------------------------------------------------
    # lifecycle

    def enable(self) -> "StructuralMemo":
        """Turn the memo on (serving stack / benchmarks opt in here)."""
        self.enabled = True
        return self

    # ------------------------------------------------------------------
    # segment memo

    def get_segment(self, data: bytes) -> Optional[tuple]:
        """Memoized ``(root, height, length)`` for raw bytes, or None:
        the write side, which turns a repeated payload into its root."""
        triple = self._segments.get(data)
        if triple is None:
            self.stats["segment"].misses += 1
            return None
        self._segments.move_to_end(data)
        self.stats["segment"].hits += 1
        return triple

    def get_payload(self, root, height: int, length: int,
                    byte_length: int) -> Optional[bytes]:
        """The bytes a live ``(root, height, length)`` was built from, or
        None: the read side, the same table looked up backwards.

        ``byte_length`` is part of the match because packing zero-pads:
        payloads that differ only in trailing zero bytes share a triple.
        Path compaction lets distinct roots share a PLID, so the whole
        stored entry (path included) must equal ``root``.
        """
        triple = (root, height, length)
        for data in self._seg_rev.get(ref_plid(root), ()):
            if len(data) == byte_length and self._segments[data] == triple:
                self._segments.move_to_end(data)
                self.stats["segment"].hits += 1
                return data
        self.stats["segment"].misses += 1
        return None

    def put_segment(self, data: bytes, root, height: int,
                    length: int) -> None:
        """Record a completed canonical build of ``data``; both
        :meth:`get_segment` and :meth:`get_payload` answer from it."""
        self._segments[data] = (root, height, length)
        if is_ref(root):
            plid = ref_plid(root)
            self._seg_rev[plid] = self._seg_rev.get(plid, ()) + (data,)
        if len(self._segments) > self._max_segments:
            victim, (vroot, _, _) = self._segments.popitem(last=False)
            vplid = ref_plid(vroot) if is_ref(vroot) else None
            if vplid in self._seg_rev:
                keys = tuple(k for k in self._seg_rev[vplid] if k != victim)
                if keys:
                    self._seg_rev[vplid] = keys
                else:
                    del self._seg_rev[vplid]
            self.stats["segment"].evictions += 1

    # ------------------------------------------------------------------
    # read table

    def get_read(self, vsid: int, version: int, key: bytes):
        """Map ``vsid``'s answer for ``key`` at ``version``, else MISS:
        one ``dict.get`` per level."""
        held = self._read_maps.get(vsid)
        if held is not None:
            if held[0] != version:  # the map moved: forget its answers
                del self._read_maps[vsid]
                for stale in held[1]:
                    del self._read_lru[(vsid, stale)]
                self._read_stats.invalidations += len(held[1])
            else:
                answer = held[1].get(key, MISS)
                if answer is not MISS:
                    self._read_lru.move_to_end((vsid, key))
                    self._read_stats.hits += 1
                    return answer
        self._read_stats.misses += 1
        return MISS

    def put_read(self, vsid: int, version: int, key: bytes,
                 answer: Optional[bytes]) -> None:
        """Record map ``vsid``'s answer for ``key`` at ``version``: after
        a miss, or for a key the map's own commit staged."""
        if vsid not in self._read_maps:
            self._read_maps[vsid] = [version, {}]
        answers = self._read_maps[vsid][1]
        lru = self._read_lru
        if key in answers:  # a staged key the table already held
            answers[key] = answer
            lru.move_to_end((vsid, key))
            return
        answers[key] = answer
        lru[(vsid, key)] = None
        if len(lru) > MAX_READS:
            (vvsid, vkey), _ = lru.popitem(last=False)
            answers = self._read_maps[vvsid][1]
            del answers[vkey]
            if not answers:
                del self._read_maps[vvsid]
            self._read_stats.evictions += 1

    def carry_reads(self, vsid: int, before: int, after: int,
                    answers: Iterable[Tuple[bytes, Optional[bytes]]]
                    ) -> None:
        """Carry map ``vsid``'s answers across its own commit (a version
        rise of one), recording each staged key's ``(key, answer)`` in
        the committed version."""
        held = self._read_maps.get(vsid)
        if held is not None and held[0] == before == after - 1:
            held[0] = after
            for key, answer in answers:
                self.put_read(vsid, after, key, answer)

    # ------------------------------------------------------------------
    # digest cache

    def note_digest(self, hit: bool) -> None:
        """Count a fingerprint probe against the digest cache."""
        if hit:
            self.stats["digest"].hits += 1
        else:
            self.stats["digest"].misses += 1

    def trim_digests(self) -> None:
        """Bound the digest cache (called after a fingerprint pass).

        ``content_fingerprint`` fills the dict directly for every line it
        walks, so the bound is enforced wholesale afterwards rather than
        per insert; a full reset is the simple correct policy because any
        subset would be rebuilt lazily anyway.
        """
        if len(self.digests) > self._max_digests:
            self.stats["digest"].evictions += len(self.digests)
            self.digests.clear()

    # ------------------------------------------------------------------
    # invalidation

    def on_dealloc(self, plid: int) -> None:
        """Dealloc listener: drop every entry whose meaning depends on
        ``plid`` (its number may be reused for different content)."""
        if self.digests.pop(plid, None) is not None:
            self.stats["digest"].invalidations += 1
        for key in self._seg_rev.pop(plid, ()):
            if self._segments.pop(key, None) is not None:
                self.stats["segment"].invalidations += 1

    # ------------------------------------------------------------------
    # inspection (the ``repro.obs`` adapter reads these)

    def sizes(self) -> Dict[str, int]:
        """Resident entries per table."""
        return {"segment": len(self._segments), "digest": len(self.digests),
                "read": len(self._read_lru)}

    def ops(self) -> Dict[Tuple[str, str], int]:
        """``{(table, outcome): count}`` for the labeled obs counter."""
        out: Dict[Tuple[str, str], int] = {}
        for table in TABLES:
            stats = self.stats[table]
            out[(table, "hit")] = stats.hits
            out[(table, "miss")] = stats.misses
            out[(table, "eviction")] = stats.evictions
            out[(table, "invalidation")] = stats.invalidations
        return out

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """JSON-safe per-table counters plus residency."""
        sizes = self.sizes()
        return {table: {"hits": s.hits, "misses": s.misses,
                        "evictions": s.evictions,
                        "invalidations": s.invalidations,
                        "entries": sizes[table]}
                for table, s in self.stats.items() if table in sizes}
