"""Host-level structural memoization over content-unique lines.

HICAMP's content-uniqueness invariant (section 3.1) means a PLID *is*
its content: any pure function of line content can be memoized with no
invalidation logic beyond deallocation. Two tables stay, each because it
pays on traffic the system serves:

* **segment memo** — raw bytes ↔ ``(root, height, length)``, answered
  in both directions. Forwards,
  :meth:`repro.structures.anon.AnonSegment.from_bytes` of a repeated
  payload is one dict probe instead of a full bottom-up build (on
  ``tcp-mixed-zipf``, values drawn from a small pool, the whole memo off
  cost 22 % more CPU per op and 21 % more p90 latency), and the same
  probe addresses reads: :meth:`repro.structures.hmap.HMap.get` and
  ``contains`` compute a known key's slot from its root, building no
  key segment and taking no reference (on ``tcp-read-hot``, with the
  one-step path check in :func:`repro.segments.dag.read_word`, about
  18 % less CPU per op). Backwards,
  :func:`repro.structures.anon.read_ref_slot` returns the bytes a live
  root was built from instead of walking its DAG and repacking it (on
  the same workload, 32 % less CPU per op over ten pairs);
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

Modeled-stats transparency: the memo is **disabled by default**. The
figure/table experiments construct plain machines and never see it, so
their DRAM/cache statistics are untouched; the serving stack opts in
explicitly (a documented ``DramStats``-bypassing fast path: a forward
hit skips a build's lookups, a backward hit a read's line reads — see
``docs/performance.md``).
Reference counts stay *exact* either way: a segment-memo hit takes the
one reference a rebuild would have netted, and a hit that only
addresses a read takes none and drops none, so the refcount auditors
hold with the memo on.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

#: table names, in the order reported by :meth:`StructuralMemo.snapshot`
TABLES = ("segment", "digest")


@dataclass
class TableStats:
    """Per-table operation counters (surfaced through ``repro.obs``)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0


class StructuralMemo:
    """Bounded, dealloc-invalidated memo tables over one line store.

    Both tables are size-capped *and* invalidated through
    :meth:`on_dealloc`; either bound alone would suffice for safety
    (dealloc) or for memory (caps) — together they keep the memo both
    correct under PLID reuse and bounded under churn.
    """

    def __init__(self, max_segments: int = 1 << 13,
                 max_digests: int = 1 << 16) -> None:
        self.enabled = False
        self._max_segments = max(1, max_segments)
        self._max_digests = max(1, max_digests)
        self.stats: Dict[str, TableStats] = {t: TableStats() for t in TABLES}
        # never counted: benchmarks/ledger/ledger.py still reads it
        self.stats["line"] = TableStats()
        # segment memo: raw bytes -> (root entry, height, length). Path
        # compaction lets distinct contents share a root PLID (with
        # different paths), so the reverse map holds key *sets*.
        self._segments: "OrderedDict[bytes, tuple]" = OrderedDict()
        self._seg_rev: Dict[int, Set[bytes]] = {}
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
        for data in self._seg_rev.get(root.plid, ()):
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
        plid = getattr(root, "plid", None)
        if plid is not None:
            self._seg_rev.setdefault(plid, set()).add(data)
        if len(self._segments) > self._max_segments:
            victim, (vroot, _, _) = self._segments.popitem(last=False)
            vplid = getattr(vroot, "plid", None)
            keys = self._seg_rev.get(vplid)
            if keys is not None:
                keys.discard(victim)
                if not keys:
                    del self._seg_rev[vplid]
            self.stats["segment"].evictions += 1

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
        return {"segment": len(self._segments), "digest": len(self.digests)}

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
