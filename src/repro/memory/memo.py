"""Host-level structural memoization over content-unique lines.

HICAMP's content-uniqueness invariant (section 3.1) means a PLID *is*
its content: any pure function of line content — canonical DAG
construction, three-way merge, content fingerprinting — can be memoized
with no invalidation logic beyond deallocation. This module is the
shared memo state exploited by the hot paths:

* **line intern** — canonical line content → PLID, so rebuilding a
  subtree already materialized skips the find-or-allocate bucket walk
  entirely (:func:`repro.segments.dag._leaf_entry` /
  :func:`~repro.segments.dag._canonical_interior`);
* **segment memo** — raw bytes → ``(root, height, length)``, so
  :meth:`repro.structures.anon.AnonSegment.from_bytes` of a repeated
  payload is one dict probe instead of a full bottom-up build;
* **merge memo** — ``(base, mine, theirs, level)`` canonical keys →
  merged entry, accelerating the router's batched merge-update commits
  when the same divergence is folded repeatedly;
* **digest cache** — PLID → content fingerprint, promoting the per-call
  ``memo`` of :func:`repro.segments.dag.content_fingerprint` to machine
  level (replication delta pruning, fingerprint convergence checks).

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
explicitly (a documented ``DramStats``-bypassing fast path — see
``docs/performance.md``).
Reference counts stay *exact* either way: every memo hit performs the
same incref the equivalent dedup-hit path would, so the refcount
auditors hold with the memo on.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

#: distinguishes "not memoized" from a memoized zero entry
MISS = object()

#: table names, in the order reported by :meth:`StructuralMemo.snapshot`
TABLES = ("line", "segment", "merge", "digest")


@dataclass
class TableStats:
    """Per-table operation counters (surfaced through ``repro.obs``)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0


class StructuralMemo:
    """Bounded, dealloc-invalidated memo tables over one line store.

    All tables are size-capped LRUs *and* invalidated through
    :meth:`on_dealloc`; either bound alone would suffice for safety
    (dealloc) or for memory (caps) — together they keep the memo both
    correct under PLID reuse and bounded under churn.
    """

    def __init__(self, max_lines: int = 1 << 16,
                 max_segments: int = 1 << 13,
                 max_merges: int = 1 << 13,
                 max_digests: int = 1 << 16) -> None:
        self.enabled = False
        self._max_lines = max(1, max_lines)
        self._max_segments = max(1, max_segments)
        self._max_merges = max(1, max_merges)
        self._max_digests = max(1, max_digests)
        self.stats: Dict[str, TableStats] = {t: TableStats() for t in TABLES}
        # line intern: canonical line tuple -> plid. One line content has
        # exactly one PLID, so the reverse map is one-to-one.
        self._lines: "OrderedDict[tuple, int]" = OrderedDict()
        self._line_rev: Dict[int, tuple] = {}
        # segment memo: raw bytes -> (root entry, height, length). Path
        # compaction lets distinct contents share a root PLID (with
        # different paths), so the reverse map holds key *sets*.
        self._segments: "OrderedDict[bytes, tuple]" = OrderedDict()
        self._seg_rev: Dict[int, Set[bytes]] = {}
        # merge memo: (entry_key x3, level) -> (result entry, dep plids)
        self._merges: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._merge_rev: Dict[int, Set[tuple]] = {}
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

    def disable(self) -> None:
        """Turn the memo off and drop every table."""
        self.enabled = False
        self.clear()

    def clear(self) -> None:
        """Drop all memoized state (counters are kept)."""
        self._lines.clear()
        self._line_rev.clear()
        self._segments.clear()
        self._seg_rev.clear()
        self._merges.clear()
        self._merge_rev.clear()
        self.digests.clear()

    # ------------------------------------------------------------------
    # line intern

    def get_line(self, line: tuple) -> Optional[int]:
        """PLID previously interned for this canonical line, or None."""
        plid = self._lines.get(line)
        if plid is None:
            self.stats["line"].misses += 1
            return None
        self._lines.move_to_end(line)
        self.stats["line"].hits += 1
        return plid

    def put_line(self, line: tuple, plid: int) -> None:
        """Record a completed find-or-allocate for this line content."""
        if plid == 0:
            return
        self._lines[line] = plid
        self._line_rev[plid] = line
        if len(self._lines) > self._max_lines:
            victim, victim_plid = self._lines.popitem(last=False)
            self._line_rev.pop(victim_plid, None)
            self.stats["line"].evictions += 1

    # ------------------------------------------------------------------
    # segment memo

    def get_segment(self, data: bytes) -> Optional[tuple]:
        """Memoized ``(root, height, length)`` for raw bytes, or None."""
        triple = self._segments.get(data)
        if triple is None:
            self.stats["segment"].misses += 1
            return None
        self._segments.move_to_end(data)
        self.stats["segment"].hits += 1
        return triple

    def put_segment(self, data: bytes, root, height: int,
                    length: int) -> None:
        """Record a completed canonical build of ``data``."""
        self._segments[data] = (root, height, length)
        plid = getattr(root, "plid", None)
        if plid is not None:
            self._seg_rev.setdefault(plid, set()).add(data)
        if len(self._segments) > self._max_segments:
            victim, (vroot, _, _) = self._segments.popitem(last=False)
            self._drop_rev(self._seg_rev, getattr(vroot, "plid", None),
                           victim)
            self.stats["segment"].evictions += 1

    # ------------------------------------------------------------------
    # merge memo

    def get_merge(self, key: tuple):
        """Memoized merge result for a canonical triple, or :data:`MISS`."""
        cached = self._merges.get(key)
        if cached is None:
            self.stats["merge"].misses += 1
            return MISS
        self._merges.move_to_end(key)
        self.stats["merge"].hits += 1
        return cached[0]

    def put_merge(self, key: tuple, result, deps: tuple) -> None:
        """Record a completed merge; ``deps`` are the entries whose PLIDs
        (base/mine/theirs/result) the cached mapping depends on."""
        plids = tuple(sorted({e.plid for e in deps
                              if hasattr(e, "plid")}))
        self._merges[key] = (result, plids)
        for plid in plids:
            self._merge_rev.setdefault(plid, set()).add(key)
        if len(self._merges) > self._max_merges:
            victim, (_, vplids) = self._merges.popitem(last=False)
            for plid in vplids:
                self._drop_rev(self._merge_rev, plid, victim)
            self.stats["merge"].evictions += 1

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
        line = self._line_rev.pop(plid, None)
        if line is not None:
            self._lines.pop(line, None)
            self.stats["line"].invalidations += 1
        for key in self._seg_rev.pop(plid, ()):
            if self._segments.pop(key, None) is not None:
                self.stats["segment"].invalidations += 1
        for key in self._merge_rev.pop(plid, ()):
            cached = self._merges.pop(key, None)
            if cached is None:
                continue
            self.stats["merge"].invalidations += 1
            for dep in cached[1]:
                if dep != plid:
                    self._drop_rev(self._merge_rev, dep, key)

    @staticmethod
    def _drop_rev(rev: Dict[int, set], plid, key) -> None:
        if plid is None:
            return
        keys = rev.get(plid)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del rev[plid]

    # ------------------------------------------------------------------
    # inspection (the ``repro.obs`` adapter reads these)

    def sizes(self) -> Dict[str, int]:
        """Resident entries per table."""
        return {"line": len(self._lines), "segment": len(self._segments),
                "merge": len(self._merges), "digest": len(self.digests)}

    def ops(self) -> Dict[Tuple[str, str], int]:
        """``{(table, outcome): count}`` for the labeled obs counter."""
        out: Dict[Tuple[str, str], int] = {}
        for table, stats in self.stats.items():
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
                for table, s in self.stats.items()}
