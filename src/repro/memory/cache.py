"""The HICAMP cache (section 3.1, Figure 3).

Like the main memory, the cache supports both fundamental operations:

* **read** by PLID — a conventional set-associative probe, except the
  index is taken from the PLID's hash-bucket bits;
* **lookup-by-content** — because each main-memory hash bucket maps to
  exactly one cache set (the cache is indexed by a subset of the content
  hash bits carried in the PLID), a content lookup needs to search only a
  single set: hash the content, probe that one set, compare contents, and
  on a hit recompose the PLID from the matching way's tag.

That single-set search is the *model*: one set, all ways compared at
once, LRU within the set. The host does not walk the ways, and it does
not copy lines: a line is immutable and its content unique, so a cached
copy always equals the line in DRAM (no coherence problem), and a set
holds only its resident PLIDs, least recently used first, whose content
is the store's line. A content lookup asks the store's ``content ->
PLID`` map, keyed by the line tuple itself, for the PLID, and is a hit
exactly when that PLID's set holds it and the store's line is an
*equal tuple* — the way scan's compare (a line corrupted in place is
indexed under its old content, and misses as the scan does). Content
is unique, so at most one live PLID holds a given content; a line is
resident only in the set of its PLID's hash bucket (an overflow PLID's
through the store's overflow map). Only a miss encodes the line, for
the store's bucket hash. The cache keeps no content table of its own:
residency changes in three places only — :meth:`HicampCache._insert`
(with its eviction), the store's dealloc listener and :meth:`flush`.

There is no dirty state in the conventional sense; the only writeback
is the *deferred allocation write* of a newly created line, charged to
the store when the line is first evicted (or never, if it was
deallocated first).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.memory.dedup_store import DedupStore
from repro.memory.line import Line, ZERO_PLID
from repro.memory.stats import TrafficCounter
from repro.params import CacheGeometry


def _invalidator(sets: List[List[int]], num_sets: int,
                 bucket_of: Callable[[int], int]) -> Callable[[int], None]:
    """The dealloc listener that drops a freed line from a cache's
    sets."""

    def invalidate(plid: int) -> None:
        ways = sets[bucket_of(plid) % num_sets]
        if plid in ways:
            ways.remove(plid)

    return invalidate


class HicampCache:
    """Set-associative cache over a :class:`DedupStore`, hash-indexed."""

    def __init__(self, store: DedupStore, geometry: Optional[CacheGeometry] = None) -> None:
        if geometry is None:
            geometry = CacheGeometry(
                size_bytes=4 * 1024 * 1024,
                ways=16,
                line_bytes=store.config.line_bytes,
            )
        if geometry.line_bytes != store.config.line_bytes:
            raise ValueError("cache line size must match memory line size")
        self.store = store
        self.geometry = geometry
        self.traffic = TrafficCounter()
        self._num_sets = geometry.num_sets
        self._ways = geometry.ways
        self._num_buckets = store.config.num_buckets
        self._overflow_base = store._overflow_base
        #: the store's PLID -> line dict: a resident line's content
        self._lines = store._lines
        # Per set: its resident PLIDs, least recently used first.
        self._sets: List[List[int]] = [[] for _ in range(self._num_sets)]
        # the hook holds the sets, not the cache (which holds the
        # store): a bound method would make every machine a cycle
        store.dealloc_listeners.append(_invalidator(
            self._sets, self._num_sets, store.bucket_of))

    # ------------------------------------------------------------------

    def _ways_of(self, plid: int) -> List[int]:
        """The one set ``plid`` can be resident in: the cache indexes on
        the hash-bucket bits of the PLID."""
        if plid < self._overflow_base:
            return self._sets[plid % self._num_buckets % self._num_sets]
        return self._sets[self.store.bucket_of(plid) % self._num_sets]

    def _insert(self, ways: List[int], plid: int) -> None:
        ways.append(plid)
        if len(ways) > self._ways:
            victim = ways.pop(0)
            self.traffic.evictions += 1
            # the store charges a line's deferred allocation write once
            self.store.writeback(victim)

    # ------------------------------------------------------------------

    def read(self, plid: int) -> Line:
        """Read a line through the cache (PLID-indexed probe)."""
        if plid == ZERO_PLID:
            return self.store.peek(ZERO_PLID)
        # _ways_of, in line: this is the simulator's most-called function
        if plid < self._overflow_base:
            ways = self._sets[plid % self._num_buckets % self._num_sets]
        else:
            ways = self._sets[self.store.bucket_of(plid) % self._num_sets]
        if plid in ways:
            if ways[-1] != plid:
                ways.remove(plid)
                ways.append(plid)
            self.traffic.hits += 1
            return self._lines[plid]
        self.traffic.misses += 1
        line = self.store.read_dram(plid)
        self._insert(ways, plid)
        return line

    def lookup(self, line: Line, consume: bool = False) -> int:
        """Find-or-allocate by content through the cache.

        A cache hit recomposes the PLID without any DRAM access (the
        reference count is still bumped, in the RC cache); a miss performs
        the full DRAM lookup of section 3.1 and installs the line.
        ``consume`` hands the caller's references on the line's children
        to the line (:meth:`DedupStore.intern`).
        """
        if not any(line):  # is_zero_line, in line
            return ZERO_PLID
        store = self.store
        plid = store._plid_by_line.get(line)
        if plid is not None:
            ways = self._ways_of(plid)
            if plid in ways:
                if self._lines[plid] == line:
                    if ways[-1] != plid:
                        ways.remove(plid)
                        ways.append(plid)
                    self.traffic.lookup_hits += 1
                    store.incref(plid)
                    if consume:
                        store.settle_children(line, False)
                    return plid
                # resident, but corrupted in place since it came in: a
                # miss, which installs it again as most recently used
                ways.remove(plid)
        self.traffic.lookup_misses += 1
        plid, created = store.intern(line, plid, consume)
        if created:  # _ways_of, in line: most lookups of a fresh set
            ways = (self._sets[plid % self._num_buckets % self._num_sets]
                    if plid < self._overflow_base else self._ways_of(plid))
        # else the store found the line the map named: its set is ways
        self._insert(ways, plid)
        if consume:
            store.settle_children(line, created)
        return plid

    def flush(self) -> None:
        """Evict everything, charging deferred allocation writes."""
        for ways in self._sets:
            for plid in ways:
                self.store.writeback(plid)
            ways.clear()

    def resident_lines(self) -> int:
        """Number of lines currently cached (diagnostics)."""
        return sum(map(len, self._sets))
