"""Test-only oracle: the HICAMP cache that *scans* a set.

This is :class:`repro.memory.cache.HicampCache` as it stood before a
content hit was answered from a ``content -> PLID`` map (today the
store's own, plus a check that the named PLID is resident under an
equal tuple), moved here verbatim: ``lookup`` encodes and hashes every
line to pick its set and then walks the set's ways comparing content,
``read`` reaches its set index through ``_set_index_for_plid`` ->
``DedupStore.bucket_of``, and ``_where`` remembers each resident PLID's
set for ``invalidate``. It
keeps a copy of each resident line, where the production cache keeps
only the PLID and reads the content from the store. It defines what
"one set, all ways searched, LRU" returns and charges —
``tests/test_cache_differential.py`` drives it beside the production
cache on twin stores and requires equal return values, traffic
counters, ``DramStats``, row-buffer state and per-set LRU order after
every operation, each of its (PLID, line) pairs equal to a production
PLID and the store's line. The two part only under the test-only
``DedupStore.corrupt_line_for_test``: a copy re-installed by its
original bytes still reads and matches as those bytes
(``tests/test_cache.py::TestCorruptedLine``). Nothing under ``src/``
imports it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.memory import hashing
from repro.memory.dedup_store import DedupStore
from repro.memory.line import Line, ZERO_PLID, encode_line, is_zero_line
from repro.memory.stats import TrafficCounter
from repro.params import CacheGeometry


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
        # Per set: PLID -> Line in LRU order. Content search scans one set.
        self._sets: "list[OrderedDict[int, Line]]" = [
            OrderedDict() for _ in range(self._num_sets)
        ]
        self._where: "dict[int, int]" = {}  # plid -> set index (for invalidate)
        store.dealloc_listeners.append(self.invalidate)

    # ------------------------------------------------------------------

    def _set_index_for_plid(self, plid: int) -> int:
        return self.store.bucket_of(plid) % self._num_sets

    def _insert(self, set_idx: int, plid: int, line: Line) -> None:
        ways = self._sets[set_idx]
        ways[plid] = line
        ways.move_to_end(plid)
        self._where[plid] = set_idx
        if len(ways) > self._ways:
            victim, _ = ways.popitem(last=False)
            self._where.pop(victim, None)
            self.traffic.evictions += 1
            # Deferred allocation write of a never-written line.
            self.store.writeback(victim)

    # ------------------------------------------------------------------

    def read(self, plid: int) -> Line:
        """Read a line through the cache (PLID-indexed probe)."""
        if plid == ZERO_PLID:
            return self.store.peek(ZERO_PLID)
        set_idx = self._set_index_for_plid(plid)
        ways = self._sets[set_idx]
        line = ways.get(plid)
        if line is not None:
            ways.move_to_end(plid)
            self.traffic.hits += 1
            return line
        self.traffic.misses += 1
        line = self.store.read_dram(plid)
        self._insert(set_idx, plid, line)
        return line

    def lookup(self, line: Line) -> int:
        """Find-or-allocate by content through the cache.

        A cache hit recomposes the PLID without any DRAM access (the
        reference count is still bumped, in the RC cache); a miss performs
        the full DRAM lookup of section 3.1 and installs the line.
        """
        if is_zero_line(line):
            return ZERO_PLID
        enc = encode_line(line)
        bucket = hashing.bucket_hash(enc, self.store.config.num_buckets)
        set_idx = bucket % self._num_sets
        ways = self._sets[set_idx]
        # Single-set content search: compare against resident lines.
        for plid, resident in ways.items():
            if resident == line:
                ways.move_to_end(plid)
                self.traffic.lookup_hits += 1
                self.store.incref(plid)
                return plid
        self.traffic.lookup_misses += 1
        plid, _created = self.store.lookup(line)
        self._insert(set_idx, plid, line)
        return plid

    def invalidate(self, plid: int) -> None:
        """Drop a (deallocated) line from the cache."""
        set_idx = self._where.pop(plid, None)
        if set_idx is not None:
            self._sets[set_idx].pop(plid, None)

    def flush(self) -> None:
        """Evict everything, charging deferred allocation writes."""
        for ways in self._sets:
            for plid in list(ways):
                self.store.writeback(plid)
            ways.clear()
        self._where.clear()

    def resident_lines(self) -> int:
        """Number of lines currently cached (diagnostics)."""
        return len(self._where)
