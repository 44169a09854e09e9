"""Conventional-architecture baseline: a two-level write-back cache
hierarchy over a flat address space (the paper's DineroIV analogue).

The evaluation (section 5) compares DRAM access counts between HICAMP and
a conventional machine with a 4-way 32 KB L1 data cache and a 16-way 4 MB
L2, at 16/32/64-byte lines. This module consumes an address trace —
``load(addr, size)`` / ``store(addr, size)`` — and counts the DRAM reads
(L2 misses) and DRAM writes (dirty L2 writebacks) it induces.

A small bump allocator (:class:`Arena`) lets application models lay out
their software data structures (hash tables, item chains, socket buffers)
in the flat address space.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.memory.stats import DramStats, RowBuffer, TrafficCounter
from repro.params import CacheGeometry, ConventionalConfig


class CacheLevel:
    """One set-associative, write-back, write-allocate cache level."""

    def __init__(self, geometry: CacheGeometry, name: str = "L?") -> None:
        self.geometry = geometry
        self.name = name
        self.traffic = TrafficCounter()
        self._num_sets = geometry.num_sets
        self._ways = geometry.ways
        self._line = geometry.line_bytes
        # Per set: line address -> dirty flag, in LRU order.
        self._sets: "list[OrderedDict[int, bool]]" = [
            OrderedDict() for _ in range(self._num_sets)
        ]

    def access(self, line_addr: int, is_write: bool):
        """Access one cache line.

        Returns ``(missed, writeback_addr)`` where ``writeback_addr`` is
        the address of a dirty victim evicted by this access (or None).
        """
        set_idx = (line_addr // self._line) % self._num_sets
        ways = self._sets[set_idx]
        if line_addr in ways:
            ways.move_to_end(line_addr)
            if is_write:
                ways[line_addr] = True
            self.traffic.hits += 1
            return False, None
        self.traffic.misses += 1
        ways[line_addr] = is_write  # a new key lands most recently used
        writeback = None
        if len(ways) > self._ways:
            victim, dirty = ways.popitem(last=False)
            self.traffic.evictions += 1
            if dirty:
                self.traffic.writebacks += 1
                writeback = victim
        return True, writeback

    def flush(self):
        """Evict all lines; yields addresses of dirty lines."""
        dirty_addrs = []
        for ways in self._sets:
            for addr, dirty in ways.items():
                if dirty:
                    dirty_addrs.append(addr)
            ways.clear()
        return dirty_addrs


class ConventionalMemory:
    """Flat memory behind L1+L2; counts DRAM reads and writebacks."""

    #: DRAM row size for the open-row model (a typical 8 KB row)
    ROW_BYTES = 8192

    def __init__(self, config: Optional[ConventionalConfig] = None) -> None:
        self.config = config or ConventionalConfig()
        self.dram = DramStats()
        self.rows = RowBuffer()
        self.l1 = CacheLevel(self.config.l1, "L1")
        self.l2 = CacheLevel(self.config.l2, "L2")
        self._line = self.config.line_bytes

    def access(self, addr: int, size: int, is_write: bool) -> None:
        """Access ``size`` bytes at ``addr``, touching each spanned line.

        One loop over the spanned lines and both levels, with the sets,
        traffic counters and open row in locals written back once. Per
        line the modeled steps are those of two :meth:`CacheLevel.access`
        calls, in their order: the L1 probe (a hit refreshes LRU and
        dirties on a write); on a miss the L1 insert and LRU victim, then
        the dirty victim's write-allocate into L2, then the L2 fill. Each
        L2 miss reads DRAM and each dirty L2 victim writes it, touching
        the open row in that order. A one-line access that hits L1
        returns before the rest is bound.
        """
        if size <= 0:
            return
        line = self._line
        first = addr - addr % line
        last = addr + size - 1
        last -= last % line
        l1 = self.l1
        sets1, nsets1 = l1._sets, l1._num_sets
        if first == last:
            ways = sets1[first // line % nsets1]
            if first in ways:
                ways.move_to_end(first)
                if is_write:
                    ways[first] = True
                l1.traffic.hits += 1
                return
        l2 = self.l2
        sets2, nsets2 = l2._sets, l2._num_sets
        max1, max2 = l1._ways, l2._ways
        row_bytes = self.ROW_BYTES
        rows = self.rows
        open_row, row_hits, row_misses = rows.last_row, rows.hits, rows.misses
        hits1 = misses1 = evictions1 = writebacks1 = 0
        hits2 = misses2 = evictions2 = writebacks2 = 0
        for line_addr in range(first, last + line, line):
            ways = sets1[line_addr // line % nsets1]
            if line_addr in ways:
                ways.move_to_end(line_addr)
                if is_write:
                    ways[line_addr] = True
                hits1 += 1
                continue
            misses1 += 1
            ways[line_addr] = is_write
            below = ((line_addr, False),)
            if len(ways) > max1:
                victim, dirty = ways.popitem(last=False)
                evictions1 += 1
                if dirty:  # it lands in L2 (write-allocate) before the fill
                    writebacks1 += 1
                    below = ((victim, True), (line_addr, False))
            for addr2, dirty2 in below:
                ways = sets2[addr2 // line % nsets2]
                if addr2 in ways:
                    ways.move_to_end(addr2)
                    if dirty2:
                        ways[addr2] = True
                    hits2 += 1
                    continue
                misses2 += 1
                ways[addr2] = dirty2
                row = addr2 // row_bytes  # the DRAM read that fills it
                if row == open_row:
                    row_hits += 1
                else:
                    open_row = row
                    row_misses += 1
                if len(ways) > max2:
                    victim, dirty = ways.popitem(last=False)
                    evictions2 += 1
                    if dirty:  # the DRAM write of the L2 victim
                        writebacks2 += 1
                        row = victim // row_bytes
                        if row == open_row:
                            row_hits += 1
                        else:
                            open_row = row
                            row_misses += 1
        t1, t2, dram = l1.traffic, l2.traffic, self.dram
        t1.hits += hits1
        t1.misses += misses1
        t1.evictions += evictions1
        t1.writebacks += writebacks1
        t2.hits += hits2
        t2.misses += misses2
        t2.evictions += evictions2
        t2.writebacks += writebacks2
        dram.reads += misses2
        dram.writes += writebacks2
        rows.last_row, rows.hits, rows.misses = open_row, row_hits, row_misses

    def load(self, addr: int, size: int = 8) -> None:
        """Record a load of ``size`` bytes at ``addr``."""
        self.access(addr, size, False)

    def store(self, addr: int, size: int = 8) -> None:
        """Record a store of ``size`` bytes at ``addr``."""
        self.access(addr, size, True)

    def drain(self) -> None:
        """Flush both levels so dirty data reaches the DRAM counters."""
        for addr in self.l1.flush():
            m2, wb2 = self.l2.access(addr, True)
            if m2:
                self.dram.reads += 1
                self.rows.access(addr // self.ROW_BYTES)
            if wb2 is not None:
                self.dram.writes += 1
                self.rows.access(wb2 // self.ROW_BYTES)
        for addr in self.l2.flush():
            self.dram.writes += 1
            self.rows.access(addr // self.ROW_BYTES)


class Arena:
    """Bump allocator laying software structures out in the flat space.

    Application models use it to assign addresses to hash-table buckets,
    item records and I/O buffers so their access traces have realistic
    locality structure.
    """

    def __init__(self, base: int = 0x10000, align: int = 16) -> None:
        self._next = base
        self._align = align

    def alloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the base address."""
        addr = self._next
        bump = size + (-size % self._align)
        self._next += bump
        return addr

    @property
    def used(self) -> int:
        """Total bytes allocated so far (including alignment padding)."""
        return self._next
