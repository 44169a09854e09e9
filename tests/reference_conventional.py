"""Test-only oracle: the conventional baseline that walks line by line.

This is :class:`repro.memory.conventional.ConventionalMemory` as it
stood before ``access`` became one loop over both levels, moved here
verbatim: ``access`` calls ``_access_line`` once per spanned line, and
``_access_line`` calls ``CacheLevel.access`` for L1 and then, for a
dirty L1 victim and for an L1 miss, for L2, touching the row buffer
after each L2 call. It defines what the hierarchy does and charges —
``tests/test_conventional_differential.py`` drives it beside the
production model over seeded traces and requires equal ``DramStats``,
row-buffer state, traffic counters and per-set LRU order with dirty
flags after every operation. Nothing under ``src/`` imports it.
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
        ways[line_addr] = is_write
        ways.move_to_end(line_addr)
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

    def _access_line(self, line_addr: int, is_write: bool) -> None:
        missed, wb1 = self.l1.access(line_addr, is_write)
        if wb1 is not None:
            # L1 dirty victim lands in L2 (write-back hierarchy).
            m2, wb2 = self.l2.access(wb1, True)
            if m2:
                self.dram.reads += 1  # allocate-on-writeback fill
                self.rows.access(wb1 // self.ROW_BYTES)
            if wb2 is not None:
                self.dram.writes += 1
                self.rows.access(wb2 // self.ROW_BYTES)
        if missed:
            m2, wb2 = self.l2.access(line_addr, False)
            if m2:
                self.dram.reads += 1
                self.rows.access(line_addr // self.ROW_BYTES)
            if wb2 is not None:
                self.dram.writes += 1
                self.rows.access(wb2 // self.ROW_BYTES)

    def access(self, addr: int, size: int, is_write: bool) -> None:
        """Access ``size`` bytes at ``addr``, touching each spanned line."""
        if size <= 0:
            return
        first = addr - (addr % self._line)
        last = addr + size - 1
        last -= last % self._line
        for line_addr in range(first, last + 1, self._line):
            self._access_line(line_addr, is_write)

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
