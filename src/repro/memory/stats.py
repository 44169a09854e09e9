"""DRAM traffic accounting.

The evaluation's central metric is the number of off-chip DRAM accesses
(Figure 6 and Figure 7). :class:`DramStats` counts them in the categories
of Figure 6's legend:

* ``reads`` — data-line reads caused by cache misses;
* ``writes`` — data-line writes caused by cache writebacks;
* ``lookups`` — accesses performed by the lookup-by-content operation
  (signature-line reads/updates and candidate data-line reads,
  section 3.1);
* ``dealloc`` — accesses performed by line deallocation (signature
  zeroing, freed-line bookkeeping);
* ``refcount`` — reference-count line accesses that reach DRAM (RC values
  are cached and written back on eviction).

The conventional baseline uses only ``reads`` and ``writes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

CATEGORIES = ("reads", "writes", "lookups", "dealloc", "refcount")


@dataclass
class DramStats:
    """Mutable counter block for DRAM accesses, by category."""

    reads: int = 0
    writes: int = 0
    lookups: int = 0
    dealloc: int = 0
    refcount: int = 0

    def total(self) -> int:
        """Total DRAM accesses across all categories."""
        return self.reads + self.writes + self.lookups + self.dealloc + self.refcount

    def as_dict(self) -> Dict[str, int]:
        """Category → count mapping (ordered as Figure 6's legend)."""
        return {name: getattr(self, name) for name in CATEGORIES}

    def add(self, other: "DramStats") -> None:
        """Accumulate another counter block into this one."""
        for name in CATEGORIES:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def snapshot(self) -> "DramStats":
        """An independent copy of the current counts."""
        return DramStats(**self.as_dict())

    def delta(self, since: "DramStats") -> "DramStats":
        """Counts accumulated since an earlier :meth:`snapshot`."""
        return DramStats(
            **{n: getattr(self, n) - getattr(since, n) for n in CATEGORIES}
        )

    def reset(self) -> None:
        """Zero all counters."""
        for name in CATEGORIES:
            setattr(self, name, 0)


@dataclass
class RowBuffer:
    """Open-row DRAM model: consecutive accesses to the same row are row
    hits; a different row costs a precharge+activate (row miss).

    Supports the section 3.1 claim that all DRAM commands of one
    lookup-by-content land in one row (the hash bucket), minimizing
    command bandwidth, energy and latency.
    """

    last_row: int = -1
    hits: int = 0
    misses: int = 0

    #: rough DDR3-class energy figures (nanojoules)
    ACTIVATE_NJ = 2.5
    RW_NJ = 1.0

    def access(self, row: int) -> bool:
        """Record an access to ``row``; True when it was a row hit."""
        if row == self.last_row:
            self.hits += 1
            return True
        self.last_row = row
        self.misses += 1
        return False

    def hit_rate(self) -> float:
        """Fraction of DRAM accesses served from the open row."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def energy_nj(self) -> float:
        """Crude energy estimate: activates on misses + per-access R/W."""
        return (self.misses * self.ACTIVATE_NJ
                + (self.hits + self.misses) * self.RW_NJ)


@dataclass
class TrafficCounter:
    """Cache-level hit/miss accounting (diagnostics, not a paper metric)."""

    hits: int = 0
    misses: int = 0
    lookup_hits: int = 0
    lookup_misses: int = 0
    evictions: int = 0
    writebacks: int = 0
