"""Memory substrate: deduplicated content-addressable DRAM, HICAMP cache,
and a conventional cache-hierarchy baseline.

The public entry point is :class:`repro.memory.system.MemorySystem`, which
composes the deduplicating store (:mod:`repro.memory.dedup_store`) with the
HICAMP cache (:mod:`repro.memory.cache`) and exposes the two fundamental
operations of the architecture: ``read`` (by PLID) and ``lookup`` (by
content), plus hardware reference counting.
"""

from repro.memory.line import (
    DataWord,
    Inline,
    Line,
    PlidRef,
    ZERO_PLID,
    encode_line,
    is_zero_line,
    line_child_plids,
    make_leaf,
    zero_line,
)
from repro.memory.stats import DramStats, TrafficCounter
from repro.memory.dedup_store import DedupStore
from repro.memory.reclaim import EpochReclaimer, ReclaimStats, SlotAllocator
from repro.memory.cache import HicampCache
from repro.memory.system import MemorySystem
from repro.memory.conventional import CacheLevel, ConventionalMemory

__all__ = [
    "DataWord",
    "Inline",
    "Line",
    "PlidRef",
    "ZERO_PLID",
    "encode_line",
    "is_zero_line",
    "line_child_plids",
    "make_leaf",
    "zero_line",
    "DramStats",
    "TrafficCounter",
    "DedupStore",
    "EpochReclaimer",
    "ReclaimStats",
    "SlotAllocator",
    "HicampCache",
    "MemorySystem",
    "CacheLevel",
    "ConventionalMemory",
]
