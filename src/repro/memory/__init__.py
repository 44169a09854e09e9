"""Memory substrate: deduplicated content-addressable DRAM, HICAMP cache,
and a conventional cache-hierarchy baseline.

The public entry point is :class:`repro.memory.system.MemorySystem`, which
composes the deduplicating store (:mod:`repro.memory.dedup_store`) with the
HICAMP cache (:mod:`repro.memory.cache`) and exposes the two fundamental
operations of the architecture: ``read`` (by PLID) and ``lookup`` (by
content), plus hardware reference counting.
"""

from repro.memory.line import (
    Line,
    ZERO_PLID,
    encode_line,
    is_pack,
    is_ref,
    is_zero_line,
    line_child_plids,
    make_leaf,
    pack,
    ref,
    ref_path,
    ref_plid,
    zero_line,
)
from repro.memory.stats import DramStats, TrafficCounter
from repro.memory.dedup_store import DedupStore, ReclaimStats
from repro.memory.cache import HicampCache
from repro.memory.system import MemorySystem
from repro.memory.conventional import CacheLevel, ConventionalMemory

__all__ = [
    "Line",
    "ZERO_PLID",
    "encode_line",
    "is_pack",
    "is_ref",
    "is_zero_line",
    "line_child_plids",
    "make_leaf",
    "pack",
    "ref",
    "ref_path",
    "ref_plid",
    "zero_line",
    "DramStats",
    "TrafficCounter",
    "DedupStore",
    "ReclaimStats",
    "HicampCache",
    "MemorySystem",
    "CacheLevel",
    "ConventionalMemory",
]
