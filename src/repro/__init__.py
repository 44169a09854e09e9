"""repro — a reproduction of HICAMP (ASPLOS 2012).

HICAMP (Hierarchical Immutable Content Addressable Memory Processor) is a
memory architecture built on content-unique immutable lines, canonical
DAG-structured segments, and a virtual segment map, giving hardware-level
snapshot isolation, O(1) structural equality, memory deduplication, and
non-blocking atomic update with merge support.

Quick start::

    from repro import Machine
    from repro.structures import HString

    m = Machine()
    s1 = HString.create(m, b"This is a long string containing Another string")
    s2 = HString.create(m, b"Another string")
    # the substring shares every line of the original (Figure 1)

Public layers:

* :class:`repro.Machine` — the machine facade (segments, iterators, CAS);
* :mod:`repro.structures` — arrays, maps, strings, queues, counters,
  quad-tree matrices built on segments;
* :mod:`repro.apps` — the paper's evaluated applications (memcached,
  sparse-matrix kernels, VM-hosting dedup study);
* :mod:`repro.workloads` — synthetic dataset/trace generators;
* :mod:`repro.analysis` — analytical models and table/figure rendering.
"""

from repro.core.machine import Machine
from repro.core.transactions import MultiSegmentCommit, atomic_update
from repro.errors import (
    BadPlidError,
    BadVsidError,
    CasFailedError,
    HicampError,
    IteratorStateError,
    MemoryExhaustedError,
    MergeConflictError,
    ReadOnlyError,
    SegmentRangeError,
)
from repro.params import (
    CacheGeometry,
    ConventionalConfig,
    MachineConfig,
    MemoryConfig,
)
from repro.segments.anon import AnonSegment
from repro.segments.merge import mcas
from repro.segments.segment_map import SegmentFlags

__version__ = "1.0.0"

__all__ = [
    "Machine",
    "AnonSegment",
    "MultiSegmentCommit",
    "atomic_update",
    "mcas",
    "SegmentFlags",
    "MachineConfig",
    "MemoryConfig",
    "CacheGeometry",
    "ConventionalConfig",
    "HicampError",
    "MemoryExhaustedError",
    "BadPlidError",
    "BadVsidError",
    "ReadOnlyError",
    "CasFailedError",
    "MergeConflictError",
    "IteratorStateError",
    "SegmentRangeError",
    "__version__",
]
