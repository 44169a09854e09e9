"""Typed data structures on HICAMP segments (section 4).

Every structure here is a thin software convention over segments — the
paper's point is that the architecture's segments, iterator registers and
merge-update make these structures concurrency-safe without locks:

* :class:`HString` — byte strings as pure content segments (Figure 1);
* :class:`HArray` — growable word arrays (section 4.1);
* :class:`HMap` — the sparse-array map indexed by the content-unique
  identity of the key segment (sections 4.1, 4.4);
* :class:`HQueue` — a merge-update queue with counter-tracked head/tail
  (section 4.3);
* :class:`HCounterArray` — counters whose concurrent increments merge
  into sums (sections 3.4, 4.3);
* :class:`QuadTreeMatrix` — the QTS/NZD sparse-matrix formats
  (section 5.2).
"""

from repro.structures.hstring import HString
from repro.structures.harray import HArray
from repro.structures.hmap import HMap
from repro.structures.hqueue import HQueue
from repro.structures.hcounter import HCounterArray
from repro.structures.hmatrix import QuadTreeMatrix, NzdMatrix
from repro.structures.hordered import HOrderedCollection
from repro.structures.hmap_sharded import ShardedHMap
from repro.structures.hsorted import HSortedMap

__all__ = [
    "HString",
    "HArray",
    "HMap",
    "HQueue",
    "HCounterArray",
    "QuadTreeMatrix",
    "NzdMatrix",
    "HOrderedCollection",
    "ShardedHMap",
    "HSortedMap",
]
