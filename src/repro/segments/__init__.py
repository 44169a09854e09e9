"""Segments: canonical DAG representation of variable-size memory regions
(section 2.2), the virtual segment map (section 2.3), iterator registers
(section 3.3), merge-update and mCAS (section 3.4), and the
:class:`AnonSegment` handle on one segment version.
"""

from repro.segments.anon import AnonSegment
from repro.segments.dag import (
    build_entry,
    build_segment,
    count_unique_lines,
    entry_capacity,
    gather_words,
    grow_entry,
    height_for,
    iter_nonzero,
    read_word,
    release_entry,
    retain_entry,
    write_words_bulk,
)
from repro.segments.segment_map import MapEntry, SegmentFlags, SegmentMap
from repro.segments.hicamp_map import HicampSegmentMap, MapTransaction
from repro.segments.iterator import IteratorRegister
from repro.segments.merge import (
    mcas,
    merge_entries,
    merge_roots,
    three_way_merge_word,
)

__all__ = [
    "AnonSegment",
    "build_entry",
    "build_segment",
    "count_unique_lines",
    "entry_capacity",
    "gather_words",
    "grow_entry",
    "height_for",
    "iter_nonzero",
    "read_word",
    "release_entry",
    "retain_entry",
    "write_words_bulk",
    "MapEntry",
    "SegmentFlags",
    "SegmentMap",
    "HicampSegmentMap",
    "MapTransaction",
    "IteratorRegister",
    "mcas",
    "merge_entries",
    "merge_roots",
    "three_way_merge_word",
]
