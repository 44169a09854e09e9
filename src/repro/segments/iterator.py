"""Iterator registers (section 3.3, Figure 5).

An iterator register is the architecture's extended address register: it
is loaded with a VSID and an offset, caches the DAG path to the current
position, advances directly to the next non-null element, and buffers
stores in *transient lines* — per-processor, non-deduplicated memory —
until a commit converts them to content-unique lines bottom-up and
compare-and-swaps the new root into the segment map. :meth:`try_commit`
is the one commit step of every register-based update: build the new
version once, CAS it, and on a lost race of a merge-update commit hand
that same version to mCAS (section 3.4).

Loading a register takes a snapshot: the register holds its own reference
on the root it observed, so the content it iterates is immune to
concurrent commits (snapshot isolation, section 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import IteratorStateError, ReadOnlyError, SegmentRangeError
from repro.memory.system import MemorySystem
from repro.segments import dag
from repro.segments.dag import Entry
from repro.segments.merge import mcas
from repro.segments.segment_map import SegmentFlags, SegmentMap


@dataclass
class IteratorStats:
    """Register-level access accounting (supports the §3.3 claims)."""

    reads: int = 0
    path_hits: int = 0  # served from the register's cached leaf
    writes: int = 0
    transient_writes: int = 0
    commits: int = 0
    aborts: int = 0
    prefetches: int = 0      # next-leaf paths fetched ahead of demand
    prefetch_hits: int = 0   # demand fills that found their prefetch


class IteratorRegister:
    """One iterator register bound to a memory system and segment map."""

    def __init__(self, mem: MemorySystem, segmap: SegmentMap) -> None:
        self.mem = mem
        self.segmap = segmap
        #: DAG-aware prefetching (section 3.3): on a sequential leaf
        #: advance, the register fetches the next leaf's path ahead of
        #: demand, hiding its latency behind the current leaf's use.
        self.prefetch = True
        self._prefetched_base = -1
        self.stats = IteratorStats()
        self._vsid: Optional[int] = None
        self._root: Entry = 0
        self._height = 0
        self._length = 0
        self._read_only = True
        self._version = 0
        self._offset = 0
        # Transient-line overlay: uncommitted stores, offset -> word.
        self._transient: Dict[int, object] = {}
        # Cached leaf span (the register's cached path): base offset and
        # the words of the leaf-line span containing the current offset.
        self._leaf_base = -1
        self._leaf_words: Optional[list] = None

    # ------------------------------------------------------------------
    # loading / state

    def load(self, vsid: int, offset: int = 0) -> "IteratorRegister":
        """Load the register: snapshot the segment and seek to ``offset``."""
        self.reset()
        entry = self.segmap.entry(vsid)
        dag.retain_entry(self.mem, entry.root)
        self._vsid = vsid
        self._root = entry.root
        self._height = entry.height
        self._length = entry.length
        self._read_only = bool(entry.flags & SegmentFlags.READ_ONLY)
        self._version = entry.version
        self._offset = offset
        return self

    def reset(self) -> None:
        """Unload the register, dropping its snapshot reference."""
        if self._vsid is not None:
            dag.release_entry(self.mem, self._root)
        self._vsid = None
        self._root = 0
        self._height = 0
        self._length = 0
        self._offset = 0
        self._transient.clear()
        self._leaf_base = -1
        self._leaf_words = None
        self._prefetched_base = -1

    def _require_loaded(self) -> None:
        if self._vsid is None:
            raise IteratorStateError("iterator register is not loaded")

    @property
    def vsid(self) -> Optional[int]:
        """The VSID the register is loaded with (None when unloaded)."""
        return self._vsid

    @property
    def offset(self) -> int:
        """Current word offset within the segment."""
        return self._offset

    @property
    def length(self) -> int:
        """Logical segment length in words (grows on writes past the end)."""
        return self._length

    @property
    def version(self) -> int:
        """The map entry's version of the snapshot: its version at load
        time, plus one per commit through this register."""
        return self._version

    # ------------------------------------------------------------------
    # reading

    def seek(self, offset: int) -> "IteratorRegister":
        """Position the register at ``offset``."""
        self._require_loaded()
        if offset < 0:
            raise SegmentRangeError("negative offset %d" % offset)
        self._offset = offset
        return self

    def get(self, offset: Optional[int] = None):
        """Read the word at the current (or given) offset.

        Uncommitted transient stores are visible to this register only.
        """
        self._require_loaded()
        if offset is None:
            offset = self._offset
        if offset in self._transient:
            self.stats.path_hits += 1
            return self._transient[offset]
        w = self.mem.words_per_line
        base = offset - offset % w
        if base == self._leaf_base and self._leaf_words is not None:
            self.stats.path_hits += 1
            return self._leaf_words[offset - base]
        self.stats.reads += 1
        cap = dag.entry_capacity(self.mem, self._height)
        if offset >= cap:
            return 0  # beyond capacity is logically zero content
        if base == self._prefetched_base:
            self.stats.prefetch_hits += 1
        sequential = (self._leaf_base >= 0 and base == self._leaf_base + w)
        words = dag.gather_words(self.mem, self._root, self._height, base,
                                 min(w, cap - base))
        if len(words) < w:
            words = words + [0] * (w - len(words))
        self._leaf_base = base
        self._leaf_words = words
        # DAG-aware prefetch: a sequential advance pulls the next leaf's
        # path into the cache before it is demanded (section 3.3).
        next_base = base + w
        if (self.prefetch and sequential and next_base < cap
                and next_base < self._length
                and next_base != self._prefetched_base):
            dag.gather_words(self.mem, self._root, self._height, next_base,
                             min(w, cap - next_base))
            self._prefetched_base = next_base
            self.stats.prefetches += 1
        return words[offset - base]

    def next_nonzero(self) -> Optional[Tuple[int, object]]:
        """Advance past the current offset to the next non-null element.

        Returns ``(offset, word)`` or None at the end of the segment. The
        hardware skips zero subtrees without memory accesses; transient
        stores are merged into the scan.
        """
        self._require_loaded()
        start = self._offset + 1
        base = None
        for idx, word in dag.iter_nonzero(self.mem, self._root, self._height,
                                          start=start, stop=self._length):
            if idx in self._transient:
                continue  # superseded by a transient store
            base = (idx, word)
            break
        pending = sorted(
            (o, v) for o, v in self._transient.items()
            if o >= start and v != 0 and o < self._length
        )
        if pending and (base is None or pending[0][0] < base[0]):
            base = pending[0]
        if base is None:
            return None
        self._offset = base[0]
        return base

    def iter_items(self, start: int = 0) -> Iterator[Tuple[int, object]]:
        """Iterate ``(offset, word)`` over all non-null elements from
        ``start`` — the software ``for(it = obj.begin(); ...)`` pattern."""
        self._require_loaded()
        self._offset = start - 1  # so next_nonzero scans from ``start``
        while True:
            item = self.next_nonzero()
            if item is None:
                return
            yield item

    # ------------------------------------------------------------------
    # writing

    def put(self, value, offset: Optional[int] = None) -> "IteratorRegister":
        """Store a word at the current (or given) offset.

        The store lands in a transient line (no dedup lookup yet); commit
        converts transient lines to content-unique lines (section 3.3).
        Writing at or past the current length extends the segment.
        """
        self._require_loaded()
        if self._read_only:
            raise ReadOnlyError("store through read-only iterator (VSID %d)" % self._vsid)
        if offset is None:
            offset = self._offset
        if offset < 0:
            raise SegmentRangeError("negative offset %d" % offset)
        self._transient[offset] = value
        self.stats.writes += 1
        self.stats.transient_writes += 1
        if offset >= self._length:
            self._length = offset + 1
        return self

    @property
    def dirty(self) -> bool:
        """True when uncommitted transient stores exist."""
        return bool(self._transient)

    def abort(self) -> None:
        """Discard transient stores, reverting to the loaded snapshot."""
        self._require_loaded()
        self._transient.clear()
        self._leaf_base = -1
        self._leaf_words = None
        self.stats.aborts += 1

    def build_updated_root(self) -> Tuple[Entry, int]:
        """Materialize the snapshot plus transient stores as a new DAG.

        Returns ``(new_root, new_height)`` with a caller-owned reference;
        this is the bottom-up conversion of transient lines to
        content-unique lines that commit performs (:func:`dag.new_version`,
        which refuses a store that is neither data nor a live line's
        reference). Does not touch the map.
        """
        self._require_loaded()
        return dag.new_version(self.mem, self._root, self._height,
                               self._length, self._transient)

    def try_commit(self, merge: bool = False) -> bool:
        """Commit transient stores: build the new version once and CAS
        its root into the map.

        When another thread committed first (the CAS saw a different
        root), a plain commit returns False and the register keeps its
        transient stores, so the caller can reload and retry. A
        ``merge`` commit instead hands the version it built to
        :func:`~repro.segments.merge.mcas`, which folds it into the
        winner's (section 3.4); on success the register reloads at the
        merged version, and on a true conflict it returns False with its
        transient stores kept. With no transient stores this still
        validates the snapshot is current.
        """
        self._require_loaded()
        if self._read_only:  # refused before the build takes references
            raise ReadOnlyError("CAS through read-only reference to VSID %d"
                                % self._vsid)
        new_root, new_height = self.build_updated_root()
        ok = self.segmap.cas_root(
            self._vsid,
            expected_root=self._root, expected_height=self._height,
            new_root=new_root, new_height=new_height, new_length=self._length,
        )
        if not ok:
            if not merge:
                dag.release_entry(self.mem, new_root)
                return False
            if not mcas(self.mem, self.segmap, self._vsid,
                        (self._root, self._height), (new_root, new_height),
                        self._length):
                return False
            self.stats.commits += 1
            self.load(self._vsid, self._offset)
            return True
        # Move the register's snapshot to the committed version.
        dag.retain_entry(self.mem, new_root)
        dag.release_entry(self.mem, self._root)
        self._root = new_root
        self._height = new_height
        self._version += 1  # cas_root's rise for exactly this swap
        self._transient.clear()
        self._leaf_base = -1
        self._leaf_words = None
        self.stats.commits += 1
        return True
