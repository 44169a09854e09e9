"""Test-only oracle: the level-at-a-time DAG rebuild and merge-update.

This is the recursive write path as it stood before the single-descent
rebuild replaced it in :mod:`repro.segments.dag` and
:mod:`repro.segments.merge`, moved here verbatim: one ``apply`` frame,
one ``_expand_children`` and one ``_canonical_interior`` per level,
whether or not the level materializes a line (and the reads that went
with it, one ``entry_capacity`` per level). It defines what "same
lines, same modeled ops" means — ``tests/test_dag_single_descent.py``
runs it beside the production code on twin machines and requires equal
entries, refcounts, DRAM counters and cache traffic after every
operation. Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import MergeConflictError, SegmentRangeError
from repro.memory.line import (
    Line, is_pack, is_ref, pack, pack_values, ref, ref_path, ref_plid)
from repro.memory.system import MemorySystem
from repro.segments.dag import Entry, release_entry, retain_entry
from repro.segments.merge import MergeStats, three_way_merge_word

_INLINE_WIDTHS = (1, 2, 4, 8)

def entry_capacity(mem: MemorySystem, level: int) -> int:
    """Words addressable by a subtree entry at ``level``."""
    return mem.words_per_line * (mem.fanout ** level)


def height_for(mem: MemorySystem, length: int) -> int:
    """Minimal height whose capacity covers ``length`` words."""
    height = 0
    while entry_capacity(mem, height) < length:
        height += 1
    return height


def _trim(words: Sequence) -> Tuple:
    """Drop trailing zero words (canonical form for inline packing)."""
    n = len(words)
    while n and words[n - 1] == 0:
        n -= 1
    return tuple(words[:n])


def _inline_for(words: Sequence) -> Optional[int]:
    """Try to pack a subtree's words into one pack entry (Figure 4b).

    Qualifies when the trimmed words are all plain data and fit a common
    width ``w`` with ``len * w <= 8`` bytes. Returns None when the subtree
    does not pack (tagged reference words are never inlined).
    """
    vals = _trim(words)
    if not vals:
        return None
    if any(is_ref(v) for v in vals):
        return None
    biggest = max(vals)
    for width in _INLINE_WIDTHS:
        if len(vals) * width > 8:
            break
        if biggest < (1 << (8 * width)):
            return pack(width, vals, len(vals))
    return None


# ----------------------------------------------------------------------
# building

def _leaf_entry(mem: MemorySystem, words: Sequence) -> Entry:
    """Canonical entry for one leaf-line span of words."""
    vals = _trim(words)
    if not vals:
        return 0
    if mem.config.data_compaction:
        inline = _inline_for(vals)
        if inline is not None:
            return inline
    w = mem.words_per_line
    line: Line = tuple(words) + (0,) * (w - len(words))
    plid = mem.lookup(line)
    return ref(plid)


def _canonical_interior(mem: MemorySystem, children: List[Entry], level: int) -> Entry:
    """Canonical entry over ``fanout`` child entries at level ``level - 1``.

    Consumes the caller's references on PLID children; returns an entry
    carrying one caller reference.
    """
    nonzero = [(i, c) for i, c in enumerate(children) if c != 0]
    if not nonzero:
        return 0
    # Data compaction: all children already packed (0/a pack) and the
    # combined trimmed words still fit one entry slot.
    if mem.config.data_compaction and all(
            is_pack(c) for _, c in nonzero):
        child_span = entry_capacity(mem, level - 1)
        last_idx, last_child = nonzero[-1]
        combined_len = last_idx * child_span + len(pack_values(last_child))
        if combined_len <= 8:  # cheap pre-filter before expanding
            # Children past the last non-zero one contribute nothing, and
            # the pre-filter guarantees the expanded prefix stays tiny.
            combined: List[int] = []
            for c in children[:last_idx]:
                if c == 0:
                    combined.extend([0] * child_span)
                else:
                    vals = list(pack_values(c))
                    combined.extend(vals + [0] * (child_span - len(vals)))
            combined.extend(pack_values(last_child))  # no trailing padding
            inline = _inline_for(combined)
            if inline is not None:
                return inline
    # Path compaction: a single non-zero child that is a line reference.
    if (mem.config.path_compaction and len(nonzero) == 1
            and is_ref(nonzero[0][1])):
        idx, child = nonzero[0]
        return ref(ref_plid(child), bytes((idx,)) + ref_path(child))
    # Materialize the interior line.
    line: Line = tuple(children)
    plid = mem.lookup(line)
    for _, c in nonzero:
        if is_ref(c):
            mem.decref(ref_plid(c))
    return ref(plid)


def build_entry(mem: MemorySystem, words: Sequence, level: int) -> Entry:
    """Build the canonical entry for ``words`` as a subtree at ``level``."""
    if level == 0:
        return _leaf_entry(mem, words)
    child_span = entry_capacity(mem, level - 1)
    children: List[Entry] = []
    for j in range(mem.fanout):
        chunk = words[j * child_span:(j + 1) * child_span]
        children.append(build_entry(mem, chunk, level - 1) if len(chunk) else 0)
    return _canonical_interior(mem, children, level)


def build_segment(mem: MemorySystem, words: Sequence) -> Tuple[Entry, int]:
    """Build a whole segment; returns ``(root_entry, height)``.

    The height is minimal for the content length, and the root entry
    carries one caller reference.
    """
    height = height_for(mem, max(1, len(words)))
    return build_entry(mem, words, height), height


def grow_entry(mem: MemorySystem, entry: Entry, height: int, new_height: int) -> Entry:
    """Raise a segment's height (content unchanged; capacity grows).

    Consumes the caller's reference on ``entry``; this is the "DAG simply
    extended with additional lines" growth of section 4.1.
    """
    while height < new_height:
        children: List[Entry] = [entry] + [0] * (mem.fanout - 1)
        entry = _canonical_interior(mem, children, height + 1)
        height += 1
    return entry


# ----------------------------------------------------------------------
# reading

def read_word(mem: MemorySystem, entry: Entry, level: int, index: int):
    """Read the word at ``index`` within a subtree at ``level``.

    Returns a plain data ``int`` or, for segments that store references in
    their leaves (e.g. a map of value-segment roots), a tagged
    reference word.
    """
    if index >= entry_capacity(mem, level):
        raise SegmentRangeError("index %d beyond height-%d capacity" % (index, level))
    fan = mem.fanout
    while True:
        if entry == 0:
            return 0
        if is_pack(entry):
            values = pack_values(entry)
            return values[index] if index < len(values) else 0
        # a reference: follow the compacted path, then the line.
        for p in ref_path(entry):
            child_span = entry_capacity(mem, level - 1)
            if index // child_span != p:
                return 0
            index %= child_span
            level -= 1
        line = mem.read(ref_plid(entry))
        if level == 0:
            return line[index]
        child_span = entry_capacity(mem, level - 1)
        j = index // child_span
        entry = line[j]
        index %= child_span
        level -= 1


def gather_words(mem: MemorySystem, entry: Entry, level: int,
                 start: int, count: int) -> List:
    """Read ``count`` consecutive words starting at ``start``.

    Descends each touched line once (as an iterator register's cached
    path would), not once per word.
    """
    out = [0] * count
    if count <= 0:
        return out
    if start + count > entry_capacity(mem, level):
        raise SegmentRangeError("range [%d, %d) beyond capacity" % (start, start + count))

    def visit(entry: Entry, level: int, base: int) -> None:
        if entry == 0:
            return
        span = entry_capacity(mem, level)
        lo, hi = max(start, base), min(start + count, base + span)
        if lo >= hi:
            return
        if is_pack(entry):
            for k, v in enumerate(pack_values(entry)):
                pos = base + k
                if start <= pos < start + count and v:
                    out[pos - start] = v
            return
        for p in ref_path(entry):
            span = entry_capacity(mem, level - 1)
            base += p * span
            level -= 1
            lo, hi = max(start, base), min(start + count, base + span)
            if lo >= hi:
                return
        line = mem.read(ref_plid(entry))
        if level == 0:
            for k in range(mem.words_per_line):
                pos = base + k
                if start <= pos < start + count:
                    word = line[k]
                    if word != 0:
                        out[pos - start] = word
            return
        child_span = entry_capacity(mem, level - 1)
        for j in range(mem.fanout):
            visit(line[j], level - 1, base + j * child_span)

    visit(entry, level, 0)
    return out


def iter_nonzero(mem: MemorySystem, entry: Entry, level: int,
                 start: int = 0, stop: Optional[int] = None) -> Iterator[Tuple[int, object]]:
    """Yield ``(index, word)`` for each non-zero word, in index order.

    This is the hardware behaviour behind iterator-register increment:
    moving directly to the next non-null element, skipping zero subtrees
    without touching memory (section 3.3).
    """
    limit = entry_capacity(mem, level) if stop is None else stop

    def visit(entry: Entry, level: int, base: int) -> Iterator[Tuple[int, object]]:
        if entry == 0:
            return
        span = entry_capacity(mem, level)
        if base + span <= start or base >= limit:
            return
        if is_pack(entry):
            for k, v in enumerate(pack_values(entry)):
                pos = base + k
                if v and start <= pos < limit:
                    yield pos, v
            return
        for p in ref_path(entry):
            span = entry_capacity(mem, level - 1)
            base += p * span
            level -= 1
            if base + span <= start or base >= limit:
                return
        line = mem.read(ref_plid(entry))
        if level == 0:
            for k in range(mem.words_per_line):
                word = line[k]
                pos = base + k
                if word != 0 and start <= pos < limit:
                    yield pos, word
            return
        child_span = entry_capacity(mem, level - 1)
        for j in range(mem.fanout):
            child_base = base + j * child_span
            if child_base + child_span <= start or child_base >= limit:
                continue
            for item in visit(line[j], level - 1, child_base):
                yield item

    return visit(entry, level, 0)



# ----------------------------------------------------------------------
# writing

def _expand_children(mem: MemorySystem, entry: Entry, level: int) -> List[Entry]:
    """Expand an entry at ``level > 0`` into its ``fanout`` child entries.

    The returned child entries carry one caller reference each (so they
    can be fed back to :func:`_canonical_interior` uniformly).
    """
    fan = mem.fanout
    if entry == 0:
        return [0] * fan
    if is_pack(entry):
        child_span = entry_capacity(mem, level - 1)
        vals = list(pack_values(entry))  # trailing zeros are implicit
        children = []
        for j in range(fan):
            lo = j * child_span
            chunk = _trim(vals[lo:lo + child_span]) if lo < len(vals) else ()
            children.append(_inline_for(chunk) if chunk else 0)
        return children
    if ref_path(entry):
        j = ref_path(entry)[0]
        children: List[Entry] = [0] * fan
        child = ref(ref_plid(entry), ref_path(entry)[1:])
        children[j] = child  # inherits the caller's reference
        return children
    line = mem.read(ref_plid(entry))
    children = list(line)
    for c in children:
        if is_ref(c):
            mem.incref(ref_plid(c))
    # The caller's reference on the expanded line itself is released: the
    # children references above stand in for it during rebuilding.
    mem.decref(ref_plid(entry))
    return children


def _expand_leaf(mem: MemorySystem, entry: Entry) -> List:
    """Expand a level-0 entry into its words.

    Consumes the caller's reference on the leaf line. Tagged reference
    words inside the leaf are returned with one caller-owned reference
    each (taken before the line reference is dropped, so a cascading
    deallocation cannot free them mid-rebuild).
    """
    w = mem.words_per_line
    if entry == 0:
        return [0] * w
    if is_pack(entry):
        values = list(pack_values(entry))
        return values + [0] * (w - len(values))
    line = mem.read(ref_plid(entry))
    words = list(line)
    for word in words:
        if is_ref(word):
            mem.incref(ref_plid(word))
    mem.decref(ref_plid(entry))
    return words


def write_word(mem: MemorySystem, entry: Entry, level: int,
               index: int, value) -> Entry:
    """Functional update: new canonical entry with ``index`` set to ``value``.

    Consumes the caller's reference on ``entry`` and returns the new entry
    with one caller reference. Unchanged subtrees are shared between the
    old and new DAG (copy-on-write, section 2.2).
    """
    return write_words_bulk(mem, entry, level, {index: value})


def write_words_bulk(mem: MemorySystem, entry: Entry, level: int,
                     updates: Dict[int, object]) -> Entry:
    """Apply many word updates in one canonical rebuild pass.

    This is what an iterator-register commit does: transient writes are
    accumulated and the affected paths are converted to content-unique
    lines bottom-up in a single sweep (section 3.3), amortizing the
    lookup-by-content cost over many writes.
    """
    if not updates:
        return entry
    cap = entry_capacity(mem, level)
    for index in updates:
        if not 0 <= index < cap:
            raise SegmentRangeError("write at %d beyond capacity %d" % (index, cap))

    def apply(entry: Entry, level: int, updates: Dict[int, object]) -> Entry:
        if level == 0:
            words = _expand_leaf(mem, entry)
            owned = {i for i, word in enumerate(words) if is_ref(word)}
            for i, v in updates.items():
                if i in owned:
                    mem.decref(ref_plid(words[i]))
                    owned.discard(i)
                words[i] = v
            new_entry = _leaf_entry(mem, words)
            # Release the expansion-owned references: the new leaf (if
            # materialized) took its own on creation.
            for i in owned:
                mem.decref(ref_plid(words[i]))
            return new_entry
        child_span = entry_capacity(mem, level - 1)
        by_child: Dict[int, Dict[int, object]] = {}
        for i, v in updates.items():
            by_child.setdefault(i // child_span, {})[i % child_span] = v
        children = _expand_children(mem, entry, level)
        for j, child_updates in by_child.items():
            children[j] = apply(children[j], level - 1, child_updates)
        return _canonical_interior(mem, children, level)

    return apply(entry, level, dict(updates))


# ----------------------------------------------------------------------
# merge-update

def _leaf_view(mem: MemorySystem, entry: Entry) -> List:
    """Borrowed view of a level-0 entry's words (no reference changes)."""
    w = mem.words_per_line
    if entry == 0:
        return [0] * w
    if is_pack(entry):
        values = list(pack_values(entry))
        return values + [0] * (w - len(values))
    return list(mem.read(ref_plid(entry)))


def _children_view(mem: MemorySystem, entry: Entry, level: int) -> List[Entry]:
    """Borrowed view of an interior entry's child entries."""
    fan = mem.fanout
    if entry == 0:
        return [0] * fan
    if is_pack(entry):
        child_span = entry_capacity(mem, level - 1)
        vals = list(pack_values(entry))  # trailing zeros are implicit
        out: List[Entry] = []
        for j in range(fan):
            lo = j * child_span
            chunk = _trim(vals[lo:lo + child_span]) if lo < len(vals) else ()
            sub = _inline_for(chunk) if chunk else None
            out.append(sub if sub is not None else 0)
        return out
    if ref_path(entry):
        children: List[Entry] = [0] * fan
        children[ref_path(entry)[0]] = ref(ref_plid(entry), ref_path(entry)[1:])
        return children
    return list(mem.read(ref_plid(entry)))


def merge_entries(mem: MemorySystem, base: Entry, mine: Entry, theirs: Entry,
                  level: int, stats: MergeStats = None) -> Entry:
    """Three-way merge of same-height subtrees.

    Inputs are borrowed; the merged entry is returned with one
    caller-owned reference. Raises :class:`MergeConflictError` on a true
    data conflict (the whole merge then aborts — mCAS returns failure).
    """
    if stats is None:
        stats = MergeStats()
    # Uniqueness of segments lets unchanged sub-DAGs be skipped by a
    # single root compare (section 3.4). Note the sound skips are the
    # one-side-unchanged cases; two sides that made the *same-looking*
    # change must still merge word-by-word, or two identical counter
    # increments would collapse into one. (For the same reason there is
    # deliberately no ``mine == theirs`` short-circuit here.)
    if mine == base:
        stats.subtrees_skipped += 1
        return retain_entry(mem, theirs)
    if theirs == base:
        stats.subtrees_skipped += 1
        return retain_entry(mem, mine)
    if level == 0:
        stats.leaf_merges += 1
        b, m, t = (_leaf_view(mem, e) for e in (base, mine, theirs))
        words = [three_way_merge_word(b[i], m[i], t[i])
                 for i in range(mem.words_per_line)]
        merged = _leaf_entry(mem, words)
    else:
        stats.levels_descended += 1
        bc = _children_view(mem, base, level)
        mc = _children_view(mem, mine, level)
        tc = _children_view(mem, theirs, level)
        children: List[Entry] = []
        try:
            for j in range(mem.fanout):
                children.append(merge_entries(mem, bc[j], mc[j], tc[j],
                                              level - 1, stats))
        except MergeConflictError:
            for c in children:
                release_entry(mem, c)
            raise
        merged = _canonical_interior(mem, children, level)
    return merged


def merge_roots(mem: MemorySystem,
                base: Tuple[Entry, int], mine: Tuple[Entry, int],
                theirs: Tuple[Entry, int],
                stats: MergeStats = None) -> Tuple[Entry, int]:
    """Merge whole segments whose heights may differ (after growth).

    Each argument is ``(root_entry, height)``, borrowed. Returns the
    merged ``(root, height)`` with a caller-owned reference.
    """
    height = max(base[1], mine[1], theirs[1])
    grown = []
    for root, h in (base, mine, theirs):
        retain_entry(mem, root)
        grown.append(grow_entry(mem, root, h, height))
    try:
        merged = merge_entries(mem, grown[0], grown[1], grown[2], height, stats)
    finally:
        for g in grown:
            release_entry(mem, g)
    return merged, height
