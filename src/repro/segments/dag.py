"""Canonical segment DAGs (section 2.2) with path and data compaction
(section 3.2, Figure 4).

A segment's content is a sequence of 64-bit words. It is represented as a
DAG of lines: leaf lines hold ``line_bytes/8`` data words; interior lines
hold ``line_bytes/plid_bytes`` tagged child entries (the paper sizes
PLIDs at 32 bits, so a 16-byte line holds four child references). The
representation is **canonical** — leaves fill left to right, all-zero
subtrees collapse to the zero PLID, and both compactions are applied
greedily by deterministic rules — so any two segments with equal content
share the same root entry (the content-uniqueness property that makes
root-PLID comparison a full content compare).

An *entry* denotes a subtree at a known level and is one of:

* ``0`` — the all-zero subtree;
* :class:`~repro.memory.line.Inline` — data compaction: the subtree's
  (trimmed) words packed into a single entry slot;
* :class:`~repro.memory.line.PlidRef` — a reference to a line, whose
  ``path`` carries the way positions of elided single-child interior
  nodes (path compaction).

At level ``L`` an entry spans ``leaf_words * fanout**L`` words; a segment
of height ``h`` is the entry at level ``h``.

Reference-count contract: every function that *returns* an entry returns
it with one caller-owned reference on its PLID (if any); every function
that *consumes* entries consumes the caller's references on them.
:func:`release_entry` drops a caller reference; the store then cascades.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SegmentRangeError
from repro.memory.line import Inline, Line, PlidRef, ZERO_PLID, encode_word
from repro.memory.system import MemorySystem

Entry = object  # 0 | Inline | PlidRef

_INLINE_WIDTHS = (1, 2, 4, 8)


def entry_capacity(mem: MemorySystem, level: int) -> int:
    """Words addressable by a subtree entry at ``level``.

    Reads the machine's span-by-level table (``mem.spans``), extending
    it on demand. Every public entry point below calls this once for its
    own ``level``, so the code under it may index ``mem.spans`` directly
    for that level and all lower ones.
    """
    spans = mem.spans
    while len(spans) <= level:
        spans.append(spans[-1] * mem.fanout)
    return spans[level]


def height_for(mem: MemorySystem, length: int) -> int:
    """Minimal height whose capacity covers ``length`` words."""
    spans = mem.spans
    while spans[-1] < length:
        spans.append(spans[-1] * mem.fanout)
    return bisect_left(spans, length)


def _trim(words: Sequence) -> Tuple:
    """Drop trailing zero words (canonical form for inline packing)."""
    n = len(words)
    while n and words[n - 1] == 0:
        n -= 1
    return tuple(words[:n])


def _pack(vals: Tuple) -> Optional[Inline]:
    """Pack already-trimmed words into one Inline entry (Figure 4b).

    Qualifies when the words are all plain data and fit a common width
    ``w`` with ``len * w <= 8`` bytes. Returns None when they do not
    pack (tagged reference words are never inlined).
    """
    n = len(vals)
    if not 0 < n <= 8:
        return None
    biggest = 0
    for v in vals:
        if not isinstance(v, int):
            return None
        if v > biggest:
            biggest = v
    for width in _INLINE_WIDTHS:
        if n * width > 8:
            break
        if biggest < (1 << (8 * width)):
            return Inline(width=width, values=vals, span=n)
    return None


def _inline_for(words: Sequence) -> Optional[Inline]:
    """Try to pack a subtree's words into one Inline entry: trailing
    zeros dropped, then :func:`_pack`."""
    return _pack(_trim(words))


def retain_entry(mem: MemorySystem, entry: Entry) -> Entry:
    """Take an extra caller reference on an entry (no-op for 0/Inline)."""
    if isinstance(entry, PlidRef):
        mem.incref(entry.plid)
    return entry


def release_entry(mem: MemorySystem, entry: Entry) -> None:
    """Drop a caller reference on an entry (no-op for 0/Inline)."""
    if isinstance(entry, PlidRef):
        mem.decref(entry.plid)


def entry_key(entry: Entry) -> bytes:
    """Canonical byte key of an entry — equal iff the subtrees are equal.

    This is what hardware compares when it compares two root PLIDs; the
    byte form also covers compacted (Inline / path-carrying) roots.
    """
    if entry == 0:
        return b"Z"
    return encode_word(entry)


# ----------------------------------------------------------------------
# building

def _leaf_entry(mem: MemorySystem, words: Sequence) -> Entry:
    """Canonical entry for one leaf-line span of words."""
    vals = _trim(words)
    if not vals:
        return 0
    if mem.config.data_compaction:
        inline = _pack(vals)
        if inline is not None:
            return inline
    line: Line = tuple(words) + (0,) * (mem.words_per_line - len(words))
    return PlidRef(mem.lookup(line))


def _canonical_interior(mem: MemorySystem, children: List[Entry], level: int) -> Entry:
    """Canonical entry over ``fanout`` child entries at level ``level - 1``.

    Consumes the caller's references on PLID children; returns an entry
    carrying one caller reference.
    """
    count, last, packed = 0, -1, True
    for i, child in enumerate(children):
        if child != 0:
            count += 1
            last = i
            packed = packed and isinstance(child, Inline)
    if not count:
        return 0
    config = mem.config
    # Data compaction: all children already packed (0/Inline) and the
    # combined trimmed words still fit one entry slot.
    if packed and config.data_compaction:
        child_span = entry_capacity(mem, level - 1)
        last_values = children[last].values
        if last * child_span + len(last_values) <= 8:  # cheap pre-filter
            # Children past the last non-zero one contribute nothing, and
            # the pre-filter guarantees the expanded prefix stays tiny.
            combined: List[int] = []
            for c in children[:last]:
                if c == 0:
                    combined.extend([0] * child_span)
                else:
                    combined.extend(c.values)
                    combined.extend([0] * (child_span - len(c.values)))
            combined.extend(last_values)  # no trailing padding needed
            inline = _inline_for(combined)
            if inline is not None:
                return inline
    # Path compaction: a single non-zero child that is a line reference.
    if (count == 1 and config.path_compaction
            and isinstance(children[last], PlidRef)):
        return PlidRef(children[last].plid, (last,) + children[last].path)
    # Materialize the interior line; it consumes the caller's references
    # on its children (the second argument)
    return PlidRef(mem.lookup(tuple(children), True))


def _wrap_run(mem: MemorySystem, entry: Entry, level: int,
              digits: Tuple[int, ...]) -> Entry:
    """Re-emit a run of single-child interior levels above ``entry``.

    ``entry`` sits at ``level``; ``digits`` are the child positions of
    its ancestors, top-down. The result is what one
    :func:`_canonical_interior` per level would give, but only a level
    that materializes a line pays for one: under path compaction a line
    reference takes the whole run as a path prefix, and a packed entry
    is its own parent wherever it is child 0 (Figure 4). Consumes the
    caller's reference on ``entry``; returns an entry carrying one.
    """
    config = mem.config
    n = len(digits)
    while n and entry != 0:
        if isinstance(entry, PlidRef):
            if config.path_compaction:
                return PlidRef(entry.plid, digits[:n] + entry.path)
        elif config.data_compaction:
            if not any(digits[:n]):
                return entry
            if digits[n - 1] == 0:
                n -= 1
                level += 1
                continue
        children: List[Entry] = [0] * mem.fanout
        children[digits[n - 1]] = entry
        n -= 1
        level += 1
        entry = _canonical_interior(mem, children, level)
    return entry


def build_entry(mem: MemorySystem, words: Sequence, level: int) -> Entry:
    """Build the canonical entry for ``words`` as a subtree at ``level``.

    Leaves are interned left to right and an interior closes as soon as
    its last child has — the post-order of a recursive build, so lines
    are looked up in the same sequence — and the levels above the
    minimal height for ``len(words)`` are one :func:`_wrap_run`.
    """
    words = words[:entry_capacity(mem, level)]
    w, fan = mem.words_per_line, mem.fanout
    height = min(level, height_for(mem, len(words)))
    # open_at[l]: the children so far of the unfinished interior at l + 1
    open_at: List[List[Entry]] = [[] for _ in range(height)]
    entry: Entry = 0
    for start in range(0, len(words), w):
        entry = _leaf_entry(mem, words[start:start + w])
        for below, children in enumerate(open_at):
            children.append(entry)
            if len(children) < fan:
                break
            entry = _canonical_interior(mem, children, below + 1)
            del children[:]
    for below, children in enumerate(open_at):  # close the right edge
        if children:
            children.extend([0] * (fan - len(children)))
            entry = _canonical_interior(mem, children, below + 1)
            if below + 1 < height:
                open_at[below + 1].append(entry)
    return _wrap_run(mem, entry, height, (0,) * (level - height))


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
    return _wrap_run(mem, entry, height, (0,) * (new_height - height))


# ----------------------------------------------------------------------
# reading

#: byte ``d`` -> the ASCII digit ``d`` in bases up to 36, so a path's
#: digits become the text ``int()`` parses in one call
_DIGITS = bytes.maketrans(bytes(range(36)),
                          b"0123456789abcdefghijklmnopqrstuvwxyz")


def _path_value(path: Tuple[int, ...], fan: int) -> int:
    """A compacted path's digits read as one base-``fan`` number, most
    significant first: the child index, among the ``fan**len(path)``
    subtrees ``len(path)`` levels down, of the line the path leads to."""
    if fan <= 36:
        return int(bytes(path).translate(_DIGITS), fan)
    value = 0
    for digit in path:
        value = value * fan + digit
    return value


def read_word(mem: MemorySystem, entry: Entry, level: int, index: int,
              count: int = 1):
    """Read the word at ``index`` within a subtree at ``level``.

    Returns a plain data ``int`` or, for segments that store references in
    their leaves (e.g. a map of value-segment roots), a tagged
    :class:`PlidRef` word.

    With ``count > 1``, returns the list of ``count`` consecutive words
    from ``index``. Words that share a leaf line cost one descent — the
    path an iterator register keeps to its current leaf (section 3.3);
    words that straddle a leaf boundary go to :func:`gather_words`.

    A compacted path is checked in one step, as the hardware checks it
    (Figure 4a): ``index`` lies under the path's line exactly when its
    quotient by the span ``len(path)`` levels down equals the path read
    as one number (:func:`_path_value`), because that quotient's
    base-``fanout`` digits are the child positions a level-at-a-time
    walk would compare. So the cost is the lines read, not the levels
    elided, and the same lines are read in the same order.
    """
    last = index + count - 1
    if last >= entry_capacity(mem, level):
        raise SegmentRangeError("index %d beyond height-%d capacity" % (last, level))
    spans = mem.spans
    if count > 1 and index // spans[0] != last // spans[0]:
        return gather_words(mem, entry, level, index, count)
    while type(entry) is PlidRef:
        path = entry.path
        if path:  # the compacted path, then the line
            level -= len(path)
            j, index = divmod(index, spans[level])
            if j != _path_value(path, mem.fanout):
                return 0 if count == 1 else [0] * count
        line = mem.read(entry.plid)
        if level == 0:
            return line[index] if count == 1 \
                else list(line[index:index + count])
        level -= 1
        j, index = divmod(index, spans[level])
        entry = line[j]
    # a zero subtree, or an Inline pack (its trailing zeros are implicit)
    values = entry.values if type(entry) is Inline else ()
    if count == 1:
        return values[index] if index < len(values) else 0
    words = list(values[index:index + count])
    return words + [0] * (count - len(words))


def gather_words(mem: MemorySystem, entry: Entry, level: int,
                 start: int, count: int) -> List:
    """Read ``count`` consecutive words starting at ``start``.

    Descends each touched line once (as an iterator register's cached
    path would), not once per word.
    """
    out = [0] * count
    if count <= 0:
        return out
    stop = start + count
    if stop > entry_capacity(mem, level):
        raise SegmentRangeError("range [%d, %d) beyond capacity" % (start, stop))
    _gather(mem, out, start, stop, entry, level, 0)
    return out


def _gather(mem: MemorySystem, out: List, start: int, stop: int,
            entry: Entry, level: int, base: int) -> None:
    """Fill ``out`` with the words of ``[start, stop)`` under ``entry``,
    a subtree at ``level`` starting at word ``base``. Not a closure: a
    recursive closure is a reference cycle, left for the collector.

    A compacted path is crossed in one step: one multiply-add moves
    ``base`` to the path's line, and only that deepest interval is
    tested against the range — the intervals of the levels it elides
    contain it, so it overlaps the range exactly when they all do."""
    spans = mem.spans
    while entry != 0:
        if isinstance(entry, Inline):
            for k, v in enumerate(entry.values):
                pos = base + k
                if start <= pos < stop and v:
                    out[pos - start] = v
            return
        path = entry.path
        if path:
            level -= len(path)
            base += _path_value(path, mem.fanout) * spans[level]
            if base >= stop or base + spans[level] <= start:
                return
        line = mem.read(entry.plid)
        first, last = start - base, stop - 1 - base
        if level == 0:
            lo = first if first > 0 else 0
            hi = last + 1 if last < len(line) else len(line)
            out[base + lo - start:base + hi - start] = line[lo:hi]
            return
        level -= 1
        span = spans[level]
        first = first // span if first > 0 else 0
        last = last // span if last < span * len(line) else len(line) - 1
        for j in range(first, last):  # all but the last touched child
            _gather(mem, out, start, stop, line[j], level, base + j * span)
        entry = line[last]  # ... which this frame descends itself
        base += last * span


def iter_nonzero(mem: MemorySystem, entry: Entry, level: int,
                 start: int = 0, stop: Optional[int] = None) -> Iterator[Tuple[int, object]]:
    """Yield ``(index, word)`` for each non-zero word, in index order.

    This is the hardware behaviour behind iterator-register increment:
    moving directly to the next non-null element, skipping zero subtrees
    without touching memory (section 3.3). A compacted path is crossed
    in one step, as in :func:`_gather`.
    """
    cap = entry_capacity(mem, level)
    limit = cap if stop is None else stop
    spans, fan = mem.spans, mem.fanout

    def visit(entry: Entry, level: int, base: int) -> Iterator[Tuple[int, object]]:
        if isinstance(entry, Inline):
            for k, v in enumerate(entry.values):
                pos = base + k
                if v and start <= pos < limit:
                    yield pos, v
            return
        path = entry.path
        if path:
            level -= len(path)
            base += _path_value(path, fan) * spans[level]
            if base >= limit or base + spans[level] <= start:
                return
        line = mem.read(entry.plid)
        if level == 0:
            for k, word in enumerate(line):
                if word != 0 and start <= base + k < limit:
                    yield base + k, word
            return
        span = spans[level - 1]
        for j in range(max((start - base) // span, 0),
                       min((limit - 1 - base) // span + 1, len(line))):
            if line[j] != 0:
                yield from visit(line[j], level - 1, base + j * span)

    if entry == 0 or start >= cap or limit <= 0:
        return iter(())
    return visit(entry, level, 0)


# ----------------------------------------------------------------------
# writing

def _expand(mem: MemorySystem, entry: Entry, level: int,
            owned: bool = True) -> List:
    """One level of ``entry``: its ``fanout`` child entries at
    ``level > 0``, its words at level 0.

    ``owned`` trades the caller's reference on ``entry`` for one on every
    reference in the result, so a rebuild can feed it back to
    :func:`_canonical_interior` / :func:`_leaf_entry` (they are taken
    before the line's own is dropped, so a cascading deallocation cannot
    free them mid-rebuild). Otherwise the result is a borrowed view and
    no count changes (merge-update, matrix algebra).
    """
    width = mem.fanout if level else mem.words_per_line
    if entry == 0:
        return [0] * width
    if isinstance(entry, Inline):
        vals = entry.values  # trailing zeros are implicit
        if not level:
            return list(vals) + [0] * (width - len(vals))
        span = entry_capacity(mem, level - 1)
        return [_inline_for(vals[j * span:(j + 1) * span]) or 0
                for j in range(width)]
    if entry.path:
        children: List[Entry] = [0] * width
        # the peeled child inherits the caller's reference, if any
        children[entry.path[0]] = PlidRef(entry.plid, entry.path[1:])
        return children
    words = list(mem.read(entry.plid))
    if owned:
        for word in words:
            if isinstance(word, PlidRef):
                mem.incref(word.plid)
        mem.decref(entry.plid)
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
    lookup-by-content cost over many writes. ``updates`` is only read.
    """
    if not updates:
        return entry
    lo, hi = min(updates), max(updates)
    cap = entry_capacity(mem, level)
    if lo < 0 or hi >= cap:
        raise SegmentRangeError("write at %d beyond capacity %d"
                                % (lo if lo < 0 else hi, cap))
    return _rebuild(mem, entry, level, 0, updates.items(), lo, hi)


def _digits(number: int, fan: int, count: int) -> Tuple[int, ...]:
    """``number`` as ``count`` base-``fan`` digits, most significant first."""
    digits = []
    for _ in range(count):
        number, digit = divmod(number, fan)
        digits.append(digit)
    return tuple(reversed(digits))


def _rebuild(mem: MemorySystem, entry: Entry, level: int, base: int,
             items: Iterable[Tuple[int, object]], lo: int, hi: int) -> Entry:
    """The subtree ``entry`` (at ``level``, its first word at offset
    ``base``) with ``items`` stored: ``(offset, word)`` pairs in commit
    order, ``lo``/``hi`` their least and greatest offset.

    One descent. A stretch of levels the entry elides — a compacted path,
    the spine above a packed entry, a zero subtree — is crossed in one
    step for as long as every update stays inside it, and re-emitted in
    one step by :func:`_wrap_run` (the run-at-once rule, Figure 4). A
    level whose updates all fall under one child is crossed by iteration;
    only a level where they part recurses, child by child in order of
    first appearance — so the memory system sees exactly the reads,
    lookups and reference changes of a level-at-a-time rebuild.
    """
    spans, fan = mem.spans, mem.fanout
    # what to re-emit on the way up: (level, children, slot) for a line
    # or split crossed, (level below, None, digits) for an elided run
    trail: List[tuple] = []
    while level:
        below = level
        if entry == 0:
            below = 0
            while (lo - base) // spans[below] != (hi - base) // spans[below]:
                below += 1
            prefix = (lo - base) // spans[below]
            digits = _digits(prefix, fan, level - below)
            base += prefix * spans[below]
        elif isinstance(entry, Inline):
            below = bisect_right(
                spans, max(hi - base, len(entry.values) - 1), 0, level)
            digits = (0,) * (level - below)
        else:
            for digit in entry.path:
                first = base + digit * spans[below - 1]
                if lo < first or hi >= first + spans[below - 1]:
                    break
                base = first
                below -= 1
            digits = entry.path[:level - below]
            if digits:
                entry = PlidRef(entry.plid, entry.path[len(digits):])
        if digits:
            trail.append((below, None, digits))
            level = below
        if level:
            children = _expand(mem, entry, level)
            span = spans[level - 1]
            slot = (lo - base) // span
            if slot != (hi - base) // span:
                groups: Dict[int, list] = {}
                for item in items:
                    groups.setdefault((item[0] - base) // span, []).append(item)
                for slot, group in groups.items():
                    offsets = [offset for offset, _ in group]
                    children[slot] = _rebuild(
                        mem, children[slot], level - 1, base + slot * span,
                        group, min(offsets), max(offsets))
                entry = _canonical_interior(mem, children, level)
                break
            trail.append((level, children, slot))
            entry = children[slot]
            base += slot * span
            level -= 1
    else:
        words = _expand(mem, entry, 0)
        owned = {i for i, word in enumerate(words) if isinstance(word, PlidRef)}
        for offset, value in items:
            i = offset - base
            if i in owned:
                mem.decref(words[i].plid)
                owned.discard(i)
            words[i] = value
        entry = _leaf_entry(mem, words)
        # Release the expansion-owned references: the new leaf (if
        # materialized) took its own on creation.
        for i in owned:
            mem.decref(words[i].plid)
    for level, children, where in reversed(trail):
        if children is None:
            entry = _wrap_run(mem, entry, level, where)
        else:
            children[where] = entry
            entry = _canonical_interior(mem, children, level)
    return entry


# ----------------------------------------------------------------------
# inspection

def walk_lines(store, entry: Entry,
               skip: Optional[set] = None) -> Iterator[Tuple[int, Line]]:
    """Yield ``(plid, line)`` for every line reachable from ``entry``,
    children strictly before parents, each line exactly once.

    The traversal order is a pure function of the DAG content (children
    visited in word order, duplicates suppressed), so two machines
    holding the same canonical segment walk it in the same sequence —
    the replication layer relies on this both for delta shipping (a
    receiver installing lines in walk order always holds every child a
    line references) and for pairing PLID spaces across machines.

    ``skip`` names subtree roots to prune: a PLID in ``skip`` is neither
    yielded nor descended into (the delta engine passes the set of lines
    the receiver is known to hold — knowledge of a line implies
    knowledge of its whole subtree). Reads go through the store's
    ``peek``, charging no DRAM traffic.
    """
    if skip is None:
        skip = set()
    if not isinstance(entry, PlidRef) or entry.plid in skip:
        return
    seen = set()
    # iterative postorder: (plid, children_expanded) frames
    stack: List[List] = [[entry.plid, False]]
    while stack:
        frame = stack[-1]
        plid, expanded = frame
        if plid == ZERO_PLID or plid in seen or plid in skip:
            stack.pop()
            continue
        line = store.peek(plid)
        if expanded:
            stack.pop()
            seen.add(plid)
            yield plid, line
            continue
        frame[1] = True
        # push children in reverse word order so they pop in word order
        children = [w.plid for w in line if isinstance(w, PlidRef)]
        for child in reversed(children):
            if child != ZERO_PLID and child not in seen and child not in skip:
                stack.append([child, False])


def reachable_plids(store, entries: Iterable[Entry]) -> set:
    """The set of PLIDs reachable from the given root entries."""
    out = set()
    for entry in entries:
        for plid, _ in walk_lines(store, entry, skip=out):
            out.add(plid)
    return out


def content_fingerprint(store, entry: Entry,
                        memo: Optional[Dict[int, bytes]] = None) -> bytes:
    """Machine-independent digest of a subtree: equal iff the canonical
    structures are equal, regardless of how PLIDs were assigned.

    Within one machine, content uniqueness makes root comparison O(1);
    across machines PLID numbering differs, so replication compares
    roots by this digest instead — each PLID reference is replaced by
    its target's fingerprint, bottom-up. ``memo`` (plid → digest) makes
    repeated fingerprinting of overlapping DAGs linear overall.

    When no per-call ``memo`` is given and the store's structural memo
    is enabled, its machine-level digest cache is used instead: digests
    then persist across calls (replication delta pruning, convergence
    checks) and are invalidated through the store's dealloc listeners,
    so a reused PLID can never serve a stale digest.
    """
    tracker = None
    if memo is None:
        if store.memo.enabled:
            tracker = store.memo
            memo = tracker.digests
        else:
            memo = {}

    def word_material(word) -> bytes:
        if isinstance(word, PlidRef):
            return b"P" + line_digest(word.plid) + bytes(word.path)
        return encode_word(word)

    def line_digest(plid: int) -> bytes:
        if plid == ZERO_PLID:
            return b"\x00" * 16
        cached = memo.get(plid)
        if tracker is not None:
            tracker.note_digest(cached is not None)
        if cached is not None:
            return cached
        # resolve children first, iteratively (DAGs can be deep). The
        # skip view is live: subtrees digested earlier in this very walk
        # are pruned too, not just ones memoized before the call.
        for child, _ in walk_lines(store, PlidRef(plid),
                                   skip=memo.keys()):
            material = b"".join(word_material(w)
                                for w in store.peek(child))
            memo[child] = hashlib.blake2b(material,
                                          digest_size=16).digest()
        return memo[plid]

    if entry == 0:
        return hashlib.blake2b(b"Z", digest_size=16).digest()
    material = word_material(entry)
    if tracker is not None:
        tracker.trim_digests()
    return hashlib.blake2b(material, digest_size=16).digest()


def segment_fingerprint(machine, vsid: int) -> bytes:
    """Digest of a whole mapped segment: root content + height + length.

    Two machines hold the same version of a replicated segment exactly
    when these digests match (the cross-machine analogue of the paper's
    O(1) root compare).
    """
    entry = machine.segmap.entry(vsid)
    root = content_fingerprint(machine.mem.store, entry.root)
    # sparse segments (HMap slots) have lengths past 2**64 — encode the
    # length as minimal big-endian bytes rather than a fixed field
    length = entry.length.to_bytes(max(1, (entry.length.bit_length() + 7)
                                       // 8), "big")
    material = root + bytes((entry.height,)) + length
    return hashlib.blake2b(material, digest_size=16).digest()


def count_unique_lines(mem: MemorySystem, entries: Iterable[Entry]) -> int:
    """Number of distinct lines reachable from the given root entries.

    Walks the DAGs without charging DRAM traffic (uses the store's
    ``peek``); used by footprint accounting.
    """
    seen = set()

    def visit(plid: int) -> None:
        if plid == ZERO_PLID or plid in seen:
            return
        seen.add(plid)
        for word in mem.store.peek(plid):
            if isinstance(word, PlidRef):
                visit(word.plid)

    for entry in entries:
        if isinstance(entry, PlidRef):
            visit(entry.plid)
    return len(seen)
