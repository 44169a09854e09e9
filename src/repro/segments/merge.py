"""Merge-update (section 3.4).

When a CAS commit fails because another thread moved a segment's root,
a merge-update folds the loser's changes into the winner's version
instead of re-running the whole operation:

* for each line offset, compute the difference between the *original*
  (base) line and the *modified* (mine) line and apply it to the
  *current* (theirs) line — plain data words merge arithmetically, which
  makes concurrent counter increments sum;
* a PLID field must equal either the original or one side's value —
  two updates storing distinct PLIDs into the same field are a true
  conflict and the merge fails (:class:`MergeConflictError`);
* content-uniqueness lets the merge skip identical sub-DAGs with a single
  root compare, so the expected work is a short path from the root down
  to the (usually single) diverging subtree — the geometric-series
  latency argument of section 5.1.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import MergeConflictError
from repro.memory.line import PlidRef
from repro.memory.memo import MISS
from repro.memory.system import MemorySystem
from repro.params import WORD_MASK
from repro.segments import dag
from repro.segments.dag import Entry, entry_key


@dataclass
class MergeStats:
    """Work accounting for one merge (feeds the §5.1.1 latency model)."""

    levels_descended: int = 0
    subtrees_skipped: int = 0
    leaf_merges: int = 0


def three_way_merge_word(base, mine, theirs):
    """Merge one word under the section 3.4 rules.

    Data words merge by difference (``theirs + (mine - base)``) — always,
    even when both sides happen to hold the same value: two concurrent
    "+1"s must sum to "+2", so the diff rule takes precedence over value
    coincidence. Tagged reference words must match the base or one side
    (identical stores coalesce; distinct stores are a true conflict).
    """
    if mine == base:
        return theirs
    if theirs == base:
        return mine
    if (isinstance(base, int) and isinstance(mine, int)
            and isinstance(theirs, int)):
        return (theirs + mine - base) & WORD_MASK
    if mine == theirs:
        return mine  # identical reference stores coalesce
    raise MergeConflictError(
        "distinct references stored into the same field: %r / %r (base %r)"
        % (mine, theirs, base)
    )


def _shared_run(mem: MemorySystem, entries: Tuple[Entry, ...],
                level: int) -> Tuple[int, ...]:
    """Child positions, top-down, of the levels below ``level`` at which
    every one of ``entries`` has the same single non-zero child: a
    compacted path, the child-0 spine above a packed entry, or anything
    at all under a zero entry."""
    run = None
    for entry in entries:
        if entry == 0:
            continue
        if isinstance(entry, PlidRef):
            spine = entry.path
        else:
            spine = (0,) * (level - dag.height_for(mem, len(entry.values)))
        if run is None:
            run = spine
        else:
            n = min(len(run), len(spine))
            if run[:n] != spine[:n]:
                n = next(i for i in range(n) if run[i] != spine[i])
            run = run[:n]
        if not run:
            break
    return run


def _merge_run(mem: MemorySystem, triple: Tuple[Entry, Entry, Entry],
               keys: Tuple[bytes, bytes, bytes], level: int,
               run: Tuple[int, ...], stats: MergeStats) -> Entry:
    """Merge three entries that elide the same ``run`` of levels below
    ``level``: one descent to the bottom of the run, one re-emission.

    Accounts for every elided level what a level-at-a-time merge does
    there — one level descended, ``fanout - 1`` all-zero sibling triples
    skipped and, with the structural memo on, one probe on the way down
    and one record on the way up (``level`` itself is the caller's).
    """
    depth, cached, memo = len(run), MISS, mem.memo
    below_keys = []  # memo keys of levels level-1, level-2, ...
    if memo.enabled:
        # a reference's key ends in its path and sheds leading positions
        # as it peels; a zero or packed entry keeps its key all the way
        (b, b_path), (m, m_path), (t, t_path) = (
            (k[:9], k[9:]) if k[:1] == b"P" else (k, b"") for k in keys)
        for i in range(1, depth):
            key = (b + b_path[i:], m + m_path[i:], t + t_path[i:], level - i)
            cached = memo.get_merge(key)
            if cached is not MISS:
                depth = i
                break
            below_keys.append(key)
    left = sum(run[:depth])  # sibling triples merged before the descent
    stats.levels_descended += depth
    stats.subtrees_skipped += left
    if cached is not MISS:
        stats.subtrees_skipped += 1
        merged = dag.retain_entry(mem, cached)
    else:
        peeled = (PlidRef(e.plid, e.path[depth:]) if isinstance(e, PlidRef)
                  else e for e in triple)
        merged = merge_entries(mem, *peeled, level - depth, stats)
    stats.subtrees_skipped += depth * (mem.fanout - 1) - left
    if not below_keys:
        return dag._wrap_run(mem, merged, level - depth, run[:depth])
    for i in range(depth - 1, 0, -1):
        merged = dag._wrap_run(mem, merged, level - i - 1, run[i:i + 1])
        memo.put_merge(below_keys[i - 1], merged, triple + (merged,))
    return dag._wrap_run(mem, merged, level - 1, run[:1])


def merge_entries(mem: MemorySystem, base: Entry, mine: Entry, theirs: Entry,
                  level: int, stats: MergeStats = None) -> Entry:
    """Three-way merge of same-height subtrees.

    Inputs are borrowed; the merged entry is returned with one
    caller-owned reference. Raises :class:`MergeConflictError` on a true
    data conflict (the whole merge then aborts — mCAS returns failure).
    """
    if stats is None:
        stats = MergeStats()
    k_base, k_mine, k_theirs = entry_key(base), entry_key(mine), entry_key(theirs)
    # Uniqueness of segments lets unchanged sub-DAGs be skipped by a
    # single root compare (section 3.4). Note the sound skips are the
    # one-side-unchanged cases; two sides that made the *same-looking*
    # change must still merge word-by-word, or two identical counter
    # increments would collapse into one. (For the same reason there is
    # deliberately no ``mine == theirs`` short-circuit here — the memo
    # below covers *repeated identical triples* soundly instead, since a
    # merge is a pure function of its three contents.)
    if k_mine == k_base:
        stats.subtrees_skipped += 1
        return dag.retain_entry(mem, theirs)
    if k_theirs == k_base:
        stats.subtrees_skipped += 1
        return dag.retain_entry(mem, mine)
    memo = mem.memo
    memo_key = None
    if memo.enabled:
        memo_key = (k_base, k_mine, k_theirs, level)
        cached = memo.get_merge(memo_key)
        if cached is not MISS:
            # content-unique entries make the key a full content triple;
            # retaining the cached result is refcount-identical to
            # re-deriving it (intermediate lookup hits cancel out)
            stats.subtrees_skipped += 1
            return dag.retain_entry(mem, cached)
    triple = (base, mine, theirs)
    if level == 0:
        stats.leaf_merges += 1
        b, m, t = (dag._expand(mem, e, 0, owned=False) for e in triple)
        words = [three_way_merge_word(b[i], m[i], t[i])
                 for i in range(mem.words_per_line)]
        merged = dag._leaf_entry(mem, words)
    elif run := _shared_run(mem, triple, level):
        merged = _merge_run(mem, triple, (k_base, k_mine, k_theirs), level,
                            run, stats)
    else:
        stats.levels_descended += 1
        bc, mc, tc = (dag._expand(mem, e, level, owned=False) for e in triple)
        children: List[Entry] = []
        try:
            for j in range(mem.fanout):
                children.append(merge_entries(mem, bc[j], mc[j], tc[j],
                                              level - 1, stats))
        except MergeConflictError:
            for c in children:
                dag.release_entry(mem, c)
            raise
        merged = dag._canonical_interior(mem, children, level)
    if memo_key is not None:
        memo.put_merge(memo_key, merged, triple + (merged,))
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
        dag.retain_entry(mem, root)
        grown.append(dag.grow_entry(mem, root, h, height))
    try:
        merged = merge_entries(mem, grown[0], grown[1], grown[2], height, stats)
    finally:
        for g in grown:
            dag.release_entry(mem, g)
    return merged, height
