"""Tree-recursive linear algebra over quad-tree matrices (section 5.2).

"The DAG structure lends itself to tree-recursive algorithms and many
important operations in linear algebra can be naturally expressed in
such form. During tree traversal, zero and duplicate sub-matrices can be
detected by PLID comparison. Such optimizations reduce number of memory
accesses and increase the performance of the memory system."

Implemented here:

* :func:`qts_add` — C = A + B with zero-subtree shortcuts and a memo
  keyed by *(root of A-subtree, root of B-subtree)*: a pair of duplicate
  sub-matrices is summed once, however many times it recurs;
* :func:`qts_scale` — C = alpha * A, memoized per subtree root, so a
  block-repetitive matrix is scaled in time proportional to its number
  of *distinct* blocks;
* :func:`qts_transpose` — structural transpose (a symmetric matrix
  transposes to literally the same root);
* :func:`parallel_spmv` — the paper's concurrent kernel: K tasks each
  compute a row partition against a shared snapshot and merge their
  partial result segments into one, conflict-free because partitions are
  disjoint (section 5.2's closing paragraph).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.machine import Machine
from repro.segments import dag
from repro.segments.dag import Entry, entry_key
from repro.structures.hmatrix import (
    QuadTreeMatrix,
    float_to_word,
    word_to_float,
)


class _OpStats:
    """Work accounting for the PLID-shortcut claims."""

    def __init__(self) -> None:
        self.leaf_ops = 0
        self.memo_hits = 0
        self.zero_shortcuts = 0


def _add_entries(mem, a: Entry, b: Entry, level: int,
                 memo: Dict[Tuple[bytes, bytes], Entry],
                 stats: _OpStats) -> Entry:
    if a == 0:
        stats.zero_shortcuts += 1
        return dag.retain_entry(mem, b)
    if b == 0:
        stats.zero_shortcuts += 1
        return dag.retain_entry(mem, a)
    key = (entry_key(a), entry_key(b))
    hit = memo.get(key)
    if hit is not None:
        stats.memo_hits += 1
        return dag.retain_entry(mem, hit)
    if level == 0:
        stats.leaf_ops += 1
        wa = dag._expand(mem, a, 0, owned=False)
        wb = dag._expand(mem, b, 0, owned=False)
        summed = [
            float_to_word(word_to_float(x) + word_to_float(y))
            if (x or y) else 0
            for x, y in zip(wa, wb)
        ]
        result = dag._leaf_entry(mem, summed)
    else:
        ca = dag._expand(mem, a, level, owned=False)
        cb = dag._expand(mem, b, level, owned=False)
        kids = [_add_entries(mem, ca[j], cb[j], level - 1, memo, stats)
                for j in range(mem.fanout)]
        result = dag._canonical_interior(mem, kids, level)
    # the memo borrows: the recursion stack (and finally the result DAG)
    # keeps the entry alive for the duration of the operation
    memo[key] = result
    return result


def qts_add(machine: Machine, a: QuadTreeMatrix, b: QuadTreeMatrix,
            stats: Optional[_OpStats] = None) -> QuadTreeMatrix:
    """C = A + B by tree recursion with PLID shortcuts."""
    if (a.n_rows, a.n_cols) != (b.n_rows, b.n_cols):
        raise ValueError("shape mismatch")
    if stats is None:
        stats = _OpStats()
    mem = machine.mem
    ea, eb = machine.segmap.entry(a.vsid), machine.segmap.entry(b.vsid)
    height = max(ea.height, eb.height)
    ra = dag.grow_entry(mem, dag.retain_entry(mem, ea.root) and ea.root,
                        ea.height, height)
    rb = dag.grow_entry(mem, dag.retain_entry(mem, eb.root) and eb.root,
                        eb.height, height)
    memo: Dict[Tuple[bytes, bytes], Entry] = {}
    root = _add_entries(mem, ra, rb, height, memo, stats)
    dag.release_entry(mem, ra)
    dag.release_entry(mem, rb)
    vsid = machine.segmap.create(root, height, max(ea.length, eb.length))
    return QuadTreeMatrix(machine, vsid, a.n_rows, a.n_cols, a.size,
                          nnz=max(a.nnz, b.nnz))


def _scale_entry(mem, entry: Entry, alpha: float, level: int,
                 memo: Dict[bytes, Entry], stats: _OpStats) -> Entry:
    if entry == 0:
        stats.zero_shortcuts += 1
        return 0
    key = entry_key(entry)
    hit = memo.get(key)
    if hit is not None:
        stats.memo_hits += 1
        return dag.retain_entry(mem, hit)
    if level == 0:
        stats.leaf_ops += 1
        words = dag._expand(mem, entry, 0, owned=False)
        scaled = [float_to_word(alpha * word_to_float(x)) if x else 0
                  for x in words]
        result = dag._leaf_entry(mem, scaled)
    else:
        kids = [_scale_entry(mem, c, alpha, level - 1, memo, stats)
                for c in dag._expand(mem, entry, level, owned=False)]
        result = dag._canonical_interior(mem, kids, level)
    memo[key] = result
    return result


def qts_scale(machine: Machine, a: QuadTreeMatrix, alpha: float,
              stats: Optional[_OpStats] = None) -> QuadTreeMatrix:
    """C = alpha * A; duplicate blocks are scaled once (memoized)."""
    if stats is None:
        stats = _OpStats()
    mem = machine.mem
    ea = machine.segmap.entry(a.vsid)
    memo: Dict[bytes, Entry] = {}
    root = _scale_entry(mem, ea.root, alpha, ea.height, memo, stats)
    vsid = machine.segmap.create(root, ea.height, ea.length)
    return QuadTreeMatrix(machine, vsid, a.n_rows, a.n_cols, a.size, a.nnz)


def qts_transpose(machine: Machine, a: QuadTreeMatrix) -> QuadTreeMatrix:
    """Aᵀ, rebuilt canonically (a symmetric matrix yields the same root)."""
    entries = [(c, r, v) for r, c, v in a.iter_nonzero()]
    return QuadTreeMatrix.from_coo(machine, a.n_cols, a.n_rows, entries)


def parallel_spmv(machine: Machine, matrix: QuadTreeMatrix,
                  x: "np.ndarray", n_workers: int = 4,
                  seed: int = 0) -> "np.ndarray":
    """Concurrent SpMV: K tasks over one snapshot, merged results.

    Each worker reads the matrix through the shared snapshot (snapshot
    isolation keeps the input stable), computes the rows of its
    partition into transient memory, and commits its partial result into
    a shared result segment with merge-update; partitions are disjoint,
    so merges never conflict (section 5.2's concurrent model).
    """
    from repro.concurrency import Scheduler
    from repro.segments.segment_map import SegmentFlags

    n = matrix.n_rows
    result_vsid = machine.create_segment([0] * max(1, n),
                                         flags=SegmentFlags.MERGE_UPDATE)
    # one shared snapshot of the input matrix
    rows = [[] for _ in range(n_workers)]
    for r, c, v in matrix.iter_nonzero():
        if r < n and c < matrix.n_cols:
            rows[r % n_workers].append((r, c, v))

    def worker(wid):
        partial = {}
        for i, (r, c, v) in enumerate(rows[wid]):
            partial[r] = partial.get(r, 0.0) + v * x[c]
            if i % 16 == 15:
                yield  # interleave with other workers

        def commit(it):
            for r, acc in partial.items():
                prev = it.get(r)
                base = word_to_float(prev) if prev else 0.0
                it.put(float_to_word(base + acc), offset=r)

        machine.atomic_update(result_vsid, commit, merge=True)

    sched = Scheduler(seed=seed)
    for wid in range(n_workers):
        sched.spawn("spmv-%d" % wid, worker(wid))
    sched.run()

    y = np.zeros(n)
    with machine.snapshot(result_vsid) as snap:
        for idx, word in snap.iter_nonzero():
            y[idx] = word_to_float(word)
    machine.drop_segment(result_vsid)
    return y
