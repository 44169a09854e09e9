"""Quad-tree sparse matrices (section 5.2).

The paper's symmetric quad-tree format (QTS) splits a matrix into four
quadrants and stores ``A11`` and ``A22`` in one subtree and ``A12`` and
``A21-transposed`` in the other, so a symmetric matrix's two off-diagonal
quadrants become the *same* sub-DAG and are stored once by deduplication.

Here the format is realized by linearizing the matrix in a **symmetric
Z-order**: recursively, a ``2^k`` square block lays out its quadrants in
the order ``A11, A22, A12, A21ᵀ`` (the A21 quadrant in transposed
coordinates). A block then occupies a contiguous, aligned word range, so
the canonical segment DAG over the linearized array *is* the quad-tree:

* an all-zero block is the zero subtree (free),
* equal blocks anywhere share one sub-DAG (self-similarity compaction),
* and for a symmetric matrix the A12 and A21ᵀ ranges hold identical
  words, so they share one sub-DAG — the QTS symmetry saving.

:class:`NzdMatrix` is the paper's non-zero dense (NZD) format: the
non-zero *pattern* as a bit-packed quad-tree plus a nearly-dense segment
of the non-zero values in traversal order, for matrices whose pattern is
self-similar but whose values are not.

Values are IEEE-754 doubles stored by their 64-bit pattern (0.0 is the
zero word, so zero elements vanish into zero subtrees).
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.core.machine import Machine
from repro.segments import dag
from repro.segments.segment_map import SegmentFlags

_F64 = struct.Struct(">d")


def float_to_word(value: float) -> int:
    """IEEE-754 bit pattern of a double as a 64-bit word."""
    return struct.unpack(">Q", _F64.pack(value))[0]


def word_to_float(word: int) -> float:
    """Inverse of :func:`float_to_word`."""
    return _F64.unpack(struct.pack(">Q", word))[0]


def pad_dimension(n: int) -> int:
    """Smallest power of two >= n (and >= 1)."""
    size = 1
    while size < n:
        size *= 2
    return size


def _sz_level(row_bit: int, col_bit: int, transposed: int) -> Tuple[int, int]:
    """One level of the symmetric Z-order: the quadrant (0 A11, 1 A22,
    2 A12, 3 A21ᵀ) of a point whose coordinate bits at this level are
    ``row_bit``/``col_bit``, and whether the levels below read them
    swapped. ``transposed`` says whether this level does: each A21ᵀ step
    swaps the coordinates for everything under it."""
    if transposed:
        row_bit, col_bit = col_bit, row_bit
    quad = (0, 2, 3, 1)[row_bit << 1 | col_bit]
    return quad, transposed ^ (quad == 3)


def _sz_tables() -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Four levels at a time, per transpose state ``t`` (512 entries):
    ``index[t << 8 | row4 << 4 | col4]`` is ``quads8 << 1 | t_below`` and
    ``coords[t << 8 | quads8]`` is ``row4 << 5 | col4 << 1 | t_below``,
    where ``row4``/``col4`` are four coordinate bits and ``quads8`` the
    four base-4 quadrant digits, most significant level first."""
    index, coords = [0] * 512, [0] * 512
    for t in (0, 1):
        for row4 in range(16):
            for col4 in range(16):
                below, quads = t, 0
                for shift in (3, 2, 1, 0):
                    quad, below = _sz_level(row4 >> shift & 1,
                                            col4 >> shift & 1, below)
                    quads = quads << 2 | quad
                index[t << 8 | row4 << 4 | col4] = quads << 1 | below
                coords[t << 8 | quads] = row4 << 5 | col4 << 1 | below
    return tuple(index), tuple(coords)


_SZ_INDEX, _SZ_COORDS = _sz_tables()


def sz_index(row: int, col: int, size: int) -> int:
    """Symmetric-Z-order flat index of element ``(row, col)``.

    ``size`` must be a power of two and the coordinates within it.
    Quadrant order per level: A11, A22, A12, A21ᵀ (A21 in transposed
    coordinates, the QTS layout). The levels are read four at a time
    from :data:`_SZ_INDEX`; a size that is not a power of 16 reads
    leading zero bits, which add only A11 steps.
    """
    shift = (size.bit_length() + 2) & ~3  # 4 * ceil(levels / 4)
    offset = t = 0
    while shift:
        shift -= 4
        step = _SZ_INDEX[t << 8 | (row >> shift & 15) << 4
                         | (col >> shift & 15)]
        offset = offset << 8 | step >> 1
        t = step & 1
    return offset


def sz_coords(index: int, size: int) -> Tuple[int, int]:
    """Inverse of :func:`sz_index`, four levels per :data:`_SZ_COORDS` read."""
    shift = (size.bit_length() + 2) & ~3  # 4 * ceil(levels / 4)
    row = col = t = 0
    while shift:
        shift -= 4
        step = _SZ_COORDS[t << 8 | (index >> 2 * shift & 255)]
        row = row << 4 | step >> 5
        col = col << 4 | (step >> 1 & 15)
        t = step & 1
    return row, col


class QuadTreeMatrix:
    """A sparse matrix as one segment in symmetric-Z order (QTS)."""

    def __init__(self, machine: Machine, vsid: int, n_rows: int,
                 n_cols: int, size: int, nnz: int) -> None:
        self.machine = machine
        self.vsid = vsid
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.size = size  # padded power-of-two dimension
        self.nnz = nnz

    @classmethod
    def from_coo(cls, machine: Machine, n_rows: int, n_cols: int,
                 entries: Iterable[Tuple[int, int, float]]) -> "QuadTreeMatrix":
        """Build from ``(row, col, value)`` triples.

        One sparse rebuild pass: only subtrees containing non-zeros are
        ever materialized.
        """
        size = pad_dimension(max(n_rows, n_cols, 1))
        updates: Dict[int, int] = {}
        for row, col, value in entries:
            if value == 0.0:
                continue
            updates[sz_index(row, col, size)] = float_to_word(value)
        vsid = machine.create_segment([], flags=SegmentFlags.NONE)
        if updates:
            machine.write_words(vsid, updates)
            # Logical length is the full padded square; the DAG only
            # holds the non-zero structure.
            entry = machine.segmap.entry(vsid)
            entry.length = size * size
        return cls(machine, vsid, n_rows, n_cols, size, len(updates))

    @classmethod
    def from_dense(cls, machine: Machine,
                   dense: Sequence[Sequence[float]]) -> "QuadTreeMatrix":
        """Build from rows of values (zeros are elided), cells visited in
        row-major order."""
        entries = [(r, c, float(value)) for r, row in enumerate(dense)
                   for c, value in enumerate(row) if value != 0]
        n_cols = len(dense[0]) if len(dense) else 0
        return cls.from_coo(machine, len(dense), n_cols, entries)

    # ------------------------------------------------------------------

    def get(self, row: int, col: int) -> float:
        """Element value (0.0 for structural zeros)."""
        word = self.machine.read_word(self.vsid, sz_index(row, col, self.size))
        return word_to_float(word) if word else 0.0

    def iter_nonzero(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate ``(row, col, value)`` in symmetric-Z order."""
        with self.machine.snapshot(self.vsid) as snap:
            for index, word in snap.iter_nonzero():
                row, col = sz_coords(index, self.size)
                yield row, col, word_to_float(word)

    def to_dense(self) -> List[List[float]]:
        """Materialize as a list of rows (tests / small matrices)."""
        out = [[0.0] * self.n_cols for _ in range(self.n_rows)]
        for row, col, value in self.iter_nonzero():
            if row < self.n_rows and col < self.n_cols:
                out[row][col] = value
        return out

    def spmv(self, x: Sequence[float]) -> List[float]:
        """Sparse matrix - dense vector multiply ``y = A @ x``.

        Traverses the quad-tree once; shared (duplicate or symmetric)
        sub-DAGs hit in the HICAMP cache, which is where the paper's
        off-chip traffic reduction comes from. The result vector is
        accumulated in transient (per-processor) memory.
        """
        y = [0.0] * self.n_rows
        for row, col, value in self.iter_nonzero():
            if row < self.n_rows and col < self.n_cols:
                y[row] += value * x[col]
        return y

    def footprint_lines(self) -> int:
        """Unique lines of this matrix's DAG (includes interior lines)."""
        entry = self.machine.segmap.entry(self.vsid)
        return dag.count_unique_lines(self.machine.mem, [entry.root])

    def footprint_bytes(self) -> int:
        """DRAM bytes attributable to this matrix's unique lines."""
        return self.footprint_lines() * self.machine.mem.line_bytes

    def equals(self, other: "QuadTreeMatrix") -> bool:
        """Structural equality by root compare."""
        return self.machine.segments_equal(self.vsid, other.vsid)

    def drop(self) -> None:
        """Release the matrix segment."""
        self.machine.drop_segment(self.vsid)


class NzdMatrix:
    """The non-zero dense format: bit-packed pattern + dense values.

    The pattern segment stores one bit per element in symmetric-Z order
    (64 elements per word), so pattern self-similarity and symmetry
    dedup even when the values differ; the value segment packs the
    non-zero values densely in traversal order.
    """

    def __init__(self, machine: Machine, pattern_vsid: int, values_vsid: int,
                 n_rows: int, n_cols: int, size: int, nnz: int) -> None:
        self.machine = machine
        self.pattern_vsid = pattern_vsid
        self.values_vsid = values_vsid
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.size = size
        self.nnz = nnz

    @classmethod
    def from_coo(cls, machine: Machine, n_rows: int, n_cols: int,
                 entries: Iterable[Tuple[int, int, float]]) -> "NzdMatrix":
        """Build from ``(row, col, value)`` triples."""
        size = pad_dimension(max(n_rows, n_cols, 1))
        cells: Dict[int, float] = {}
        for row, col, value in entries:
            if value != 0.0:
                cells[sz_index(row, col, size)] = value
        pattern_updates: Dict[int, int] = {}
        value_words: List[int] = []
        for index in sorted(cells):
            word_idx, bit = divmod(index, 64)
            pattern_updates[word_idx] = (
                pattern_updates.get(word_idx, 0) | (1 << (63 - bit))
            )
            value_words.append(float_to_word(cells[index]))
        pattern_vsid = machine.create_segment([])
        if pattern_updates:
            machine.write_words(pattern_vsid, pattern_updates)
            machine.segmap.entry(pattern_vsid).length = (size * size + 63) // 64
        values_vsid = machine.create_segment(value_words)
        return cls(machine, pattern_vsid, values_vsid, n_rows, n_cols,
                   size, len(cells))

    def iter_nonzero(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate ``(row, col, value)`` in symmetric-Z order."""
        with self.machine.snapshot(self.pattern_vsid) as pattern, \
                self.machine.snapshot(self.values_vsid) as values:
            ordinal = 0
            for word_idx, mask in pattern.iter_nonzero():
                last = word_idx * 64 + 63  # element of the word's bit 0
                while mask:  # set bits only, most significant first
                    bit = mask.bit_length() - 1
                    mask ^= 1 << bit
                    row, col = sz_coords(last - bit, self.size)
                    yield row, col, word_to_float(values.read(ordinal))
                    ordinal += 1

    def spmv(self, x: Sequence[float]) -> List[float]:
        """``y = A @ x`` via the pattern walk + dense value stream."""
        y = [0.0] * self.n_rows
        for row, col, value in self.iter_nonzero():
            if row < self.n_rows and col < self.n_cols:
                y[row] += value * x[col]
        return y

    def to_dense(self) -> List[List[float]]:
        """Materialize as a list of rows."""
        out = [[0.0] * self.n_cols for _ in range(self.n_rows)]
        for row, col, value in self.iter_nonzero():
            if row < self.n_rows and col < self.n_cols:
                out[row][col] = value
        return out

    def footprint_lines(self) -> int:
        """Unique lines across the pattern and value DAGs."""
        roots = [self.machine.segmap.entry(self.pattern_vsid).root,
                 self.machine.segmap.entry(self.values_vsid).root]
        return dag.count_unique_lines(self.machine.mem, roots)

    def footprint_bytes(self) -> int:
        """DRAM bytes attributable to this matrix's unique lines."""
        return self.footprint_lines() * self.machine.mem.line_bytes

    def drop(self) -> None:
        """Release both segments."""
        self.machine.drop_segment(self.pattern_vsid)
        self.machine.drop_segment(self.values_vsid)
