"""Test-only oracle: the symmetric Z-order one level at a time.

``sz_index`` and ``sz_coords`` are :mod:`repro.structures.hmatrix`'s
functions as they stood before they read four levels per table lookup,
moved here verbatim, and ``nzd_iter_nonzero`` is
``NzdMatrix.iter_nonzero`` as it stood when it tested all 64 bits of a
pattern word. ``tests/test_hmatrix.py`` holds the production tables and
the set-bit walk to them. Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.structures.hmatrix import word_to_float


def sz_index(row: int, col: int, size: int) -> int:
    """Symmetric-Z-order flat index of element ``(row, col)``.

    ``size`` must be a power of two and the coordinates within it.
    Quadrant order per level: A11, A22, A12, A21ᵀ (A21 in transposed
    coordinates, the QTS layout).
    """
    offset = 0
    while size > 1:
        half = size // 2
        quad = half * half
        if row < half and col < half:
            pass  # A11 -> q0
        elif row >= half and col >= half:
            offset += quad  # A22 -> q1
            row -= half
            col -= half
        elif row < half:
            offset += 2 * quad  # A12 -> q2
            col -= half
        else:
            offset += 3 * quad  # A21 stored transposed -> q3
            row, col = col, row - half
        size = half
    return offset


def sz_coords(index: int, size: int) -> Tuple[int, int]:
    """Inverse of :func:`sz_index`."""
    levels: List[Tuple[int, int]] = []
    while size > 1:
        half = size // 2
        quad = half * half
        levels.append((index // quad, half))
        index %= quad
        size = half
    row = col = 0
    for q, half in reversed(levels):
        if q == 1:
            row, col = row + half, col + half
        elif q == 2:
            col += half
        elif q == 3:
            row, col = col + half, row  # undo the stored transpose
    return row, col


def nzd_iter_nonzero(matrix) -> Iterator[Tuple[int, int, float]]:
    """``(row, col, value)`` of an ``NzdMatrix`` in symmetric-Z order."""
    with matrix.machine.snapshot(matrix.pattern_vsid) as pattern, \
            matrix.machine.snapshot(matrix.values_vsid) as values:
        ordinal = 0
        for word_idx, mask in pattern.iter_nonzero():
            for bit in range(64):
                if mask & (1 << (63 - bit)):
                    index = word_idx * 64 + bit
                    row, col = sz_coords(index, matrix.size)
                    yield row, col, word_to_float(values.read(ordinal))
                    ordinal += 1
