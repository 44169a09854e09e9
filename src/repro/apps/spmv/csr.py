"""Conventional CSR / symmetric-CSR SpMV baseline (section 5.2.1).

The paper compares HICAMP against "a conventional CSR SpMV algorithm or
against a symmetric CSR SpMV algorithm, as appropriate". The model lays
the standard arrays out in flat memory — ``row_ptr`` (4-byte indices),
``col_idx`` (4-byte), ``vals`` (8-byte doubles), the dense vectors ``x``
and ``y`` — and replays the kernel's access pattern through the
conventional cache hierarchy: sequential streaming over the matrix
arrays, unpredictable gathers on ``x`` (the paper's stated bottleneck),
and, for the symmetric kernel, scattered updates on ``y`` as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.memory.conventional import Arena, ConventionalMemory
from repro.memory.stats import DramStats
from repro.params import ConventionalConfig
from repro.workloads.matrices import MatrixSpec


@dataclass
class CsrMatrix:
    """CSR (or upper-triangle symmetric CSR) arrays plus their layout."""

    n_rows: int
    n_cols: int
    row_ptr: List[int]
    col_idx: List[int]
    vals: List[float]
    symmetric: bool  # stored as diagonal + upper triangle

    @classmethod
    def from_spec(cls, spec: MatrixSpec, use_symmetric: bool = None) -> "CsrMatrix":
        """Build from a matrix spec, folding symmetric storage if allowed."""
        if use_symmetric is None:
            use_symmetric = spec.symmetric
        rows: List[List[Tuple[int, float]]] = [[] for _ in range(spec.n)]
        for r, c, v in spec.entries:
            if use_symmetric and c < r:
                continue  # lower triangle implied
            rows[r].append((c, v))
        row_ptr = [0]
        col_idx: List[int] = []
        vals: List[float] = []
        for row in rows:
            for c, v in sorted(row):
                col_idx.append(c)
                vals.append(v)
            row_ptr.append(len(col_idx))
        return cls(spec.n, spec.m, row_ptr, col_idx, vals, use_symmetric)

    @property
    def nnz_stored(self) -> int:
        """Stored non-zeros (half the off-diagonal for symmetric)."""
        return len(self.vals)

    def storage_bytes(self) -> int:
        """Array bytes: 4B row_ptr entries + 4B col_idx + 8B values."""
        return 4 * len(self.row_ptr) + 4 * len(self.col_idx) + 8 * len(self.vals)

    def multiply(self, x: Sequence[float]) -> List[float]:
        """Functional SpMV (for correctness cross-checks)."""
        y = [0.0] * self.n_rows
        for r in range(self.n_rows):
            for k in range(self.row_ptr[r], self.row_ptr[r + 1]):
                c = self.col_idx[k]
                y[r] += self.vals[k] * x[c]
                if self.symmetric and c != r:
                    y[c] += self.vals[k] * x[r]
        return y


def csr_spmv_traffic(csr: CsrMatrix,
                     config: ConventionalConfig = None) -> DramStats:
    """DRAM accesses of one ``y = A @ x`` pass on the conventional machine."""
    mem = ConventionalMemory(config or ConventionalConfig())
    arena = Arena(base=0x10000)
    row_ptr_addr = arena.alloc(4 * len(csr.row_ptr))
    col_idx_addr = arena.alloc(4 * len(csr.col_idx))
    vals_addr = arena.alloc(8 * len(csr.vals))
    x_addr = arena.alloc(8 * csr.n_cols)
    y_addr = arena.alloc(8 * csr.n_rows)

    mem.load(row_ptr_addr, 4)
    for r in range(csr.n_rows):
        mem.load(row_ptr_addr + 4 * (r + 1), 4)
        for k in range(csr.row_ptr[r], csr.row_ptr[r + 1]):
            mem.load(col_idx_addr + 4 * k, 4)
            mem.load(vals_addr + 8 * k, 8)
            c = csr.col_idx[k]
            mem.load(x_addr + 8 * c, 8)  # the unpredictable gather
            if csr.symmetric and c != r:
                mem.load(x_addr + 8 * r, 8)
                mem.load(y_addr + 8 * c, 8)   # scattered accumulate
                mem.store(y_addr + 8 * c, 8)
        mem.store(y_addr + 8 * r, 8)
    mem.drain()
    return mem.dram
