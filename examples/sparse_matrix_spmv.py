#!/usr/bin/env python
"""Sparse matrices on HICAMP (section 5.2): quad-tree storage, symmetric
sharing, and SpMV memory traffic vs a conventional CSR kernel.

Run:  python examples/sparse_matrix_spmv.py
"""

from repro.apps.spmv import spmv_comparison
from repro.apps.spmv.kernels import spmv_machine
from repro.structures import QuadTreeMatrix
from repro.workloads.matrices import fem_2d, matrix_suite, patterned_block


def close(a, b) -> bool:
    """Element-wise equal up to rounding."""
    return len(a) == len(b) and all(
        abs(p - q) <= 1e-8 + 1e-5 * abs(q) for p, q in zip(a, b))


def main() -> None:
    # --- symmetric sharing: A12 and A21^T become one sub-DAG ------------
    machine = spmv_machine()
    spec = fem_2d(24, "demo-fem")
    qt = QuadTreeMatrix.from_coo(machine, spec.n, spec.m, spec.entries)
    print("FEM Laplacian %dx%d, nnz=%d" % (spec.n, spec.m, spec.nnz))
    print("  quad-tree lines: %d (%.1f KB; CSR would need %.1f KB)"
          % (qt.footprint_lines(), qt.footprint_bytes() / 1024,
             spec.csr_bytes() / 1024))

    # correctness: same y as a dense multiply
    x = [i / (spec.m - 1) for i in range(spec.m)]
    dense = qt.to_dense()
    y_dense = [sum(v * x[c] for c, v in enumerate(row)) for row in dense]
    assert close(qt.spmv(x), y_dense)
    print("  SpMV matches dense multiply: OK")

    # --- an extreme self-similar matrix (the paper's 4000x outlier) -----
    machine2 = spmv_machine()
    pat = patterned_block(512, "demo-circulant")
    qp = QuadTreeMatrix.from_coo(machine2, pat.n, pat.m, pat.entries)
    print("\nblock-circulant 512x512, nnz=%d" % pat.nnz)
    print("  quad-tree stores it in %d lines (%.1f KB vs %.1f KB CSR)"
          % (qp.footprint_lines(), qp.footprint_bytes() / 1024,
             pat.csr_bytes() / 1024))

    # --- the Figure 7 measurement on a few suite matrices ---------------
    print("\nSpMV off-chip accesses, HICAMP vs conventional CSR:")
    for spec in matrix_suite()[:6]:
        hicamp, conv = spmv_comparison(spec)
        print("  %-16s %-9s fmt=%-4s hicamp=%7d conv=%7d ratio=%.2f"
              % (spec.name, spec.category, hicamp.fmt,
                 hicamp.dram_accesses, conv.dram_accesses,
                 hicamp.dram_accesses / conv.dram_accesses))

    # --- tree-recursive algebra with PLID shortcuts ----------------------
    from repro.apps.spmv.algebra import (
        _OpStats, parallel_spmv, qts_add, qts_scale, qts_transpose)

    print("\nTree-recursive algebra (PLID-comparison shortcuts):")
    stats = _OpStats()
    doubled = qts_add(machine, qt, qt, stats)
    print("  A + A: %d leaf adds, %d memo hits, %d zero shortcuts"
          % (stats.leaf_ops, stats.memo_hits, stats.zero_shortcuts))
    tripled = qts_add(machine, doubled, qt)
    scaled = qts_scale(machine, qt, 3.0)
    print("  (A+A)+A == 3*A by a single root compare:",
          tripled.equals(scaled))
    transposed = qts_transpose(machine, qt)
    print("  A^T == A for the symmetric FEM matrix (root compare):",
          transposed.equals(qt))

    # --- the paper's concurrent SpMV (section 5.2, last paragraph) ------
    y_parallel = parallel_spmv(machine, qt, x, n_workers=4)
    assert close(y_parallel, y_dense)
    print("\n4-worker parallel SpMV over one snapshot, merged partitions: "
          "matches the serial result")


if __name__ == "__main__":
    main()
