"""HICAMP SpMV kernels with DRAM-traffic measurement (section 5.2).

A matrix is held in the quad-tree (QTS) format — or, when its values
defeat compaction but its pattern does not, the non-zero-dense (NZD)
format — and ``y = A @ x`` is one traversal of the DAG: zero and
duplicate sub-matrices are skipped or served from cache ("detected by
PLID comparison"), the ``x`` vector is a segment read in Z-order blocks
(predictable locality, unlike CSR's gathers), and ``y`` accumulates in
transient memory and commits once at the end.

The caches here are scaled down with the matrices (the paper used
larger-than-L2 matrices on a 4 MB L2; we shrink both, keeping the
matrix-to-cache ratio the comparison actually depends on).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Sequence, Tuple

from repro.core.machine import Machine
from repro.params import CacheGeometry, ConventionalConfig, MachineConfig, MemoryConfig
from repro.segments import dag
from repro.structures.hmatrix import NzdMatrix, QuadTreeMatrix, float_to_word
from repro.workloads.matrices import MatrixSpec
from repro.apps.spmv.csr import CsrMatrix, csr_spmv_traffic

#: Scaled cache for the traffic study: the suite's matrices stand to this
#: cache roughly as the paper's UF matrices stood to a 4 MB L2.
SPMV_CACHE_BYTES = 64 * 1024
SPMV_L1_BYTES = 8 * 1024


def spmv_machine(line_bytes: int = 32) -> Machine:
    """A machine with the scaled SpMV cache."""
    return Machine(MachineConfig(
        memory=MemoryConfig(line_bytes=line_bytes, num_buckets=1 << 15,
                            data_ways=12, overflow_lines=1 << 21),
        cache=CacheGeometry(size_bytes=SPMV_CACHE_BYTES, ways=16,
                            line_bytes=line_bytes),
    ))


def spmv_conventional_config(line_bytes: int = 32) -> ConventionalConfig:
    """The matching scaled conventional hierarchy."""
    return ConventionalConfig(
        line_bytes=line_bytes,
        l1=CacheGeometry(size_bytes=SPMV_L1_BYTES, ways=4, line_bytes=line_bytes),
        l2=CacheGeometry(size_bytes=SPMV_CACHE_BYTES, ways=16,
                         line_bytes=line_bytes),
    )


@dataclass
class SpmvResult:
    """Traffic and footprint of one matrix under one representation."""

    name: str
    category: str
    fmt: str  # "qts" | "nzd" | "csr" | "csr-sym"
    nnz: int
    footprint_bytes: int
    dram_accesses: int
    y_checksum: float


def pairwise_sum(values: Sequence[float]) -> float:
    """``values``' sum in numpy's pairwise order, bit for bit.

    The checksums were recorded as ``numpy.sum``, whose rounding differs
    from a left-to-right ``sum`` in the last bits. Below 8 terms it adds
    in order; up to 128 it keeps eight running sums, combines them as a
    balanced tree and adds the remainder in order; above that it splits
    at half the length rounded down to a multiple of 8.
    """
    return 0.0 + _pairwise(values, 0, len(values))


def _pairwise(values: Sequence[float], start: int, n: int) -> float:
    if n < 8:
        total = 0.0
        for i in range(start, start + n):
            total += values[i]
        return total
    if n <= 128:
        r = list(values[start:start + 8])
        end = start + n - n % 8
        for i in range(start + 8, end, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = (((r[0] + r[1]) + (r[2] + r[3]))
                 + ((r[4] + r[5]) + (r[6] + r[7])))
        for i in range(end, start + n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return (_pairwise(values, start, half)
            + _pairwise(values, start + half, n - half))


def _x_vector(m: int) -> List[float]:
    """The ``x`` every SpMV pass multiplies by."""
    return [1.0 + (i % 7) * 0.25 for i in range(m)]


_FORMATS = {"qts": QuadTreeMatrix, "nzd": NzdMatrix}

#: ``(fmt, footprint_bytes)`` of the smaller HICAMP format, by what the
#: answer is a function of: the matrix's name, shape, symmetry and
#: entries, and the line size. Figure 7 and Table 2 / Figure 8 ask it of
#: the same suite; whichever runs first in a process answers for both.
#: A key holds its matrix's entries as packed bytes, not the tuples
#: themselves (24 bytes an entry against ~150); a value is two scalars.
_BEST_FORMAT: Dict[tuple, Tuple[str, int]] = {}


def _content_key(spec: MatrixSpec, line_bytes: int) -> tuple:
    # (row, col, value) as three doubles each: exact, indices being far
    # below 2**53
    entries = array("d", chain.from_iterable(spec.entries)).tobytes()
    return spec.name, spec.n, spec.m, spec.symmetric, entries, line_bytes


def _build(spec: MatrixSpec, line_bytes: int, fmt: str):
    """``spec`` in one HICAMP format on a fresh machine: the matrix (its
    machine is ``matrix.machine``) and its footprint in bytes."""
    try:
        matrix_type = _FORMATS[fmt]
    except KeyError:
        raise ValueError("unknown HICAMP format %r" % fmt) from None
    matrix = matrix_type.from_coo(spmv_machine(line_bytes), spec.n, spec.m,
                                  spec.entries)
    return matrix, matrix.footprint_bytes()


def _best_format(spec: MatrixSpec, line_bytes: int):
    """``(fmt, footprint_bytes, matrix)`` of the smaller HICAMP format.

    A first ask builds both formats and hands back the winner still
    built; a later one is answered from :data:`_BEST_FORMAT` with
    ``matrix`` None.
    """
    key = _content_key(spec, line_bytes)
    best = _BEST_FORMAT.get(key)
    if best is not None:
        return best + (None,)
    qts, qts_bytes = _build(spec, line_bytes, "qts")
    nzd, nzd_bytes = _build(spec, line_bytes, "nzd")
    fmt, footprint, matrix = (("nzd", nzd_bytes, nzd) if nzd_bytes < qts_bytes
                              else ("qts", qts_bytes, qts))
    _BEST_FORMAT[key] = fmt, footprint
    return fmt, footprint, matrix


def _spmv_pass(spec: MatrixSpec, fmt: str, matrix,
               footprint: int) -> SpmvResult:
    """The traffic of one ``y = A @ x`` over a built matrix."""
    machine = matrix.machine
    x = _x_vector(spec.m)
    x_vsid = machine.create_segment([float_to_word(v) for v in x])
    # measure only the multiply pass (the paper's off-chip access counts
    # are per-SpMV; the build is amortized across iterations)
    machine.drain()
    before = machine.dram.snapshot()
    y = [0.0] * spec.n
    x_entry = machine.segmap.entry(x_vsid)
    for row, col, value in matrix.iter_nonzero():
        if row < spec.n and col < spec.m:
            xw = dag.read_word(machine.mem, x_entry.root, x_entry.height, col)
            y[row] += value * x[col]
            del xw  # the access is what matters for traffic
    # commit y once from transient memory
    machine.create_segment([float_to_word(v) for v in y])
    machine.drain()
    delta = machine.dram.delta(before)
    return SpmvResult(spec.name, spec.category, fmt, spec.nnz,
                      footprint, delta.total(), pairwise_sum(y))


def hicamp_spmv_traffic(spec: MatrixSpec, line_bytes: int = 32,
                        fmt: str = "qts") -> SpmvResult:
    """Build the matrix on HICAMP and measure one SpMV pass's traffic."""
    return _spmv_pass(spec, fmt, *_build(spec, line_bytes, fmt))


def csr_result(spec: MatrixSpec, line_bytes: int = 32) -> SpmvResult:
    """The conventional side: CSR (symmetric variant when applicable)."""
    csr = CsrMatrix.from_spec(spec)
    dram = csr_spmv_traffic(csr, spmv_conventional_config(line_bytes))
    y = csr.multiply(_x_vector(spec.m))
    return SpmvResult(spec.name, spec.category,
                      "csr-sym" if csr.symmetric else "csr",
                      spec.nnz, spec.csr_bytes(), dram.total(),
                      pairwise_sum(y))


def best_hicamp_footprint(spec: MatrixSpec,
                          line_bytes: int = 32) -> Tuple[str, int]:
    """The best-known HICAMP format for a matrix (QTS or NZD), by bytes.

    This is the paper's Table 2 methodology: "We compare the best-known
    HICAMP format (QTS or NZD) against CSR, or symmetric CSR, as
    appropriate."
    """
    fmt, footprint, _ = _best_format(spec, line_bytes)
    return fmt, footprint


def spmv_comparison(spec: MatrixSpec, line_bytes: int = 32):
    """(HICAMP result, CSR result) for one matrix — Figure 7's data point.

    The HICAMP format is whichever of QTS/NZD is smaller for this matrix,
    mirroring the paper's per-matrix format choice.
    """
    # the pass runs on the machine the format comparison built, when
    # this call is the one that made the comparison
    fmt, footprint, matrix = _best_format(spec, line_bytes)
    if matrix is None:
        matrix, footprint = _build(spec, line_bytes, fmt)
    hicamp = _spmv_pass(spec, fmt, matrix, footprint)
    conventional = csr_result(spec, line_bytes)
    # cross-check numerics between representations
    if abs(hicamp.y_checksum - conventional.y_checksum) > 1e-6 * max(
            1.0, abs(conventional.y_checksum)):
        raise AssertionError(
            "SpMV mismatch on %s: %r vs %r" % (
                spec.name, hicamp.y_checksum, conventional.y_checksum))
    return hicamp, conventional
