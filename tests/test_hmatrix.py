"""Unit tests for quad-tree (QTS) and non-zero-dense (NZD) matrices."""

import random

import pytest

from repro.structures import NzdMatrix, QuadTreeMatrix
from repro.structures.hmatrix import (
    float_to_word,
    pad_dimension,
    sz_coords,
    sz_index,
    word_to_float,
)
from tests import reference_sz_order
from tests.reference_dense import (
    allclose,
    matvec,
    nonzero_entries,
    random_dense,
)


class TestFloatWords:
    def test_roundtrip(self):
        for v in (0.0, 1.0, -1.5, 3.14159, 1e300, -1e-300):
            assert word_to_float(float_to_word(v)) == v

    def test_zero_is_zero_word(self):
        assert float_to_word(0.0) == 0


class TestSzOrder:
    def test_pad_dimension(self):
        assert pad_dimension(1) == 1
        assert pad_dimension(5) == 8
        assert pad_dimension(64) == 64

    def test_bijection(self):
        for size in (2, 4, 8, 32):
            seen = set()
            for r in range(size):
                for c in range(size):
                    idx = sz_index(r, c, size)
                    assert 0 <= idx < size * size
                    assert idx not in seen
                    seen.add(idx)
                    assert sz_coords(idx, size) == (r, c)

    def test_quadrants_are_contiguous(self):
        size = 16
        quad = (size // 2) ** 2
        # A11 occupies [0, quad), A22 [quad, 2*quad), etc.
        for r in range(size // 2):
            for c in range(size // 2):
                assert sz_index(r, c, size) < quad
                assert quad <= sz_index(r + 8, c + 8, size) < 2 * quad

    def test_symmetric_elements_share_index_block(self):
        # For r < half <= c, element (r, c) in A12 and its mirror (c, r)
        # in A21 map to the same in-block offset — the QTS sharing trick.
        size = 16
        quad = (size // 2) ** 2
        for r in range(size // 2):
            for c in range(size // 2, size):
                a12 = sz_index(r, c, size)
                a21 = sz_index(c, r, size)
                assert a12 - 2 * quad == a21 - 3 * quad


class TestSzTables:
    """The four-levels-per-lookup tables against the per-level loops."""

    def test_every_point_up_to_256(self):
        for k in range(9):
            size = 1 << k
            for r in range(size):
                for c in range(size):
                    idx = reference_sz_order.sz_index(r, c, size)
                    assert sz_index(r, c, size) == idx, (r, c, size)
                    assert sz_coords(idx, size) == (r, c), (idx, size)

    def test_seeded_points_up_to_2_to_the_21(self):
        rng = random.Random(38)
        for _ in range(20_000):
            size = 1 << rng.randrange(9, 22)
            r, c = rng.randrange(size), rng.randrange(size)
            idx = reference_sz_order.sz_index(r, c, size)
            assert sz_index(r, c, size) == idx, (r, c, size)
            assert sz_coords(idx, size) == (r, c) \
                == reference_sz_order.sz_coords(idx, size)

    def test_nzd_walks_set_bits_in_the_bit_loop_order(self, machine):
        # word 0 full; word 1 bits 63 and 0; word 2 bit 63; word 3 bit 0
        cells = list(range(64)) + [64, 127, 128, 255]
        entries = [reference_sz_order.sz_coords(i, 16) + (float(i + 1),)
                   for i in cells]
        random.Random(1).shuffle(entries)
        nz = NzdMatrix.from_coo(machine, 16, 16, entries)
        with machine.snapshot(nz.pattern_vsid) as pattern:
            assert list(pattern.iter_nonzero()) == [
                (0, (1 << 64) - 1), (1, 1 << 63 | 1), (2, 1 << 63), (3, 1)]
        walked = list(nz.iter_nonzero())
        assert walked == list(reference_sz_order.nzd_iter_nonzero(nz))
        assert [value for _, _, value in walked] == [i + 1.0 for i in cells]


class TestQuadTreeMatrix:
    def test_roundtrip_dense(self, machine):
        dense = random_dense(random.Random(5), 7, 9, 0.4)
        qt = QuadTreeMatrix.from_dense(machine, dense)
        assert allclose(qt.to_dense(), dense)

    def test_get_element(self, machine):
        qt = QuadTreeMatrix.from_coo(machine, 5, 5, [(1, 2, 3.5)])
        assert qt.get(1, 2) == 3.5
        assert qt.get(2, 1) == 0.0

    def test_spmv_matches_dense(self, machine):
        rng = random.Random(6)
        dense = random_dense(rng, 12, 12, 0.3)
        qt = QuadTreeMatrix.from_dense(machine, dense)
        x = [rng.random() for _ in range(12)]
        assert allclose(qt.spmv(x), matvec(dense, x))

    def test_zero_matrix_is_free(self, machine):
        qt = QuadTreeMatrix.from_coo(machine, 64, 64, [])
        assert qt.footprint_lines() == 0
        assert allclose(qt.spmv([1.0] * 64), [0.0] * 64)

    def test_structural_equality(self, machine):
        entries = [(0, 0, 1.0), (3, 2, -2.0)]
        a = QuadTreeMatrix.from_coo(machine, 8, 8, entries)
        b = QuadTreeMatrix.from_coo(machine, 8, 8, entries)
        assert a.equals(b)

    def test_symmetric_halves_offdiag_storage(self, machine):
        rng = random.Random(1)
        n = 64
        sym, asym = [], []
        for _ in range(250):
            i, j = rng.randrange(n), rng.randrange(n)
            v = round(rng.random(), 3)
            sym += [(i, j, v), (j, i, v)]
            asym += [(i, j, round(rng.random(), 3)),
                     (j, i, round(rng.random(), 3))]
        from repro import Machine
        from tests.conftest import small_config
        m1, m2 = Machine(small_config()), Machine(small_config())
        qs = QuadTreeMatrix.from_coo(m1, n, n, sym)
        qa = QuadTreeMatrix.from_coo(m2, n, n, asym)
        assert qs.footprint_lines() < qa.footprint_lines()

    def test_repeated_blocks_collapse(self, machine):
        # identical diagonal tiles share one sub-DAG
        tile = [(i, j, float(i * 4 + j + 1)) for i in range(4)
                for j in range(4)]
        entries = []
        for b in range(8):
            entries += [(b * 4 + i, b * 4 + j, v) for i, j, v in tile]
        qt = QuadTreeMatrix.from_coo(machine, 32, 32, entries)
        single = QuadTreeMatrix.from_coo(machine, 32, 32,
                                         [(i, j, v) for i, j, v in tile])
        # eight copies cost barely more than one (path/interior glue)
        assert qt.footprint_lines() <= single.footprint_lines() + 6

    def test_drop_reclaims(self, machine):
        qt = QuadTreeMatrix.from_coo(machine, 16, 16,
                                     [(i, i, 1.5 + i) for i in range(16)])
        qt.drop()
        assert machine.footprint_lines() == 0


class TestNzdMatrix:
    def test_roundtrip(self, machine):
        dense = random_dense(random.Random(7), 10, 10, 0.5)
        nz = NzdMatrix.from_coo(machine, 10, 10, nonzero_entries(dense))
        assert allclose(nz.to_dense(), dense)

    def test_spmv_matches_dense(self, machine):
        rng = random.Random(8)
        dense = random_dense(rng, 9, 9, 0.4)
        nz = NzdMatrix.from_coo(machine, 9, 9, nonzero_entries(dense))
        x = [rng.random() for _ in range(9)]
        assert allclose(nz.spmv(x), matvec(dense, x))

    def test_pattern_dedup_beats_qts_for_unique_values(self):
        # same pattern, unique values: NZD's pattern tree dedups while
        # QTS's value-bearing leaves cannot
        from repro import Machine
        from tests.conftest import small_config
        rng = random.Random(3)
        entries = []
        stencil = [(i, j) for i in range(8) for j in range(8)
                   if (i + j) % 3 == 0]
        for b in range(16):
            for i, j in stencil:
                entries.append((b * 8 + i, b * 8 + j,
                                round(rng.random() + 0.01, 6)))
        m1, m2 = Machine(small_config()), Machine(small_config())
        qts = QuadTreeMatrix.from_coo(m1, 128, 128, entries)
        nzd = NzdMatrix.from_coo(m2, 128, 128, entries)
        assert nzd.footprint_bytes() < qts.footprint_bytes()

    def test_drop_reclaims(self, machine):
        nz = NzdMatrix.from_coo(machine, 8, 8, [(1, 1, 2.0), (5, 3, 4.0)])
        nz.drop()
        assert machine.footprint_lines() == 0
