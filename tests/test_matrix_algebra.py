"""Tests for tree-recursive matrix algebra and the parallel SpMV."""

import random

import pytest

from repro.apps.spmv.algebra import (
    _OpStats,
    parallel_spmv,
    qts_add,
    qts_scale,
    qts_transpose,
)
from repro.structures import QuadTreeMatrix
from repro.workloads.matrices import fem_2d, patterned_block
from tests.reference_dense import (
    add,
    allclose,
    dense_from_coo,
    linspace,
    matvec,
    random_dense,
    scale,
    transpose,
)


def random_matrix(machine, n, density, seed):
    dense = random_dense(random.Random(seed), n, n, density)
    return QuadTreeMatrix.from_dense(machine, dense), dense


class TestAdd:
    def test_matches_dense(self, machine):
        a, da = random_matrix(machine, 12, 0.3, 1)
        b, db = random_matrix(machine, 12, 0.3, 2)
        c = qts_add(machine, a, b)
        assert allclose(c.to_dense(), add(da, db))

    def test_zero_shortcut(self, machine):
        a, da = random_matrix(machine, 8, 0.3, 3)
        zero = QuadTreeMatrix.from_coo(machine, 8, 8, [])
        stats = _OpStats()
        c = qts_add(machine, a, zero, stats)
        assert allclose(c.to_dense(), da)
        assert stats.zero_shortcuts > 0
        assert stats.leaf_ops == 0  # nothing actually summed

    def test_add_with_self_is_doubling(self, machine):
        a, da = random_matrix(machine, 10, 0.4, 4)
        c = qts_add(machine, a, a)
        assert allclose(c.to_dense(), scale(2, da))

    def test_duplicate_blocks_summed_once(self, machine):
        spec = patterned_block(128, "p", seed=5, tile=16)
        a = QuadTreeMatrix.from_coo(machine, spec.n, spec.m, spec.entries)
        stats = _OpStats()
        c = qts_add(machine, a, a, stats)
        # 8 identical tile-blocks, but the memo computes each distinct
        # (sub-block, sub-block) pair only once
        assert stats.memo_hits > 0
        assert stats.leaf_ops < spec.nnz / 4
        ref = dense_from_coo(spec.n, spec.m, spec.entries)
        assert allclose(c.to_dense(), scale(2, ref))

    def test_shape_mismatch_rejected(self, machine):
        a, _ = random_matrix(machine, 8, 0.3, 1)
        b, _ = random_matrix(machine, 16, 0.3, 1)
        with pytest.raises(ValueError):
            qts_add(machine, a, b)


class TestScale:
    def test_matches_dense(self, machine):
        a, da = random_matrix(machine, 12, 0.4, 6)
        c = qts_scale(machine, a, -2.5)
        assert allclose(c.to_dense(), scale(-2.5, da))

    def test_memoized_over_duplicates(self, machine):
        spec = patterned_block(128, "p", seed=7, tile=16)
        a = QuadTreeMatrix.from_coo(machine, spec.n, spec.m, spec.entries)
        stats = _OpStats()
        qts_scale(machine, a, 3.0, stats)
        assert stats.memo_hits > 0

    def test_scale_by_one_is_identity_root(self, machine):
        a, _ = random_matrix(machine, 10, 0.4, 8)
        c = qts_scale(machine, a, 1.0)
        assert c.equals(a)  # canonical: same content, same root


class TestTranspose:
    def test_matches_dense(self, machine):
        a, da = random_matrix(machine, 9, 0.4, 9)
        t = qts_transpose(machine, a)
        assert allclose(t.to_dense(), transpose(da))

    def test_symmetric_transposes_to_same_root(self, machine):
        spec = fem_2d(8, "sym")
        a = QuadTreeMatrix.from_coo(machine, spec.n, spec.m, spec.entries)
        t = qts_transpose(machine, a)
        assert t.equals(a)  # Aᵀ == A as a single root compare


class TestParallelSpmv:
    def test_matches_serial(self, machine):
        a, da = random_matrix(machine, 24, 0.3, 10)
        x = linspace(0.5, 1.5, 24)
        y = parallel_spmv(machine, a, x, n_workers=4, seed=3)
        assert allclose(y, matvec(da, x))

    def test_single_worker(self, machine):
        a, da = random_matrix(machine, 8, 0.5, 11)
        x = [1.0] * 8
        assert allclose(parallel_spmv(machine, a, x, n_workers=1),
                        matvec(da, x))

    def test_result_segment_reclaimed(self, machine):
        a, da = random_matrix(machine, 8, 0.5, 12)
        before = len(machine.segmap)
        parallel_spmv(machine, a, [1.0] * 8, n_workers=2)
        assert len(machine.segmap) == before
