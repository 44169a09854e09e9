"""Unit and integration tests for the SpMV study."""

import pytest

from repro.analysis.experiments import run_figure7, run_table2_figure8
from repro.apps.spmv import CsrMatrix, csr_spmv_traffic, kernels, spmv_comparison
from repro.apps.spmv.kernels import (
    best_hicamp_footprint,
    csr_result,
    hicamp_spmv_traffic,
    pairwise_sum,
    spmv_conventional_config,
)
from repro.structures.hmatrix import NzdMatrix, QuadTreeMatrix
from repro.workloads import matrices
from repro.workloads.matrices import (
    fem_2d,
    lp_block,
    patterned_block,
    random_sparse,
)
from tests.reference_dense import allclose, dense_from_coo, linspace, matvec


class TestCsr:
    def test_multiply_matches_dense(self):
        spec = lp_block(32, 24, "t", seed=1)
        csr = CsrMatrix.from_spec(spec)
        x = linspace(1, 2, spec.m)
        dense = dense_from_coo(spec.n, spec.m, spec.entries)
        assert allclose(csr.multiply(x), matvec(dense, x))

    def test_symmetric_storage_halves_offdiag(self):
        spec = fem_2d(8, "t")
        full = CsrMatrix.from_spec(spec, use_symmetric=False)
        half = CsrMatrix.from_spec(spec, use_symmetric=True)
        assert half.nnz_stored < full.nnz_stored

    def test_symmetric_multiply_matches_full(self):
        spec = fem_2d(8, "t")
        full = CsrMatrix.from_spec(spec, use_symmetric=False)
        half = CsrMatrix.from_spec(spec, use_symmetric=True)
        x = [i + 0.5 for i in range(spec.m)]
        assert allclose(half.multiply(x), full.multiply(x))

    def test_traffic_positive_and_scales(self):
        small = CsrMatrix.from_spec(random_sparse(64, 512, "s", seed=2))
        large = CsrMatrix.from_spec(random_sparse(256, 8192, "l", seed=2))
        cfg = spmv_conventional_config(32)
        t_small = csr_spmv_traffic(small, cfg).total()
        t_large = csr_spmv_traffic(large, cfg).total()
        assert 0 < t_small < t_large

    def test_storage_bytes(self):
        spec = random_sparse(64, 512, "s", seed=3)
        csr = CsrMatrix.from_spec(spec)
        assert csr.storage_bytes() == (4 * (spec.n + 1) + 12 * spec.nnz)


class TestPairwiseSum:
    """The checksum adds in numpy's pairwise order, so the recorded
    checksums hold bit for bit."""

    def test_short_runs_add_in_order(self):
        values = [0.1 * i for i in range(7)]
        assert pairwise_sum(values) == sum(values)

    def test_eight_running_sums_then_the_remainder(self):
        values = [0.1 * i for i in range(19)]
        r = [values[j] + values[j + 8] for j in range(8)]
        tree = (((r[0] + r[1]) + (r[2] + r[3]))
                + ((r[4] + r[5]) + (r[6] + r[7])))
        rest = values[16:]
        assert pairwise_sum(values) == tree + rest[0] + rest[1] + rest[2]

    def test_long_runs_split_at_a_multiple_of_eight(self):
        values = [1.0 / (i + 1) for i in range(300)]  # 150 rounds down to 144
        assert pairwise_sum(values) == (pairwise_sum(values[:144])
                                        + pairwise_sum(values[144:]))
        assert pairwise_sum(values) != sum(values)


class TestHicampKernels:
    def test_qts_and_nzd_agree_with_csr(self):
        spec = fem_2d(8, "t", seed=4)
        qts = hicamp_spmv_traffic(spec, fmt="qts")
        nzd = hicamp_spmv_traffic(spec, fmt="nzd")
        conv = csr_result(spec)
        assert qts.y_checksum == pytest.approx(conv.y_checksum)
        assert nzd.y_checksum == pytest.approx(conv.y_checksum)

    def test_comparison_picks_best_format(self):
        patterned = patterned_block(128, "p", seed=0)
        fmt, _ = best_hicamp_footprint(patterned)
        assert fmt == "qts"  # repeated values: value tree collapses
        unique_vals = lp_block(128, 96, "l", seed=0)
        fmt2, _ = best_hicamp_footprint(unique_vals)
        assert fmt2 == "nzd"  # unique values, repeated pattern

    def test_self_similar_matrix_wins_big(self):
        spec = patterned_block(128, "p", seed=1)
        hicamp, conv = spmv_comparison(spec)
        assert hicamp.footprint_bytes < conv.footprint_bytes / 4
        assert hicamp.dram_accesses < conv.dram_accesses

    def test_traffic_measured_after_build(self):
        spec = fem_2d(8, "t", seed=5)
        res = hicamp_spmv_traffic(spec, fmt="qts")
        assert res.dram_accesses > 0

    def test_mismatch_detection(self, monkeypatch):
        # the harness cross-checks numerics between representations
        spec = fem_2d(4, "t", seed=6)
        import repro.apps.spmv.kernels as kernels

        real = kernels.csr_result

        def broken(spec, line_bytes=32):
            res = real(spec, line_bytes)
            res.y_checksum += 1.0
            return res

        monkeypatch.setattr(kernels, "csr_result", broken)
        with pytest.raises(AssertionError):
            kernels.spmv_comparison(spec)


@pytest.fixture
def builds(monkeypatch):
    """A cold format memo, and every ``from_coo`` recorded by format."""
    monkeypatch.setattr(kernels, "_BEST_FORMAT", {})
    built = []
    for fmt, matrix_type in (("qts", QuadTreeMatrix), ("nzd", NzdMatrix)):
        real = matrix_type.from_coo

        def counting(machine, n, m, entries, _real=real, _fmt=fmt):
            built.append(_fmt)
            return _real(machine, n, m, entries)

        monkeypatch.setattr(matrix_type, "from_coo", staticmethod(counting))
    return built


class TestBuiltOnce:
    """Builds are counted, not timed."""

    def test_comparison_builds_each_format_once(self, builds):
        spec = lp_block(128, 96, "l", seed=0)
        hicamp, _ = spmv_comparison(spec)
        assert sorted(builds) == ["nzd", "qts"]
        # ... and the footprint question is then already answered
        assert best_hicamp_footprint(spec) == ("nzd", hicamp.footprint_bytes)
        assert len(builds) == 2

    def test_comparison_after_footprint_builds_the_winner(self, builds):
        spec = patterned_block(128, "p", seed=0)
        fmt, footprint = best_hicamp_footprint(spec)
        assert sorted(builds) == ["nzd", "qts"]
        hicamp, _ = spmv_comparison(spec)
        assert builds[2:] == [fmt]
        assert (hicamp.fmt, hicamp.footprint_bytes) == (fmt, footprint)

    def test_answer_is_per_content_not_per_name(self, builds):
        fem = fem_2d(8, "same-name")
        lp = lp_block(128, 96, "same-name")
        assert fem.entries != lp.entries
        first = best_hicamp_footprint(fem)
        second = best_hicamp_footprint(lp)
        assert len(builds) == 4
        assert first != second
        # same name, shape and entries: one answer, at each line size
        assert best_hicamp_footprint(fem_2d(8, "same-name")) == first
        assert len(builds) == 4
        best_hicamp_footprint(fem, line_bytes=16)
        assert len(builds) == 6

    @pytest.mark.parametrize("spec, expected", [
        # recorded at the commit before the matrix was built once
        (fem_2d(8, "fem"), ("nzd", 1408, 134, 56.06844849999999)),
        (lp_block(128, 96, "lp"), ("nzd", 8224, 385, -55.75845000000001)),
        (patterned_block(128, "pattern"), ("qts", 2400, 221, -283.495)),
    ], ids=lambda value: getattr(value, "name", None))
    def test_results_unchanged(self, builds, spec, expected):
        for _ in range(2):  # cold memo, then remembered format
            hicamp, _ = spmv_comparison(spec)
            assert (hicamp.fmt, hicamp.footprint_bytes, hicamp.dram_accesses,
                    hicamp.y_checksum) == expected
        assert hicamp == hicamp_spmv_traffic(spec, fmt=expected[0])


@pytest.mark.parametrize("runner", [run_figure7, run_table2_figure8])
def test_runner_passes_its_scale_to_the_suite(monkeypatch, builds, runner):
    seen = []

    def tiny_suite(scale=1, seed=0):
        seen.append(scale)
        return [fem_2d(4, "f"), lp_block(32, 24, "l")]

    monkeypatch.setattr(matrices, "matrix_suite", tiny_suite)
    runner(scale=3)
    assert seen == [3]
