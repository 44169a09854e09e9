#!/usr/bin/env bash
# Regenerate every tracked number, then run the repo's one benchmark.
#
# The paper benches rewrite the figure and table files under
# benchmarks/out/, which CI requires to come out unchanged. The ledger
# runs the four workloads of BENCHMARK.json and the traced pass into
# benchmarks/ledger/out/latest.json (ignored: it is host-dependent).
# Nothing here leaves the worktree dirty.
#
#   ./scripts/reproduce_all.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> paper benches (figures, tables, ablations)"
(cd benchmarks && PYTHONPATH=../src python -m pytest -x -q \
    test_bench_ablation_compaction.py \
    test_bench_concurrency.py \
    test_bench_memcached_compaction.py \
    test_bench_memcached_traffic.py \
    test_bench_microops.py \
    test_bench_replication.py \
    test_bench_sequential_access.py \
    test_bench_spmv_footprint.py \
    test_bench_spmv_traffic.py \
    test_bench_vmhost.py)

echo "==> the ledger (end to end, then layer by layer)"
python3 benchmarks/ledger/run.py
