#!/usr/bin/env bash
# Reproduce every benchmark and merge the results into one trajectory.
#
# Runs each `repro bench` target in sequence, then `repro bench
# aggregate`, which sweeps every BENCH_*.json and benchmarks/out/*.json
# into benchmarks/out/trajectory.json — the single document to diff
# across commits. Then the paper benches (they rewrite the figure and
# table files under benchmarks/out/, which CI requires to come out
# unchanged) and, last, the ledger: the four workloads of BENCHMARK.json and the traced pass, into
# benchmarks/ledger/out/latest.json.
#
# Smoke tier by default (minutes); FULL=1 runs the full geometries.
#
#   ./scripts/reproduce_all.sh
#   FULL=1 ./scripts/reproduce_all.sh

set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src

SMOKE_FLAG="--smoke"
if [ "${FULL:-0}" = "1" ]; then
    SMOKE_FLAG=""
fi

run() {
    echo "==> repro bench $*"
    python -m repro.cli bench "$@"
}

run hotpath --out benchmarks/out/hotpath.json
run cluster ${SMOKE_FLAG}
run scale ${SMOKE_FLAG}
run reclaim ${SMOKE_FLAG}

echo "==> repro bench aggregate"
python -m repro.cli bench aggregate

echo "trajectory written to benchmarks/out/trajectory.json"

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
