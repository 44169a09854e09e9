"""Serving layer — the memcached on a real socket, end to end.

Not a paper table: this bench closes the loop on §5.1.1 by measuring
the whole serving stack (asyncio TCP front end, streaming frame decoder,
shard router, per-shard commit queues with batched merge-commits) under
a pipelined multi-client load, and reports the counters the paper's
argument predicts: merge-commits absorbing lost CAS races with zero
application retries. ``run_serving`` asks for ``commit_mode="merge"``
explicitly — the router's default lands a run as one group commit and
has no lost CAS to absorb.
"""

from conftest import emit

from repro.analysis.experiments import run_serving


def test_serving_loadgen(benchmark, report_dir, scale):
    result = benchmark.pedantic(run_serving, args=(scale,),
                                rounds=1, iterations=1)
    emit(report_dir, "serving", result.text)
    assert result.data["ops"] > 0
    assert result.data["ops_per_second"] > 0
    # pipelining really happened end to end
    assert result.data["pipelined_requests"] > 0
    # lost CAS races were absorbed by merge-update, not client retries
    assert result.data["merge_commits"] > 0
    # and the observable values stayed oracle-consistent throughout
    assert result.data["oracle_mismatches"] == 0
    assert result.data["pending_at_shutdown"] == 0
