"""Observability overhead: tracing must be (near) free when off.

Runs the same seeded recording-client workload (:mod:`repro.testing.fuzz`)
against an in-process server, alternating the no-op recorder (the
default) with a live :class:`TraceRecorder` so drift hits both, and
reports the ops/s ratio. Only the clients' ``gather`` is timed; their
history is checked for linearizability outside that window. The acceptance bar: a live recorder costs at most a modest
fraction of throughput, and the no-op recorder is indistinguishable
from the pre-observability server (it is the pre-observability server:
every hot path guards on ``recorder.enabled``).
"""

import asyncio
import json
import time

from conftest import emit

from repro.analysis.reporting import format_table
from repro.net.server import MemcachedServer
from repro.obs.trace import TraceRecorder
from repro.testing.fuzz import EpisodeConfig, RecordingClient, build_script
from repro.testing.history import HistoryRecorder, check_history


async def _run_once(recorder, scale: int) -> dict:
    cfg = EpisodeConfig(clients=4, ops_per_client=300 * scale,
                        pipeline_depth=8)
    history = HistoryRecorder()
    clients = [RecordingClient(cid, build_script(9, cid, cfg), history)
               for cid in range(cfg.clients)]
    server = MemcachedServer(port=0, shard_count=4, recorder=recorder)
    await server.start()
    try:
        for client in clients:
            await client.connect(server.port)
        started = time.perf_counter()
        await asyncio.gather(*(client.run() for client in clients))
        wall = time.perf_counter() - started
    finally:
        await server.shutdown()
    assert [c.protocol_errors for c in clients] == [[]] * cfg.clients
    assert check_history(history.operations()).ok
    spans = len(recorder.spans) if recorder is not None else 0
    ops = len(history.ops)
    return {"ops_per_second": ops / wall, "ops": ops, "spans": spans}


def _measure(scale: int) -> dict:
    """Interleave disabled/enabled runs so drift hits both equally."""
    disabled, enabled = [], []
    spans = 0
    for _ in range(3):
        disabled.append(
            asyncio.run(_run_once(None, scale))["ops_per_second"])
        on = asyncio.run(_run_once(TraceRecorder(), scale))
        enabled.append(on["ops_per_second"])
        spans = on["spans"]
    return {
        "disabled_ops_per_second": round(max(disabled), 1),
        "enabled_ops_per_second": round(max(enabled), 1),
        "overhead_ratio": round(max(enabled) / max(disabled), 4),
        "spans_per_run": spans,
    }


def test_obs_overhead(benchmark, report_dir, scale):
    data = benchmark.pedantic(_measure, args=(scale,),
                              rounds=1, iterations=1)
    text = format_table(
        ["metric", "value"],
        [["ops/s, recorder disabled", data["disabled_ops_per_second"]],
         ["ops/s, recorder enabled", data["enabled_ops_per_second"]],
         ["enabled/disabled ratio", data["overhead_ratio"]],
         ["spans recorded per run", data["spans_per_run"]]],
        title="tracing overhead (recorded clients against an in-process "
              "server)")
    emit(report_dir, "obs_overhead", text)
    (report_dir / "obs_overhead.json").write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n")

    assert data["spans_per_run"] > 0
    # the bar from the issue is a <=10% regression with recording on;
    # assert loosely (2x) so a noisy shared CI box cannot flake this —
    # the recorded ratio in benchmarks/out/ is the real deliverable
    assert data["overhead_ratio"] > 0.5
