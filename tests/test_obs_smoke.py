"""Smoke test: live server + loadgen, then cross-check the registry's
Prometheus exposition against the legacy ``stats json`` snapshot.

``stats prom\\r\\nstats json\\r\\n`` is pipelined in one write, so both
documents are computed in the same dispatch window and must agree on
every stable counter — the registry really is a view over the same live
silos, not a parallel set of books.
"""

import asyncio
import json

from repro.net.loadgen import run_loadgen
from repro.net.server import MemcachedServer
from repro.obs import adapters
from repro.obs.registry import parse_exposition, sample

CRLF = b"\r\n"

#: stats-json key -> (exposition metric name, labels); only counters
#: that cannot move between the two stats computations are compared —
#: uptime/ops-per-second read the clock and are checked for presence only.
STABLE_KEYS = {
    "ops_total": "repro_server_ops_total",
    "bytes_in": "repro_server_bytes_in",
    "frames_decoded": "repro_server_frames_decoded",
    "pipelined_requests": "repro_server_pipelined_requests",
    "max_pipeline_depth": "repro_server_max_pipeline_depth",
    "protocol_errors": "repro_server_protocol_errors",
    "server_errors": "repro_server_server_errors",
    "commit_batches": "repro_server_commit_batches",
    "queue_high_watermark": "repro_server_queue_high_watermark",
    "shards": "repro_server_shards",
    "pending_commits": "repro_server_pending_commits",
    "footprint_bytes": "repro_machine_footprint_bytes",
}


async def _scrape_both(port: int):
    """One pipelined request for both stats documents."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b"stats prom\r\nstats json\r\n")
    await writer.drain()
    buf = b""
    while buf.count(b"END" + CRLF) < 2:
        chunk = await reader.read(1 << 16)
        if not chunk:
            break
        buf += chunk
    writer.write(b"quit\r\n")
    writer.close()
    try:
        await writer.wait_closed()
    except Exception:
        pass
    prom_raw, rest = buf.split(b"END" + CRLF, 1)
    json_raw = rest.split(b"END" + CRLF, 1)[0]
    return prom_raw.decode(), json.loads(json_raw)


def test_exposition_agrees_with_stats_json_under_load():
    async def scenario():
        async with MemcachedServer(port=0, shard_count=2) as server:
            report = await run_loadgen(
                "127.0.0.1", server.port, clients=3, ops_per_client=40,
                pipeline_depth=6, seed=5)
            assert report.consistent and report.errors == 0
            return await _scrape_both(server.port)

    prom_text, snap = asyncio.run(scenario())
    parsed = parse_exposition(prom_text)

    # the exposition parses and both documents agree on every stable key
    for key, metric in STABLE_KEYS.items():
        assert sample(parsed, metric) == snap[key], key

    # labeled series line up with the json breakdowns
    for command, count in snap["ops_by_command"].items():
        assert sample(parsed, "repro_server_ops_by_command",
                      command=command) == count
    for vsid, count in snap["commits_by_vsid"].items():
        assert sample(parsed, "repro_server_commits_by_vsid",
                      vsid=vsid) == count
    for category, count in snap["server"].items():
        if category == "curr_items":
            assert sample(parsed, "repro_cache_curr_items") == count
        else:
            assert sample(parsed, "repro_cache_ops_total",
                          op=category) == count
    for quantile, value in snap["latency"].items():
        assert sample(parsed, "repro_server_latency_ms",
                      quantile=quantile) == value

    # DRAM categories are present (Figure 6's counters, live)
    assert sample(parsed, adapters.DRAM_METRIC, category="lookups") > 0

    # clock-derived values exist in both but are not compared
    assert ("repro_server_uptime_seconds", ()) in parsed
    assert "uptime_seconds" in snap


def test_legacy_stats_json_keys_unchanged():
    """The pre-registry ``stats json`` schema, frozen: existing
    dashboards keep working."""

    async def scenario():
        async with MemcachedServer(port=0, shard_count=2) as server:
            await run_loadgen("127.0.0.1", server.port, clients=1,
                              ops_per_client=10, seed=1)
            _, snap = await _scrape_both(server.port)
            expected = server.router.snapshot()
            return snap, expected

    snap, expected = asyncio.run(scenario())
    assert set(snap) == set(expected)
    assert set(snap["latency"]) == {"p50_ms", "p90_ms", "p99_ms", "max_ms"}
    for key in ("shards", "pending_commits", "footprint_bytes", "server"):
        assert key in snap
