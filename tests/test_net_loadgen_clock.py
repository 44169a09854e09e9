"""Loadgen clock injection (RTT measurement without wall time), and
the seeded request stream pinned under it."""

import asyncio
import hashlib

import pytest

from repro.cli.main import main
from repro.net.loadgen import LoadgenClient, run_loadgen
from repro.net.server import MemcachedServer
from repro.obs.trace import StepClock


def test_loadgen_client_uses_injected_clock():
    async def scenario():
        async with MemcachedServer(port=0, shard_count=1) as server:
            client = LoadgenClient(
                0, "127.0.0.1", server.port, ops=8, pipeline_depth=4,
                get_ratio=0.5, key_space=4, value_bytes=16, seed=2,
                clock=StepClock(step=0.25))
            return await client.run()

    report = asyncio.run(scenario())
    assert report.consistent
    # two batches of four ops, each RTT exactly one 250ms step (a
    # binary-exact step keeps the arithmetic bit-for-bit)
    assert report.batch_rtts_ms == [250.0, 250.0]


def test_run_loadgen_wall_seconds_from_injected_clock():
    async def scenario():
        async with MemcachedServer(port=0, shard_count=1) as server:
            return await run_loadgen(
                "127.0.0.1", server.port, clients=2, ops_per_client=8,
                pipeline_depth=4, seed=3, clock=StepClock(step=0.5))

    report = asyncio.run(scenario())
    assert report.consistent
    # the fleet clock ticks once at start and once at the end; each
    # client RTT reading advances it twice more -> deterministic wall
    ticks = 2 + 2 * len(report.batch_rtts_ms)
    assert report.wall_seconds == 0.5 * (ticks - 1)
    assert report.ops_per_second == report.ops / report.wall_seconds


def test_default_clock_still_measures_real_time():
    async def scenario():
        async with MemcachedServer(port=0, shard_count=1) as server:
            return await run_loadgen("127.0.0.1", server.port, clients=1,
                                     ops_per_client=4, seed=4)

    report = asyncio.run(scenario())
    assert report.consistent
    assert report.wall_seconds > 0


class _Tap:
    """A StreamWriter stand-in that hashes every byte written through it."""

    def __init__(self, writer, digest):
        self._writer, self._digest = writer, digest

    def write(self, data):
        self._digest.update(data)
        self._writer.write(data)

    def __getattr__(self, name):
        return getattr(self._writer, name)


def test_seeded_single_client_stream_is_pinned(monkeypatch):
    """The request bytes and counters of one seeded run, as literals
    recorded at d3eef82: a change that perturbs the RNG draw order of
    ``_plan_batch`` silently changes what
    ``benchmarks/test_bench_obs_overhead.py`` measures unless this fails."""
    digest = hashlib.blake2b(digest_size=16)
    open_connection = asyncio.open_connection

    async def tapped(*args, **kwargs):
        reader, writer = await open_connection(*args, **kwargs)
        return reader, _Tap(writer, digest)

    monkeypatch.setattr(asyncio, "open_connection", tapped)

    async def scenario():
        async with MemcachedServer(port=0, shard_count=2) as server:
            return await run_loadgen(
                "127.0.0.1", server.port, clients=1, ops_per_client=96,
                pipeline_depth=8, get_ratio=0.5, key_space=8,
                value_bytes=24, seed=7, clock=StepClock(step=0.5))

    report = asyncio.run(scenario())
    assert digest.hexdigest() == "2d443090a69a080b42647e4739b6459b"
    assert report.as_dict() == {
        "clients": 1, "ops": 96, "wall_seconds": 12.5,
        "ops_per_second": 7.7, "stored": 25, "get_hits": 46,
        "get_misses": 9, "cas_stored": 16, "cas_conflicts": 0,
        "errors": 0, "oracle_checked": 24, "oracle_mismatches": 0,
        "shared_checked": 8, "shared_mismatches": 0,
        "batch_rtt": {"p50_ms": 500.0, "p90_ms": 500.0, "p99_ms": 500.0,
                      "max_ms": 500.0}}


@pytest.mark.parametrize("retired", [["--phases", "x"],
                                     ["--read-endpoint", "h:1"]])
def test_retired_loadgen_flags_are_rejected(retired, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["loadgen"] + retired)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
