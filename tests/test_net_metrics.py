"""Deterministic ServerMetrics via an injected monotonic clock."""

import asyncio
import gc
import json

from repro.net.metrics import ServerMetrics
from repro.obs.registry import parse_exposition, sample
from repro.net.router import ShardRouter
from repro.net.server import MemcachedServer


class FakeClock:
    """A hand-cranked monotonic clock."""

    def __init__(self, start: float = 100.0) -> None:
        self.t = start

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestInjectedClock:
    def test_uptime_and_rate_are_exact(self):
        clock = FakeClock()
        metrics = ServerMetrics(clock=clock)
        clock.advance(10.0)
        assert metrics.uptime_seconds == 10.0
        for _ in range(50):
            metrics.observe_request(b"get", 0.001, 8)
        assert metrics.ops_per_second == 5.0

    def test_now_is_the_injected_source(self):
        clock = FakeClock(start=7.0)
        metrics = ServerMetrics(clock=clock)
        assert metrics.now() == 7.0
        clock.advance(1.5)
        assert metrics.now() == 8.5

    def test_latency_percentiles_are_deterministic(self):
        clock = FakeClock()
        metrics = ServerMetrics(clock=clock)
        for ms in (1, 2, 3, 4, 100):
            started = metrics.now()
            clock.advance(ms / 1000.0)
            metrics.observe_request(b"get", metrics.now() - started, 8)
        latency = metrics.snapshot()["latency"]
        # exact percentile values, reproducible on every run
        a = metrics.snapshot()["latency"]
        assert a == latency
        assert latency["p50_ms"] <= latency["p99_ms"]
        assert latency["max_ms"] >= 99.9

    def test_default_clock_is_wall_time(self):
        # without injection the metrics still work off time.monotonic
        metrics = ServerMetrics()
        assert metrics.uptime_seconds > 0

    def test_two_runs_same_clock_script_same_snapshot(self):
        def run():
            clock = FakeClock()
            metrics = ServerMetrics(clock=clock)
            for i in range(20):
                started = metrics.now()
                clock.advance((i % 5 + 1) / 1000.0)
                metrics.observe_request(b"set", metrics.now() - started,
                                        16)
            clock.advance(1.0)
            return metrics.snapshot()

        assert run() == run()


class TestServerTimesThroughMetrics:
    def test_request_latencies_come_from_injected_clock(self):
        """End to end: with a frozen injected clock, every recorded
        request latency is exactly zero — the server timestamps through
        ``metrics.now()``, not wall time."""

        async def go():
            metrics = ServerMetrics(clock=FakeClock())
            router = ShardRouter(shard_count=2, metrics=metrics)
            server = MemcachedServer(port=0, router=router)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(b"set k 0 0 5\r\nhello\r\nget k\r\n")
            await writer.drain()
            out = b""
            while b"END\r\n" not in out:
                out += await reader.read(1 << 16)
            writer.write(b"quit\r\n")
            await writer.drain()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            await server.shutdown()
            return metrics, out

        metrics, out = asyncio.run(go())
        assert out.startswith(b"STORED\r\n")
        assert metrics.ops_total >= 2
        assert metrics.latency_ms() == [0.0] * metrics.ops_total


class TestPerSegmentCommitCounters:
    def test_observe_commit_accumulates_by_vsid(self):
        metrics = ServerMetrics(clock=FakeClock())
        for vsid in (3, 3, 7):
            metrics.observe_commit(vsid)
        assert metrics.commits_by_vsid == {3: 2, 7: 1}
        snap = metrics.snapshot()
        # JSON-safe: keys are strings in the snapshot
        assert snap["commits_by_vsid"] == {"3": 2, "7": 1}
        # the human `stats` listing stays flat — the per-segment map is
        # only in the structured snapshot
        assert not any(b"commits_by_vsid" in line
                       for line in metrics.stats_lines())

    def test_router_attributes_commits_to_the_shard_segment(self):
        async def go():
            metrics = ServerMetrics(clock=FakeClock())
            router = ShardRouter(shard_count=2, metrics=metrics)
            server = MemcachedServer(port=0, router=router)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            for i in range(8):
                writer.write(b"set key-%d 0 0 2\r\nhi\r\n" % i)
            await writer.drain()
            out = b""
            while out.count(b"STORED\r\n") < 8:
                out += await reader.read(1 << 16)
            await router.drain()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            await server.shutdown()
            return metrics, router

        metrics, router = asyncio.run(go())
        assert sum(metrics.commits_by_vsid.values()) == 8
        # every counted vsid is a real shard segment
        shard_vsids = {s.kvp.vsid for s in router.servers}
        assert set(metrics.commits_by_vsid) <= shard_vsids


class TestCollectorPauses:
    def test_a_forced_collection_is_counted_and_shutdown_unhooks(self):
        """The server times the cyclic collector through one
        ``gc.callbacks`` hook: a ``gc.collect()`` between two ``stats``
        requests adds one generation-2 collection (automatic collections
        are off, so no other lands in between), ``stats prom`` says the
        same, and shutdown takes the hook out."""

        async def stats(reader, writer, verb):
            writer.write(b"stats %s\r\n" % verb)
            await writer.drain()
            out = b""
            while not out.endswith(b"END\r\n"):
                out += await reader.read(1 << 16)
            return out[:-len(b"END\r\n")]

        async def go():
            router = ShardRouter(shard_count=2)
            server = MemcachedServer(port=0, router=router)
            await server.start()
            hooked = gc.callbacks.count(router.collector)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            before = json.loads(await stats(reader, writer, b"json"))
            gc.collect()
            after = json.loads(await stats(reader, writer, b"json"))
            prom = parse_exposition(
                (await stats(reader, writer, b"prom")).decode())
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            await server.shutdown()
            return router, hooked, before["collector"], \
                after["collector"], prom

        enabled = gc.isenabled()
        gc.disable()
        try:
            router, hooked, before, after, prom = asyncio.run(go())
        finally:
            if enabled:
                gc.enable()
        assert hooked == 1
        assert after["collections"]["2"] == before["collections"]["2"] + 1
        assert after["collections"]["0"] == before["collections"]["0"]
        assert after["pause_us"]["2"] >= before["pause_us"]["2"]
        assert after["max_pause_us"] >= before["max_pause_us"]
        assert sample(prom, "repro_gc_collections_total",
                      generation=2) == after["collections"]["2"]
        assert sample(prom, "repro_gc_pause_us_total",
                      generation=2) == after["pause_us"]["2"]
        assert sample(prom, "repro_gc_max_pause_us") == after["max_pause_us"]
        assert router.collector not in gc.callbacks
