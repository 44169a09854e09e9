"""End-to-end tests: the asyncio server on a real TCP socket.

The acceptance test drives a live server with four concurrent pipelined
loadgen clients and checks the three ISSUE criteria: oracle-consistent
committed values, nonzero pipelined-request and merge-commit counters,
and a graceful shutdown with no pending commits.
"""

import asyncio
import json

from repro.net.loadgen import (
    LoadgenClient,
    read_line_response,
    run_loadgen,
)
from repro.net.server import MemcachedServer
from repro.obs.trace import StepClock, TraceRecorder


async def request(port, payload, terminators=(b"END\r\n",), lines=None):
    """One raw TCP exchange; reads until a terminator (or N lines)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    if lines is not None:
        out = b"".join([await reader.readline() for _ in range(lines)])
    else:
        out = b""
        while not any(out.endswith(t) for t in terminators):
            chunk = await reader.read(1 << 16)
            if not chunk:
                break
            out += chunk
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass
    return out


class TestServerEndToEnd:
    def test_acceptance_concurrent_pipelined_loadgen(self):
        """The ISSUE acceptance test, over real TCP."""

        async def go():
            async with MemcachedServer(port=0, shard_count=4) as server:
                report = await run_loadgen(
                    "127.0.0.1", server.port, clients=4, ops_per_client=60,
                    pipeline_depth=8, get_ratio=0.5, seed=1)
                body = await request(server.port, b"stats json\r\n")
                snapshot = json.loads(body.split(b"\r\n")[0])
                return server, report, snapshot

        server, report, snapshot = asyncio.run(go())
        # (1) every committed value consistent with the sequential oracle
        assert report.errors == 0
        assert report.oracle_checked > 0 and report.oracle_mismatches == 0
        assert report.shared_checked > 0 and report.shared_mismatches == 0
        assert report.consistent
        # (2) stats show pipelining and batched commits happened
        assert snapshot["pipelined_requests"] > 0
        assert 0 < snapshot["commit_batches"] \
            < sum(snapshot["commits_by_vsid"].values())
        assert snapshot["ops_total"] >= 4 * 60
        # (3) graceful shutdown flushed every pending commit
        assert server.metrics.pending_at_shutdown == 0
        assert server.router.pending_commits() == 0

    def test_pipelined_burst_group_commits_by_default(self):
        """A burst to one shard is one group commit."""

        async def go():
            rec = TraceRecorder(clock=StepClock())
            async with MemcachedServer(port=0, shard_count=1,
                                       recorder=rec) as server:
                segmap = server.router.machine.segmap
                attempts = segmap.cas_attempts
                burst = b"".join(b"set key%d 0 0 2\r\nv%d\r\n" % (i, i)
                                 for i in range(8))
                out = await request(server.port, burst, lines=8)
                body = await request(server.port, b"stats json\r\n")
                snapshot = json.loads(body.split(b"\r\n")[0])
                return (out, snapshot, rec,
                        segmap.cas_attempts - attempts)

        out, snapshot, rec, cas_attempts = asyncio.run(go())
        assert out == b"STORED\r\n" * 8
        assert snapshot["server"]["sets"] == 8
        assert cas_attempts == 1
        (batch,) = rec.find("commit_batch")
        assert [c.name for c in rec.children(batch.span_id)] \
            == ["bulk_commit"]

    def test_set_get_over_socket(self):
        async def go():
            async with MemcachedServer(port=0, shard_count=2) as server:
                out = await request(
                    server.port,
                    b"set hello 0 0 5\r\nworld\r\nget hello\r\n")
                return out

        out = asyncio.run(go())
        assert out.startswith(b"STORED\r\n")
        assert b"VALUE hello 0 5\r\nworld\r\n" in out

    def test_stats_command_over_socket(self):
        async def go():
            async with MemcachedServer(port=0, shard_count=3) as server:
                return await request(
                    server.port, b"set k 0 0 1\r\nv\r\nstats\r\n")

        out = asyncio.run(go())
        assert b"STAT shards 3" in out
        assert b"STAT curr_items 1" in out
        assert b"STAT commit_batches" in out
        assert out.endswith(b"END\r\n")

    def test_malformed_frame_connection_survives(self):
        async def go():
            async with MemcachedServer(port=0, shard_count=1) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(b"set k 0 0 banana\r\n")
                await writer.drain()
                first = await reader.readline()
                # same connection keeps working after the error
                writer.write(b"set k 0 0 2\r\nok\r\nget k\r\n")
                await writer.drain()
                second = await read_line_response(reader)
                value = b""
                while not value.endswith(b"END\r\n"):
                    value += await reader.readline()
                writer.close()
                await writer.wait_closed()
                return first, second, value

        first, second, value = asyncio.run(go())
        assert first.startswith(b"CLIENT_ERROR")
        assert second == b"STORED\r\n"
        assert b"ok" in value

    def test_read_timeout_drops_idle_connection(self):
        async def go():
            async with MemcachedServer(port=0, shard_count=1,
                                       read_timeout=0.05) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                # idle past the timeout: server must close on us
                eof = await asyncio.wait_for(reader.read(), timeout=2.0)
                writer.close()
                await writer.wait_closed()
                return eof, server.metrics.read_timeouts

        eof, timeouts = asyncio.run(go())
        assert eof == b""
        assert timeouts == 1

    def test_quit_closes_connection(self):
        async def go():
            async with MemcachedServer(port=0, shard_count=1) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(b"set k 0 0 1\r\nx\r\nquit\r\n")
                await writer.drain()
                out = await asyncio.wait_for(reader.read(), timeout=2.0)
                writer.close()
                await writer.wait_closed()
                return out

        out = asyncio.run(go())
        # the pipelined set is answered before the close
        assert out == b"STORED\r\n"

    def test_shutdown_commits_enqueued_writes(self):
        """Writes accepted before shutdown land even if the client never
        reads the responses."""

        async def go():
            server = MemcachedServer(port=0, shard_count=2)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            raw = b"".join(b"set k%d 0 0 2\r\nv%d\r\n" % (i, i)
                           for i in range(10))
            writer.write(raw + b"quit\r\n")
            await writer.drain()
            await asyncio.wait_for(reader.read(), timeout=2.0)
            await server.shutdown()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            return server

        server = asyncio.run(go())
        assert server.metrics.pending_at_shutdown == 0
        assert sum(s.item_count() for s in server.router.servers) == 10

    def test_single_client_pipelined_cas_flow(self):
        async def go():
            async with MemcachedServer(port=0, shard_count=2) as server:
                client = LoadgenClient(
                    0, "127.0.0.1", server.port, ops=40,
                    pipeline_depth=6, get_ratio=0.4, key_space=8,
                    value_bytes=16, seed=9)
                report = await client.run()
                return report

        report = asyncio.run(go())
        assert report.ops >= 40
        assert report.errors == 0
        assert report.oracle_mismatches == 0
