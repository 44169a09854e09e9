"""End-to-end replication over real sockets: leader, follower, serving.

Each test stands up the full stack — a sharded memcached server, a
replication leader tailing its router, a follower replicating into its
own machine, and (where relevant) the follower's serving front — on
ephemeral localhost ports, then checks the PR's convergence property via
machine-independent segment fingerprints.
"""

import asyncio

from repro.core.persistence import load_machine_file, save_machine_file
from repro.net.server import MemcachedServer
from repro.params import MemoryConfig
from repro.replication import (
    FollowerRouter,
    ReplicationFollower,
    ReplicationLeader,
)
from repro.replication import wire
from repro.segments import dag
from repro.testing.auditors import audit_machine

CRLF = b"\r\n"


async def request(port, payload):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    await asyncio.sleep(0.05)
    data = await reader.read(1 << 16)
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass
    return data


def leader_fingerprints(leader):
    return {s: dag.segment_fingerprint(leader.machine, v)
            for s, v in leader.streams().items()}


async def wait_converged(leader, follower, timeout=10.0):
    loop = asyncio.get_event_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        fps = leader_fingerprints(leader)
        if fps and fps == follower.fingerprints():
            return True
        await asyncio.sleep(0.02)
    return False


class ReplicatedStack:
    """Leader serving stack + one follower, torn down cleanly."""

    def __init__(self, shards=2, lag_window=256, with_front=False,
                 follower_kwargs=None):
        self.shards = shards
        self.lag_window = lag_window
        self.with_front = with_front
        self.follower_kwargs = follower_kwargs or {}
        self.front = None

    async def __aenter__(self):
        self.server = MemcachedServer(port=0, shard_count=self.shards)
        await self.server.start()
        self.leader = ReplicationLeader(
            self.server.router, lag_window=self.lag_window,
            heartbeat_interval=None)
        await self.leader.start()
        self.follower = ReplicationFollower(
            "127.0.0.1", self.leader.port, reconnect_delay=0.01,
            **self.follower_kwargs)
        await self.follower.start()
        if self.with_front:
            self.front = MemcachedServer(router=FollowerRouter(
                self.follower, "127.0.0.1", self.server.port))
            await self.front.start()
        return self

    async def __aexit__(self, *exc):
        if self.front is not None:
            await self.front.shutdown()
        await self.follower.stop()
        await self.leader.stop()
        await self.server.shutdown()

    async def put(self, key, value):
        resp = await request(self.server.port, b"set %s 0 0 %d\r\n%s\r\n"
                             % (key, len(value), value))
        assert resp == b"STORED" + CRLF, resp

    async def fill(self, count, salt=b""):
        for i in range(count):
            await self.put(b"key-%s%d" % (salt, i), b"value-%d" % (i % 5))
        await self.server.router.drain()


class TestConvergence:
    def test_initial_sync_and_incremental_deltas(self):
        async def go():
            async with ReplicatedStack() as stack:
                assert await wait_converged(stack.leader, stack.follower), \
                    "empty-state sync"
                await stack.fill(30)
                assert await wait_converged(stack.leader, stack.follower), \
                    "incremental deltas"
                # a second wave ships only new structure
                shipped = stack.leader.metrics.lines_shipped
                await stack.fill(30)  # identical writes: pure dedup
                assert await wait_converged(stack.leader, stack.follower)
                return stack, shipped

        stack, shipped_once = asyncio.run(go())
        assert stack.leader.metrics.lines_shipped >= shipped_once > 0
        assert stack.follower.metrics.root_advances > 0
        assert stack.follower.metrics.acks > 0

    def test_follower_machine_audits_clean_after_disconnect(self):
        async def go():
            async with ReplicatedStack() as stack:
                await stack.fill(25)
                assert await wait_converged(stack.leader, stack.follower)
            # context exit stopped everything and released the pins
            return stack.follower.machine

        machine = asyncio.run(go())
        # a fresh follower builds its own machine and holds its store
        assert machine.config.memory == MemoryConfig()
        assert machine.mem.store.reclaimer.holds == 1
        audit_machine(machine, strict=True).raise_if_failed()

    def test_overwrites_and_deletes_keep_converging(self):
        async def go():
            async with ReplicatedStack() as stack:
                await stack.fill(20)
                await request(stack.server.port, b"delete key-3\r\n")
                for i in range(20):
                    await stack.put(b"key-%d" % i, b"rewritten-%d" % (i % 3))
                await stack.server.router.drain()
                assert await wait_converged(stack.leader, stack.follower)
                return stack

        stack = asyncio.run(go())
        # the overwritten structure was deallocated on the leader, so
        # the follower must have been told to drop those translations
        assert stack.follower.metrics.forgets > 0
        assert stack.follower.metrics.forgets == stack.leader.metrics.forgets

    def test_flush_all_replicates_the_segment_swap(self):
        async def go():
            async with ReplicatedStack() as stack:
                await stack.fill(10)
                assert await wait_converged(stack.leader, stack.follower)
                resp = await request(stack.server.port, b"flush_all\r\n")
                assert resp == b"OK" + CRLF
                await stack.server.router.drain()
                assert await wait_converged(stack.leader, stack.follower), \
                    "follower must follow the backend's new segment"

        asyncio.run(go())

    def test_forced_resync_repairs_and_reconverges(self):
        async def go():
            async with ReplicatedStack() as stack:
                await stack.fill(15)
                assert await wait_converged(stack.leader, stack.follower)
                session = stack.leader._sessions[0]
                session.needs_resync = True
                session.wake.set()
                await stack.fill(5, salt=b"x")
                assert await wait_converged(stack.leader, stack.follower)
                return stack

        stack = asyncio.run(go())
        assert stack.leader.metrics.resets >= 1
        assert stack.follower.metrics.resets >= 1
        # the resync re-ships lines the follower already had: pure dedup
        assert stack.follower.metrics.lines_deduped_on_arrival > 0


class TestFollowerServing:
    def test_local_snapshot_reads_and_write_forwarding(self):
        async def go():
            async with ReplicatedStack(with_front=True) as stack:
                await stack.fill(12)
                assert await wait_converged(stack.leader, stack.follower)
                local = await request(stack.front.port, b"get key-7\r\n")
                assert b"value-2" in local
                # a write lands on the leader and replicates back
                resp = await request(stack.front.port,
                                     b"set fwd 0 0 5\r\nhello\r\n")
                assert resp == b"STORED" + CRLF
                await stack.server.router.drain()
                assert await wait_converged(stack.leader, stack.follower)
                assert b"hello" in await request(stack.front.port,
                                                b"get fwd\r\n")
                # content-identity CAS tokens agree between the replicas
                on_leader = await request(stack.server.port,
                                          b"gets key-4\r\n")
                on_follower = await request(stack.front.port,
                                            b"gets key-4\r\n")
                assert on_leader == on_follower
                stats = await request(stack.front.port, b"stats\r\n")
                assert b"replication_root_advances" in stats
                assert b"VERSION repro-hicamp-follower" in await request(
                    stack.front.port, b"version\r\n")

        asyncio.run(go())

    def test_reads_before_any_sync_miss_cleanly(self):
        async def go():
            follower = ReplicationFollower("127.0.0.1", 1,  # nothing there
                                           reconnect_delay=5.0)
            front = MemcachedServer(
                router=FollowerRouter(follower, "127.0.0.1", 1))
            await front.start()
            try:
                assert await request(front.port, b"get nothing\r\n") == \
                    b"END" + CRLF
                # writes cannot be forwarded: upstream is down
                resp = await request(front.port, b"set k 0 0 1\r\nv\r\n")
                assert resp.startswith(b"SERVER_ERROR")
            finally:
                await front.shutdown()
                await follower.stop()

        asyncio.run(go())

    def test_front_drops_an_idle_client_after_its_read_timeout(self):
        async def go():
            follower = ReplicationFollower("127.0.0.1", 1,
                                           reconnect_delay=5.0)
            router = FollowerRouter(follower, "127.0.0.1", 1)
            front = MemcachedServer(router=router, read_timeout=0.05)
            await front.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", front.port)
                # never sends a byte: the server closes on us
                assert await asyncio.wait_for(reader.read(), 5.0) == b""
                writer.close()
            finally:
                await front.shutdown()
                await follower.stop()
            return router.metrics

        metrics = asyncio.run(go())
        assert metrics.read_timeouts == 1
        assert metrics.connections_closed == 1

    def test_front_counts_connections_and_protocol_errors(self):
        async def go():
            async with ReplicatedStack(with_front=True) as stack:
                resp = await request(stack.front.port,
                                     b"set k 0 0 banana\r\nget k\r\n")
                assert resp.startswith(b"CLIENT_ERROR")
                assert resp.endswith(b"END" + CRLF)  # the next frame served
                assert await request(stack.front.port,
                                     b"version\r\n") == \
                    b"VERSION repro-hicamp-follower/1.0" + CRLF
                return stack.front.router.metrics

        metrics = asyncio.run(go())
        assert metrics.connections_opened == 2
        assert metrics.protocol_errors == 1
        assert metrics.ops_by_command["get"] == 1

    def test_interleaved_forwards_share_one_upstream_link_in_order(self):
        async def go():
            async with ReplicatedStack(with_front=True) as stack:
                await stack.put(b"ca", b"0")
                await stack.put(b"cb", b"100")
                opened = stack.server.metrics.connections_opened
                conns = [await asyncio.open_connection(
                    "127.0.0.1", stack.front.port) for _ in range(2)]
                # alternate the two connections' increments on the wire
                for _ in range(5):
                    for (_, writer), key in zip(conns, (b"ca", b"cb")):
                        writer.write(b"incr %s 1\r\n" % key)
                        await writer.drain()
                replies = [[await asyncio.wait_for(reader.readline(), 5.0)
                            for _ in range(5)]
                           for reader, _ in conns]
                for _, writer in conns:
                    writer.close()
                return replies, \
                    stack.server.metrics.connections_opened - opened

        (on_a, on_b), upstream_links = asyncio.run(go())
        # each connection got its own counter's replies, in its order
        assert on_a == [b"%d\r\n" % n for n in range(1, 6)]
        assert on_b == [b"%d\r\n" % n for n in range(101, 106)]
        assert upstream_links == 1


class TestWarmStart:
    def test_checkpointed_follower_seeds_without_reshipping(self, tmp_path):
        path = str(tmp_path / "follower.json.gz")

        async def first_run():
            async with ReplicatedStack() as stack:
                await stack.fill(25)
                assert await wait_converged(stack.leader, stack.follower)
            save_machine_file(
                stack.follower.machine, path,
                extra={"replication_streams":
                       {str(s): v
                        for s, v in stack.follower.streams.items()}})
            return stack.server, stack.leader

        async def second_run(server):
            leader = ReplicationLeader(server.router,
                                       heartbeat_interval=None)
            await leader.start()
            machine, extra = load_machine_file(path)
            streams = {int(s): v for s, v in
                       extra["replication_streams"].items()}
            follower = ReplicationFollower("127.0.0.1", leader.port,
                                           machine=machine, streams=streams,
                                           reconnect_delay=0.01)
            await follower.start()
            try:
                loop = asyncio.get_event_loop()
                deadline = loop.time() + 10.0
                while len(follower.applied_seq) < len(leader.streams()):
                    assert loop.time() < deadline, "warm handshake timeout"
                    await asyncio.sleep(0.02)
                assert await wait_converged(leader, follower)
            finally:
                await follower.stop()
                await leader.stop()
                await server.shutdown()
            return leader, follower

        async def go():
            server, _ = await first_run()
            return await second_run(server)

        leader2, follower2 = asyncio.run(go())
        # the SEED path paired the PLID spaces without shipping content
        assert leader2.metrics.lines_shipped == 0
        assert leader2.metrics.seed_lines > 0
        assert follower2.metrics.seed_lines == leader2.metrics.seed_lines
        audit_machine(follower2.machine, strict=True).raise_if_failed()


class FrameSink:
    """Captures frames the follower writes in unit-level handler tests."""

    def __init__(self):
        self.data = b""

    def write(self, blob):
        self.data += blob

    def frames(self):
        return wire.LengthPrefixedDecoder().feed(self.data)


class TestNackPath:
    def test_advance_with_unknown_root_nacks(self):
        follower = ReplicationFollower("127.0.0.1", 1)
        follower.streams[0] = follower.machine.create_segment([])
        sink = FrameSink()
        payload = wire.encode_advance_payload(
            0, 7, 1, wire.PlidRef(999_999), 3, 64)
        follower._handle(sink, wire.ROOT_ADVANCE, payload)
        frames = sink.frames()
        assert [f[0] for f in frames] == [wire.NACK]
        doc = wire.decode_json_payload(frames[0][1])
        assert doc["missing"] == 999_999
        assert follower.metrics.nacks == 1
        # nothing applied: the local segment still has its empty root
        assert follower.machine.segmap.entry(follower.streams[0]).root == 0

    def test_line_with_unknown_child_nacks(self):
        follower = ReplicationFollower("127.0.0.1", 1)
        sink = FrameSink()
        payload = wire.encode_line_payload(5, (wire.PlidRef(424242), 0))
        follower._handle(sink, wire.LINE, payload)
        assert [f[0] for f in sink.frames()] == [wire.NACK]
        assert follower.plid_map == {}
