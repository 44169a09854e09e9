"""The topology manager: detect → propose → verify → commit, and the
repair edge cases.

Covers the full self-healing loop against a live fleet (leader killed
under a running manager) plus the deterministic corners: lag ties break
by node id, a promotion forced mid-sync still gates its commit on
fingerprint convergence, a stale-epoch client rides MOVED redirects to
the new owner, and a fleet with nobody left to promote fails the repair
without wedging.
"""

import asyncio

from repro.cluster import (
    Cluster,
    ClusterClient,
    ClusterConfig,
    TopologyManager,
)

from repro.params import MemoryConfig
from repro.testing.auditors import audit_machine

CRLF = b"\r\n"


async def fill(client, count, salt=b""):
    oracle = {}
    for i in range(count):
        key, value = b"%sk%02d" % (salt, i), b"v%02d" % (i % 5)
        line = await client.set(key, value)
        assert line.strip() == b"STORED", line
        oracle[key] = value
    return oracle


async def roundtrip(conn, payload, lines=1):
    reader, writer = conn
    writer.write(payload)
    await writer.drain()
    return [await asyncio.wait_for(reader.readline(), 5.0)
            for _ in range(lines)]


async def wait_epoch(cluster, above, timeout=20.0):
    loop = asyncio.get_event_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if cluster.metrics.epoch > above:
            return True
        await asyncio.sleep(0.02)
    return False


class TestRepairLoop:
    def test_kill_detect_promote_verify_commit(self):
        async def go():
            cluster = Cluster(ClusterConfig(
                leaders=2, followers=2, shards=2))
            manager = TopologyManager(cluster, probe_interval=0.05,
                                      failure_threshold=2)
            client = ClusterClient(max_retries=100, retry_delay=0.02)
            async with cluster:
                client.topology = cluster.topology
                oracle = await fill(client, 40)
                for leader_id in cluster.topology.leader_ids():
                    assert await cluster.wait_converged(leader_id)
                await manager.start()
                epoch = cluster.topology.epoch
                await cluster.kill("lead-0")
                # the client keeps writing straight through the repair
                oracle.update(await fill(client, 20, salt=b"post-"))
                assert await wait_epoch(cluster, epoch), \
                    "manager never committed a repair"
                assert cluster.metrics.promotions == 1
                assert cluster.metrics.reparents == 1
                assert cluster.metrics.last_recovery_seconds > 0
                # the dead leader is out of the directory; its slot is
                # owned by one of its ex-followers
                topology = cluster.topology
                assert "lead-0" not in topology.nodes
                promoted = [lid for lid in topology.leader_ids()
                            if lid.startswith("lead-0-")]
                assert len(promoted) == 1
                # the repair's verify gated its commit; the post-kill
                # writes that rode through keep replicating after it
                assert await cluster.wait_converged(promoted[0])
                assert await cluster.wait_converged("lead-1")
                # every acknowledged write survived the repair
                await client.refresh()
                assert client.topology.epoch == topology.epoch
                for key, value in oracle.items():
                    assert await client.get(key) == value
                await client.close()
                await manager.stop()
                assert any("committed epoch" in event
                           for event in manager.events)

        asyncio.run(go())

    def test_promotion_mid_sync_still_gates_on_convergence(self):
        """Kill the leader while its fleet is still applying deltas:
        the repair may only commit after fingerprints agree."""
        async def go():
            cluster = Cluster(ClusterConfig(
                leaders=1, followers=2, shards=2))
            manager = TopologyManager(cluster, probe_interval=0.05,
                                      failure_threshold=2,
                                      verify_timeout=10.0)
            client = ClusterClient(max_retries=100, retry_delay=0.02)
            async with cluster:
                client.topology = cluster.topology
                oracle = await fill(client, 60)
                # no convergence wait: the kill lands mid-replication
                epoch = cluster.topology.epoch
                await cluster.kill("lead-0")
                await manager.start()
                assert await wait_epoch(cluster, epoch, timeout=30.0)
                promoted = cluster.topology.leader_ids()[0]
                assert promoted.startswith("lead-0-")
                assert cluster.fleet_converged(promoted)
                await client.refresh()
                for key, value in oracle.items():
                    assert await client.get(key) == value
                await client.close()
                await manager.stop()

        asyncio.run(go())

    def test_reparented_follower_forwards_writes_to_the_new_leader(self):
        """A connection to a surviving follower's front, opened (and
        written through) before the kill, keeps taking writes after the
        repair: they reach the promoted leader and replicate back."""
        async def go():
            cluster = Cluster(ClusterConfig(
                leaders=1, followers=2, shards=2))
            manager = TopologyManager(cluster, verify_timeout=10.0)
            client = ClusterClient(max_retries=40, retry_delay=0.02)
            async with cluster:
                client.topology = cluster.topology
                await fill(client, 10)
                conns = {}
                for follower_id, node in cluster.followers.items():
                    conns[follower_id] = await asyncio.open_connection(
                        node.host, node.port)
                    # the front now holds a forwarding link to lead-0
                    assert await roundtrip(
                        conns[follower_id],
                        b"set pre 0 0 1\r\nx\r\n") == [b"STORED" + CRLF]
                assert await cluster.wait_converged("lead-0")
                await cluster.kill("lead-0")
                assert await manager.repair("lead-0")
                (promoted,) = cluster.topology.leader_ids()
                (survivor,) = [follower_id for follower_id in conns
                               if follower_id in cluster.followers]
                conn = conns[survivor]
                assert await roundtrip(
                    conn, b"set after 0 0 5\r\nhello\r\n") == \
                    [b"STORED" + CRLF]
                leader = cluster.leaders[promoted]
                leader_conn = await asyncio.open_connection(leader.host,
                                                            leader.port)
                expected = [b"VALUE after 0 5" + CRLF, b"hello" + CRLF,
                            b"END" + CRLF]
                assert await roundtrip(leader_conn, b"get after\r\n",
                                       lines=3) == expected
                assert await cluster.wait_converged(promoted)
                assert await roundtrip(conn, b"get after\r\n",
                                       lines=3) == expected
                for _, writer in [leader_conn, *conns.values()]:
                    writer.close()
                await client.close()

        asyncio.run(go())

    def test_lag_tie_breaks_by_node_id(self):
        async def go():
            cluster = Cluster(ClusterConfig(
                leaders=1, followers=3, shards=2))
            manager = TopologyManager(cluster)
            client = ClusterClient(max_retries=40, retry_delay=0.02)
            async with cluster:
                client.topology = cluster.topology
                await fill(client, 20)
                # fully converged fleet: every follower's progress ties
                assert await cluster.wait_converged("lead-0")
                await cluster.kill("lead-0")
                progress = {fid: cluster.followers[fid].progress()
                            for fid in cluster.followers}
                assert len(set(progress.values())) == 1
                assert manager.propose("lead-0") == "lead-0-f0"
                await client.close()

        asyncio.run(go())

    def test_promoted_leader_serves_on_the_profile_its_leader_had(self):
        """One machine shape on both sides of a fail-over: the
        follower's held machine becomes the new leader's machine."""
        async def go():
            cluster = Cluster(ClusterConfig(
                leaders=1, followers=1, shards=2))
            client = ClusterClient(max_retries=40, retry_delay=0.02)
            async with cluster:
                client.topology = cluster.topology
                await fill(client, 20)
                before = cluster.leaders["lead-0"].router.snapshot()
                assert await cluster.wait_converged("lead-0")
                await cluster.kill("lead-0")
                node = await cluster.promote("lead-0-f0")
                after = node.router.snapshot()
                await client.close()
            return before, after, node.machine

        before, after, machine = asyncio.run(go())
        assert set(before["reclaim"]) == set(after["reclaim"])
        assert machine.config.memory == MemoryConfig()
        # the promoted router drains between batches, as its leader did
        assert machine.mem.store.reclaimer.holds > 0
        report = audit_machine(machine, strict=True)
        assert report.ok, report.failures

    def test_stale_epoch_client_rides_moved_to_the_owner(self):
        """A client holding a wrong slot binding is corrected in-band:
        the mis-addressed leader answers MOVED, the client refreshes
        from the named node and the retried write lands."""
        async def go():
            async with Cluster(ClusterConfig(
                    leaders=2, followers=1, shards=2)) as cluster:
                topology = cluster.topology
                # doctor a stale view: swap the two slot bindings
                doc = topology.to_doc()
                (s0, o0), (s1, o1) = sorted(doc["slot_owner"].items())
                doc["slot_owner"] = {s0: o1, s1: o0}
                doc["epoch"] = 0
                stale = type(topology).from_doc(doc)
                client = ClusterClient(topology=stale,
                                       max_retries=10, retry_delay=0.01)
                oracle = await fill(client, 20)
                assert client.moved_retries > 0
                assert client.topology.epoch == topology.epoch
                assert cluster.sample_moved() >= client.moved_retries
                for key, value in oracle.items():
                    assert await client.get(key) == value
                await client.close()

        asyncio.run(go())

    def test_repair_without_survivors_fails_cleanly(self):
        async def go():
            cluster = Cluster(ClusterConfig(
                leaders=2, followers=0, shards=1))
            manager = TopologyManager(cluster)
            async with cluster:
                epoch = cluster.topology.epoch
                await cluster.kill("lead-0")
                assert not await manager.repair("lead-0")
                assert cluster.metrics.repairs_failed == 1
                assert cluster.metrics.promotions == 0
                assert cluster.topology.epoch == epoch

        asyncio.run(go())

    def test_probe_counts_and_healthy_fleet_is_left_alone(self):
        async def go():
            cluster = Cluster(ClusterConfig(
                leaders=2, followers=1, shards=1))
            manager = TopologyManager(cluster, failure_threshold=2)
            async with cluster:
                for _ in range(3):
                    await manager.tick()
                assert cluster.metrics.probes == 6
                assert cluster.metrics.probe_failures == 0
                assert cluster.metrics.promotions == 0
                assert cluster.topology.epoch == 1

        asyncio.run(go())
