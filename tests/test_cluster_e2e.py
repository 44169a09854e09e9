"""End-to-end cluster tier: a whole fleet in one event loop.

Boots real leaders and followers on ephemeral localhost ports, drives
writes through the cluster-aware client, and checks the properties the
tier promises: owner routing with MOVED redirects for stale views, the
in-band ``cluster topology`` verb on every node, fleet-wide fingerprint
convergence, and the registry instruments the obs adapter wires up.
"""

import asyncio
import json

from repro.cluster import (
    Cluster,
    ClusterClient,
    ClusterConfig,
    ClusterTopology,
)
from repro.obs.registry import parse_exposition, sample

CRLF = b"\r\n"


async def raw_request(host, port, payload, lines=1):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(payload)
        await writer.drain()
        out = [await reader.readline() for _ in range(lines)]
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    return out


class TestClusterServing:
    def test_owner_routed_writes_and_fleet_reads(self):
        async def go():
            async with Cluster(ClusterConfig(
                    leaders=2, followers=2, shards=2)) as cluster:
                client = ClusterClient(topology=cluster.topology)
                oracle = {}
                for i in range(40):
                    key, value = b"k%02d" % i, b"v%02d" % (i % 7)
                    line = await client.set(key, value)
                    assert line.strip() == b"STORED", line
                    oracle[key] = value
                # both keyspaces got traffic
                owners = {cluster.topology.owner_of(k) for k in oracle}
                assert owners == {"lead-0", "lead-1"}
                for leader_id in cluster.topology.leader_ids():
                    assert await cluster.wait_converged(leader_id), \
                        "fleet of %s never converged" % leader_id
                # reads spread over followers return the written values
                for key, value in oracle.items():
                    assert await client.get(key) == value
                await client.close()
                # no write was misrouted: the live client view matched
                assert cluster.sample_moved() == 0
                lags = cluster.sample_lags()
                assert set(lags) == set(cluster.followers)

        asyncio.run(go())

    def test_topology_verb_on_every_node(self):
        async def go():
            async with Cluster(ClusterConfig(
                    leaders=2, followers=1, shards=2)) as cluster:
                for host, port in cluster.endpoints():
                    line, tail = await raw_request(
                        host, port, b"cluster topology" + CRLF, lines=2)
                    assert tail == b"END" + CRLF
                    doc = json.loads(line.decode())
                    topology = ClusterTopology.from_doc(doc)
                    assert topology.epoch == cluster.topology.epoch
                    assert set(topology.nodes) == \
                        set(cluster.topology.nodes)

        asyncio.run(go())

    def test_stale_view_write_gets_moved(self):
        """A write sent to the wrong live leader is refused with a
        MOVED naming the owner — never silently applied."""
        async def go():
            async with Cluster(ClusterConfig(
                    leaders=2, followers=1, shards=2)) as cluster:
                topology = cluster.topology
                key = next(b"k%02d" % i for i in range(100)
                           if topology.owner_of(b"k%02d" % i) == "lead-1")
                wrong = cluster.leaders["lead-0"]
                (line,) = await raw_request(
                    wrong.host, wrong.port,
                    b"set %s 0 0 1\r\nx\r\n" % key)
                assert line.startswith(b"MOVED "), line
                _, epoch, node_id, addr = line.split()
                assert int(epoch) == topology.epoch
                assert node_id == b"lead-1"
                owner = topology.node("lead-1")
                assert addr.decode() == "%s:%d" % (owner.host, owner.port)
                assert cluster.sample_moved() == 1
                # reads are epoch-free: any node serves its snapshot
                (got,) = await raw_request(wrong.host, wrong.port,
                                           b"get %s\r\n" % key)
                assert got == b"END" + CRLF

        asyncio.run(go())

    def test_registry_instruments(self):
        async def go():
            async with Cluster(ClusterConfig(
                    leaders=1, followers=1, shards=1)) as cluster:
                registry = cluster.registry
                assert "repro_cluster_epoch" in registry
                assert "repro_cluster_promotions_total" in registry
                assert "repro_cluster_node_lag" in registry
                cluster.sample_lags()
                exposition = registry.exposition()
                parsed = parse_exposition(exposition)
                assert sample(parsed, "repro_cluster_epoch") == 1
                lag = {labels for name, labels in parsed
                       if name == "repro_cluster_node_lag"}
                assert lag == {(("node", "lead-0-f0"),)}
                assert "repro_cluster_epoch 1" in exposition

        asyncio.run(go())
