"""Cluster nodes: leader stacks, follower stacks, and promotion.

A *leader node* is one full serving stack — :class:`ClusterRouter`
(ownership-checking :class:`~repro.net.router.ShardRouter`) +
:class:`~repro.net.server.MemcachedServer` +
:class:`~repro.replication.leader.ReplicationLeader` — owning one slot
of the keyspace. A *follower node* is a
:class:`~repro.replication.follower.ReplicationFollower` plus the same
:class:`~repro.net.server.MemcachedServer` over a
:class:`~repro.replication.follower.FollowerRouter`, parented to one
leader: reads from the replica, writes forwarded to that leader.

Ownership enforcement speaks a MOVED-style line (redis-cluster's
stale-routing contract)::

    MOVED <epoch> <node_id> <host>:<port>\\r\\n

A leader answers MOVED for any write whose key it does not own at its
current topology epoch — which is exactly what a client holding a stale
topology sees after a repair rebinds a slot. The client refreshes via the
in-band ``cluster topology`` verb (JSON + END, served by leaders *and*
followers through one function,
:func:`~repro.net.router.cluster_response`) and retries.

Promotion is where the paper's economics show up: a follower's machine
already holds the dead leader's committed state as canonical segments,
so :meth:`FollowerNode.promote` just *adopts* those segments as the
backends of a fresh leader stack (:class:`AdoptedMemcached` wraps an
existing VSID instead of creating one). No data copies, no log replay —
the DAG is the checkpoint. Surviving siblings then reparent to the new
leader and its HELLO fingerprints match, so they re-sync via the SEED
path: zero lines reshipped.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.apps.memcached.server import HicampMemcached
from repro.core.machine import Machine
from repro.net.framing import Frame
from repro.net.router import (ConnectionState, ShardRouter,
                              WRITE_COMMANDS, cluster_response)
from repro.net.server import MemcachedServer
from repro.replication.follower import FollowerRouter, ReplicationFollower
from repro.replication.leader import ReplicationLeader
from repro.cluster.placement import ClusterTopology, NodeInfo

__all__ = ["AdoptedMemcached", "ClusterRouter", "LeaderNode",
           "FollowerNode", "adopting_backend_factory", "parse_moved"]


class AdoptedMemcached(HicampMemcached):
    """A memcached backend over an *existing* segment.

    The promotion path: the follower replicated the dead leader's
    per-shard maps into its own machine; wrapping those VSIDs (instead of
    ``HMap.create``) turns replicated state into served state with zero
    copying.
    """

    def __init__(self, machine: Machine, vsid: int) -> None:
        from repro.structures.hmap import HMap
        self.machine = machine
        self.kvp = HMap(machine, vsid)
        from repro.apps.memcached.server import ServerStats
        self.stats = ServerStats()


def adopting_backend_factory(streams: Dict[int, int]):
    """Backend factory adopting ``shard index → vsid`` where present.

    The router instantiates backends in shard order, so a simple counter
    pairs each call with its shard index; shards with no replicated
    stream (never written on the old leader) start empty.
    """
    state = {"next": 0}

    def factory(machine: Machine) -> HicampMemcached:
        shard = state["next"]
        state["next"] += 1
        vsid = streams.get(shard)
        if vsid is None:
            return HicampMemcached(machine)
        return AdoptedMemcached(machine, vsid)

    return factory


def parse_moved(line: bytes):
    """``(epoch, node_id, host, port)`` from a MOVED line, else None."""
    if not line.startswith(b"MOVED "):
        return None
    parts = line.strip().split(b" ")
    if len(parts) != 4:
        return None
    host, _, port = parts[3].rpartition(b":")
    return (int(parts[1]), parts[2].decode(), host.decode(), int(port))


class ClusterRouter(ShardRouter):
    """A shard router that enforces keyspace ownership.

    Holds this node's view of the :class:`ClusterTopology`; writes for
    keys another leader owns are refused with MOVED instead of being
    committed — the fence that keeps a stale client (or a stale former
    leader) from splitting the brain after a repair. Reads stay
    unchecked: they are snapshot reads and harmless anywhere.
    """

    def __init__(self, node_id: str, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.node_id = node_id
        self.topology: Optional[ClusterTopology] = None
        self.moved_responses = 0

    def answer(self, frame: Frame,
               conn: ConnectionState) -> Optional[bytes]:
        if frame.command == b"cluster":
            return cluster_response(frame.args, self.topology)
        topology = self.topology
        if (topology is not None and frame.error is None
                and frame.command in WRITE_COMMANDS
                and frame.key is not None):
            owner = topology.owner_of(frame.key)
            if owner != self.node_id:
                self.moved_responses += 1
                info = topology.node(owner)
                return b"MOVED %d %s %s:%d\r\n" % (
                    topology.epoch, owner.encode(),
                    info.host.encode(), info.port)
        return super().answer(frame, conn)


class LeaderNode:
    """One leader shard: router + serving front + replication leader."""

    def __init__(self, node_id: str,
                 machine: Optional[Machine] = None,
                 shards: int = 2,
                 host: str = "127.0.0.1", port: int = 0,
                 lag_window: int = 256,
                 heartbeat_interval: Optional[float] = None,
                 backend_factory=HicampMemcached,
                 recorder=None, injector=None) -> None:
        self.node_id = node_id
        self.router = ClusterRouter(
            node_id, machine=machine, shard_count=shards,
            backend_factory=backend_factory, recorder=recorder)
        self.server = MemcachedServer(host=host, port=port,
                                      router=self.router,
                                      injector=injector)
        self.leader = ReplicationLeader(
            self.router, host=host,
            lag_window=lag_window,
            heartbeat_interval=heartbeat_interval,
            recorder=recorder)
        self.host = host
        self.alive = True

    @property
    def machine(self) -> Machine:
        return self.router.machine

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def repl_port(self) -> int:
        return self.leader.port

    @property
    def topology(self) -> Optional[ClusterTopology]:
        return self.router.topology

    def set_topology(self, topology: ClusterTopology) -> None:
        self.router.topology = topology

    def info(self) -> NodeInfo:
        return NodeInfo(node_id=self.node_id, host=self.host,
                        port=self.port, role="leader",
                        repl_port=self.repl_port)

    async def start(self) -> None:
        await self.server.start()
        await self.leader.start()

    async def stop(self) -> None:
        """Graceful stop: replication unhooked, commits drained."""
        self.alive = False
        await self.leader.stop()
        await self.server.shutdown()

    async def kill(self) -> None:
        """Crash-stop: connections dropped, queued commits lost.

        The adversarial path — this is what the topology manager's
        probes must detect and repair. The machine object survives (the
        harness still reads its committed roots for lag math), but
        nothing serves and nothing ships.
        """
        self.alive = False
        await self.leader.stop()
        await self.server.abort()


class FollowerNode:
    """One fleet member: replication follower + serving front.

    The front is a :class:`~repro.net.server.MemcachedServer` over a
    :class:`~repro.replication.follower.FollowerRouter`, which also
    answers ``cluster topology``: followers carry the committed topology
    too, so a client can refresh its view from *any* live node —
    essential when the node it would ask is exactly the one that died.
    """

    def __init__(self, node_id: str, leader_id: str,
                 leader_info: NodeInfo,
                 host: str = "127.0.0.1", port: int = 0,
                 reconnect_delay: float = 0.02,
                 recorder=None) -> None:
        self.node_id = node_id
        self.leader_id = leader_id
        self.host = host
        self.follower = ReplicationFollower(
            leader_info.host, leader_info.repl_port,
            reconnect_delay=reconnect_delay, recorder=recorder)
        self.router = FollowerRouter(self.follower, leader_info.host,
                                     leader_info.port)
        self.front = MemcachedServer(host=host, port=port,
                                     router=self.router)

    @property
    def machine(self) -> Machine:
        return self.follower.machine

    @property
    def port(self) -> int:
        return self.front.port

    def set_topology(self, topology: ClusterTopology) -> None:
        self.router.topology = topology

    def info(self) -> NodeInfo:
        return NodeInfo(node_id=self.node_id, host=self.host,
                        port=self.port, role="follower",
                        leader_id=self.leader_id)

    def progress(self) -> int:
        """Total applied commits — the promotion candidate ranking."""
        return sum(self.follower.applied_seq.values())

    async def start(self) -> None:
        await self.follower.start()
        await self.front.start()

    async def stop(self) -> None:
        await self.front.shutdown()
        await self.follower.stop()

    def reparent(self, leader_id: str, leader_info: NodeInfo) -> None:
        """Re-point replication and write forwarding at a new leader."""
        self.leader_id = leader_id
        self.follower.reparent(leader_info.host, leader_info.repl_port)
        self.router.set_upstream(leader_info.host, leader_info.port)

    async def promote(self, shards: int,
                      lag_window: int = 256,
                      heartbeat_interval: Optional[float] = None,
                      recorder=None) -> LeaderNode:
        """Turn this follower into a leader over its replicated state.

        Stops the follower stack (releasing the translation map's pins;
        the segments stay), then adopts its per-stream segments as the
        shard backends of a fresh leader stack listening on the same
        serving port — clients that cached this node's address keep
        working. ``shards`` must be the dead leader's shard count so
        stream indices keep meaning the same thing to re-syncing
        siblings.
        """
        port = self.front.port
        streams = dict(self.follower.streams)
        await self.front.shutdown()
        await self.follower.stop()
        node = LeaderNode(
            self.node_id, machine=self.follower.machine, shards=shards,
            host=self.host, port=port, lag_window=lag_window,
            heartbeat_interval=heartbeat_interval,
            backend_factory=adopting_backend_factory(streams),
            recorder=recorder)
        await node.start()
        return node
