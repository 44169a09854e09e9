"""The in-process multi-node harness: a whole fleet in one event loop.

Every node is a real stack on a real localhost socket — leaders accept
memcached connections and ship replication deltas; followers replicate
and serve snapshot reads — but they all share one asyncio loop, so e2e
tests and fuzz episodes stay single-process and deterministic. The
:class:`Cluster` object is the control plane's substrate: it owns the
committed :class:`~repro.cluster.placement.ClusterTopology`, publishes
each new epoch to every node, and exposes the fingerprint/lag probes the
topology manager builds its detect→propose→verify loop from.

Dead leaders move to :attr:`Cluster.dead` rather than vanishing: their
sockets are gone but their machine objects remain readable, which is how
lag accounting can still compare a candidate follower's applied commits
against what the dead leader had committed.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_RECORDER
from repro.segments import dag
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.node import FollowerNode, LeaderNode
from repro.cluster.placement import ClusterTopology, initial_topology

__all__ = ["ClusterConfig", "Cluster"]


@dataclass
class ClusterConfig:
    """Shape of a fleet: N leaders, M followers each, K shards per."""

    leaders: int = 2
    followers: int = 2          #: per leader
    shards: int = 2
    seed: int = 0
    host: str = "127.0.0.1"


class Cluster:
    """A fleet of leader/follower stacks sharing one event loop."""

    def __init__(self, config: Optional[ClusterConfig] = None,
                 recorder=None, injector=None) -> None:
        self.config = config if config is not None else ClusterConfig()
        self.metrics = ClusterMetrics()
        #: cluster-level registry (node stacks keep their own); the obs
        #: adapter wires ``repro_cluster_*`` instruments into it
        self.registry = MetricsRegistry()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        #: optional fault injector handed to every *leader's* serving
        #: front — the adversary for fuzz episodes
        self.injector = injector
        self.leaders: Dict[str, LeaderNode] = {}
        self.followers: Dict[str, FollowerNode] = {}
        self.dead: Dict[str, LeaderNode] = {}
        self.topology: Optional[ClusterTopology] = None
        from repro.obs.adapters import register_cluster
        register_cluster(self.registry, self)

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        """Boot leaders, bind the epoch-1 topology, boot fleets."""
        cfg = self.config
        for i in range(cfg.leaders):
            node = LeaderNode(
                "lead-%d" % i, shards=cfg.shards, host=cfg.host,
                recorder=self.recorder, injector=self.injector)
            await node.start()
            self.leaders[node.node_id] = node
        leader_infos = [node.info() for node in self.leaders.values()]
        follower_infos = []
        for leader_id in sorted(self.leaders):
            leader = self.leaders[leader_id]
            for j in range(cfg.followers):
                node = FollowerNode(
                    "%s-f%d" % (leader_id, j), leader_id, leader.info(),
                    host=cfg.host, recorder=self.recorder)
                await node.start()
                self.followers[node.node_id] = node
                follower_infos.append(node.info())
        self.publish(initial_topology(leader_infos, follower_infos,
                                      seed=cfg.seed))

    async def stop(self) -> None:
        for node in self.followers.values():
            await node.stop()
        for node in self.leaders.values():
            await node.stop()

    async def __aenter__(self) -> "Cluster":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # topology

    def publish(self, topology: ClusterTopology) -> None:
        """Commit a topology epoch: every live node gets the new view."""
        self.topology = topology
        self.metrics.epoch = topology.epoch
        for node in self.leaders.values():
            node.set_topology(topology)
        for node in self.followers.values():
            node.set_topology(topology)

    def node(self, node_id: str
             ) -> Optional[Union[LeaderNode, FollowerNode]]:
        return self.leaders.get(node_id) or self.followers.get(node_id)

    def endpoints(self) -> List[Tuple[str, int]]:
        """Every live serving endpoint (leaders first, sorted ids)."""
        out = [(node.host, node.port)
               for _, node in sorted(self.leaders.items())]
        out.extend((node.host, node.port)
                   for _, node in sorted(self.followers.items()))
        return out

    # ------------------------------------------------------------------
    # probes (what the topology manager reads)

    def leader_fingerprints(self, leader_id: str) -> Dict[int, bytes]:
        leader = self.leaders[leader_id]
        return {stream: dag.segment_fingerprint(leader.machine, vsid)
                for stream, vsid in leader.leader.streams().items()}

    def fleet_fingerprints(self, leader_id: str,
                           topology: Optional[ClusterTopology] = None
                           ) -> Dict[str, Dict[int, bytes]]:
        """Per-node per-stream fingerprints across one leader's fleet.

        ``topology`` defaults to the committed view; the topology manager
        passes its *proposed* successor so verification judges the fleet
        the repair is about to commit, not the one that just died.
        """
        topology = topology if topology is not None else self.topology
        out = {leader_id: self.leader_fingerprints(leader_id)}
        for follower_id in topology.followers_of(leader_id):
            follower = self.followers.get(follower_id)
            if follower is not None:
                out[follower_id] = follower.follower.fingerprints()
        return out

    def fleet_converged(self, leader_id: str,
                        topology: Optional[ClusterTopology] = None) -> bool:
        """Does every fleet member match the leader, stream for stream?"""
        fleet = self.fleet_fingerprints(leader_id, topology)
        reference = fleet.pop(leader_id)
        if not reference:
            return False
        return all(fps == reference for fps in fleet.values())

    async def wait_converged(self, leader_id: str, timeout: float = 10.0,
                             topology: Optional[ClusterTopology] = None
                             ) -> bool:
        loop = asyncio.get_event_loop()
        deadline = loop.time() + timeout
        while loop.time() < deadline:
            if self.fleet_converged(leader_id, topology):
                return True
            await asyncio.sleep(0.02)
        return False

    def follower_lag(self, follower_id: str) -> int:
        """Commits behind the owning leader, summed over streams.

        Readable even when the owning leader is dead — its in-memory
        ``commit_seq`` survives the crash-stop, modeling the external
        commit accounting (client acks) a real control plane would use.
        """
        follower = self.followers[follower_id]
        owner = self.leaders.get(follower.leader_id) \
            or self.dead.get(follower.leader_id)
        if owner is None:
            return 0
        applied = follower.follower.applied_seq
        return sum(max(0, seq - applied.get(stream, 0))
                   for stream, seq in owner.leader.commit_seq.items())

    def sample_lags(self) -> Dict[str, int]:
        """Refresh the per-node lag gauges; returns the sample."""
        out = {}
        for follower_id in sorted(self.followers):
            lag = self.follower_lag(follower_id)
            self.metrics.observe_lag(follower_id, lag)
            out[follower_id] = lag
        return out

    # ------------------------------------------------------------------
    # transitions (the manager's verbs)

    async def kill(self, leader_id: str) -> None:
        """Crash-stop a leader; it keeps its ports' silence forever."""
        node = self.leaders.pop(leader_id)
        await node.kill()
        self.dead[leader_id] = node
        self.metrics.forget_node(leader_id)

    async def promote(self, follower_id: str) -> LeaderNode:
        """Replace a follower with a leader over its replicated state."""
        follower = self.followers.pop(follower_id)
        dead = self.dead.get(follower.leader_id)
        shards = len(dead.router.servers) if dead is not None \
            else self.config.shards
        node = await follower.promote(shards, recorder=self.recorder)
        self.leaders[node.node_id] = node
        self.metrics.forget_node(follower_id)
        return node

    def reparent(self, follower_id: str, leader_id: str) -> None:
        """Point an orphaned follower at its fleet's new leader."""
        follower = self.followers[follower_id]
        follower.reparent(leader_id, self.leaders[leader_id].info())
        self.metrics.reparents += 1

    # ------------------------------------------------------------------
    # reporting

    def sample_moved(self) -> int:
        """Sum MOVED responses over live leaders into the metrics."""
        total = sum(node.router.moved_responses
                    for node in self.leaders.values())
        total += sum(node.router.moved_responses
                     for node in self.dead.values())
        self.metrics.moved_total = total
        return total

    def snapshot(self) -> Dict:
        self.sample_moved()
        return {
            "cluster": self.metrics.snapshot(),
            "topology": self.topology.to_doc()
            if self.topology is not None else None,
            "live_leaders": sorted(self.leaders),
            "live_followers": sorted(self.followers),
            "dead": sorted(self.dead),
        }
