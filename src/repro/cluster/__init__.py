"""Sharded leaders, follower fleets, and a self-healing topology (PR 6).

The cluster tier scales the replicated stack out: keys map to N leader
shards through a consistent-hash ring (stable slot names, so a promotion
rebinds a slot without remapping a single key), every leader feeds a
fan-out of snapshot-serving followers, and a topology manager watches
the fleet and repairs it when a leader dies — detect by probe, propose
the most-caught-up follower, **verify** the new fleet by per-segment
``segment_fingerprint`` agreement (the paper's history-independence
lever: matching fingerprints prove byte-identical state no matter how
each node got there), and only then commit the new epoch.

Public surface:

* :mod:`~repro.cluster.placement` — :class:`HashRing`,
  :class:`NodeInfo`, :class:`ClusterTopology`: deterministic key
  placement and the versioned topology document.
* :class:`~repro.cluster.cluster.Cluster` — the in-process multi-node
  harness: a whole fleet of real socket-serving stacks in one event
  loop, with the fingerprint/lag probes repair decisions read.
* :class:`~repro.cluster.manager.TopologyManager` — the
  detect→propose→verify→commit repair loop.
* :class:`~repro.cluster.client.ClusterClient` — owner-routed writes
  with MOVED/dead-socket retry; fleet-spread reads.
"""

from repro.cluster.client import (
    ClusterClient,
    ClusterUnavailableError,
)
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.manager import TopologyManager
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.node import FollowerNode, LeaderNode
from repro.cluster.placement import (
    ClusterTopology,
    HashRing,
    NodeInfo,
    initial_topology,
)

__all__ = [
    "Cluster",
    "ClusterClient",
    "ClusterConfig",
    "ClusterMetrics",
    "ClusterTopology",
    "ClusterUnavailableError",
    "FollowerNode",
    "HashRing",
    "LeaderNode",
    "NodeInfo",
    "TopologyManager",
    "initial_topology",
]
