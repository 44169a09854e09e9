"""Key placement: a seeded consistent-hash ring and versioned topology.

The cluster tier splits the keyspace across N leader shards the same way
the paper splits a contended map (§5.1.1) — but at fleet scale, where
"shard" means a whole serving stack (router + machine + replication
leader) rather than one map. Placement follows the classic
consistent-hashing construction:

* the ring is built over **slots**, not node ids. A slot (``slot-0`` …
  ``slot-N-1``) is a stable name for one leader shard's keyspace
  partition; ``vnodes`` virtual points per slot smooth the split.
  Because the points hash the *slot name*, promoting a follower into a
  dead leader's place rebinds the slot without moving a single key —
  the hash-slot indirection redis-cluster uses, here derived from a
  seed so every test and fuzz episode lays keys out identically.
* :class:`ClusterTopology` is the explicit, versioned cluster state:
  the ring parameters, the slot → leader binding, and a
  :class:`NodeInfo` per node. It is immutable in spirit — every repair
  produces a *new* topology with ``epoch + 1`` via
  :meth:`ClusterTopology.with_promotion` — and JSON round-trippable so
  clients can fetch it over the wire (``cluster topology``) and detect
  staleness by epoch compare.

History-independence is what makes the versioning safe to verify
cheaply: two nodes that converged to the same per-VSID fingerprint hold
byte-identical segments no matter which deltas, resyncs or promotions
got them there, so a topology transition is provably complete the
moment fingerprints agree (see :mod:`repro.cluster.manager`).
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

LEADER = "leader"
FOLLOWER = "follower"

#: Virtual points per slot on a cluster's ring (the topology document
#: carries the count, so a ring read off the wire keeps its own).
VNODES = 16


def _point(seed: int, slot: str, replica: int) -> int:
    """Deterministic 64-bit ring position for one virtual node."""
    material = b"%d|%s|%d" % (seed, slot.encode(), replica)
    digest = hashlib.blake2b(material, digest_size=8).digest()
    return int.from_bytes(digest, "big")


def key_point(key: bytes) -> int:
    """Where a key lands on the ring (independent of the seed: the
    *ring* is the seeded part, so re-seeding re-deals the slots while
    key hashing stays a pure content property)."""
    digest = hashlib.blake2b(b"key|" + key, digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """A stable consistent-hash ring over slot names.

    Deterministic given ``(slots, vnodes, seed)``; adding or removing a
    slot moves only the keys adjacent to its virtual points — the
    elastic-scale-out property the SEED warm start makes cheap to
    exploit (a new leader's followers spin up from fingerprints, not
    full copies).
    """

    def __init__(self, slots: Sequence[str], vnodes: int = VNODES,
                 seed: int = 0) -> None:
        if not slots:
            raise ValueError("a ring needs at least one slot")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.slots: Tuple[str, ...] = tuple(slots)
        self.vnodes = vnodes
        self.seed = seed
        points: List[Tuple[int, str]] = []
        for slot in self.slots:
            for replica in range(vnodes):
                points.append((_point(seed, slot, replica), slot))
        # ties broken by slot name so the ring is a pure function of
        # its parameters, never of construction order
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    def slot_for(self, key: bytes) -> str:
        """The slot owning ``key``: first virtual point clockwise."""
        index = bisect.bisect_right(self._points, key_point(key))
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def spread(self, keys: Sequence[bytes]) -> Dict[str, int]:
        """Keys per slot — balance diagnostics and tests."""
        out = {slot: 0 for slot in self.slots}
        for key in keys:
            out[self.slot_for(key)] += 1
        return out

    def to_doc(self) -> Dict:
        return {"slots": list(self.slots), "vnodes": self.vnodes,
                "seed": self.seed}

    @classmethod
    def from_doc(cls, doc: Dict) -> "HashRing":
        return cls(doc["slots"], vnodes=doc["vnodes"], seed=doc["seed"])


@dataclass
class NodeInfo:
    """One cluster member as the topology describes it."""

    node_id: str
    host: str
    port: int                       #: serving (memcached) port
    role: str = LEADER
    repl_port: int = 0              #: replication port (leaders only)
    leader_id: Optional[str] = None  #: owning leader (followers only)

    def to_doc(self) -> Dict:
        return {"node_id": self.node_id, "host": self.host,
                "port": self.port, "role": self.role,
                "repl_port": self.repl_port, "leader_id": self.leader_id}

    @classmethod
    def from_doc(cls, doc: Dict) -> "NodeInfo":
        return cls(node_id=doc["node_id"], host=doc["host"],
                   port=doc["port"], role=doc["role"],
                   repl_port=doc.get("repl_port", 0),
                   leader_id=doc.get("leader_id"))


@dataclass
class ClusterTopology:
    """Versioned cluster state: ring, slot bindings, node directory.

    Transitions never mutate in place — they build the successor
    topology with a bumped epoch, so a node or client can always tell
    whether its view is stale by comparing a single integer.
    """

    epoch: int
    ring: HashRing
    slot_owner: Dict[str, str]
    nodes: Dict[str, NodeInfo] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # queries

    def owner_of(self, key: bytes) -> str:
        """Node id of the leader owning ``key`` at this epoch."""
        return self.slot_owner[self.ring.slot_for(key)]

    def node(self, node_id: str) -> Optional[NodeInfo]:
        return self.nodes.get(node_id)

    def leader_ids(self) -> List[str]:
        return sorted(n.node_id for n in self.nodes.values()
                      if n.role == LEADER)

    def followers_of(self, leader_id: str) -> List[str]:
        return sorted(n.node_id for n in self.nodes.values()
                      if n.role == FOLLOWER and n.leader_id == leader_id)

    def slot_of(self, leader_id: str) -> Optional[str]:
        for slot, owner in self.slot_owner.items():
            if owner == leader_id:
                return slot
        return None

    # ------------------------------------------------------------------
    # transitions

    def with_promotion(self, dead_id: str, promoted_id: str,
                       repl_port: int) -> "ClusterTopology":
        """The successor topology after a follower promotion.

        The dead leader's slot rebinds to the promoted node; its
        surviving followers re-parent to the promoted node; the dead
        node leaves the directory. The ring itself never changes — no
        key moves between surviving leaders.
        """
        promoted = self.nodes[promoted_id]
        nodes: Dict[str, NodeInfo] = {}
        for node_id, info in self.nodes.items():
            if node_id == dead_id:
                continue
            if node_id == promoted_id:
                nodes[node_id] = NodeInfo(
                    node_id=node_id, host=promoted.host,
                    port=promoted.port, role=LEADER,
                    repl_port=repl_port, leader_id=None)
            elif info.role == FOLLOWER and info.leader_id == dead_id:
                nodes[node_id] = NodeInfo(
                    node_id=node_id, host=info.host, port=info.port,
                    role=FOLLOWER, leader_id=promoted_id)
            else:
                nodes[node_id] = info
        slot_owner = {slot: (promoted_id if owner == dead_id else owner)
                      for slot, owner in self.slot_owner.items()}
        return ClusterTopology(epoch=self.epoch + 1, ring=self.ring,
                               slot_owner=slot_owner, nodes=nodes)

    # ------------------------------------------------------------------
    # wire form

    def to_doc(self) -> Dict:
        return {
            "epoch": self.epoch,
            "ring": self.ring.to_doc(),
            "slot_owner": dict(sorted(self.slot_owner.items())),
            "nodes": {node_id: info.to_doc()
                      for node_id, info in sorted(self.nodes.items())},
        }

    @classmethod
    def from_doc(cls, doc: Dict) -> "ClusterTopology":
        return cls(epoch=doc["epoch"],
                   ring=HashRing.from_doc(doc["ring"]),
                   slot_owner=dict(doc["slot_owner"]),
                   nodes={node_id: NodeInfo.from_doc(info)
                          for node_id, info in doc["nodes"].items()})


def initial_topology(leaders: Sequence[NodeInfo],
                     followers: Sequence[NodeInfo],
                     seed: int = 0, epoch: int = 1) -> ClusterTopology:
    """Epoch-1 topology: one slot per leader, bound in sorted id order,
    on a ring of :data:`VNODES` points per slot."""
    slots = ["slot-%d" % i for i in range(len(leaders))]
    ring = HashRing(slots, seed=seed)
    ordered = sorted(leaders, key=lambda info: info.node_id)
    slot_owner = {slot: info.node_id
                  for slot, info in zip(slots, ordered)}
    nodes = {info.node_id: info for info in list(leaders) + list(followers)}
    return ClusterTopology(epoch=epoch, ring=ring, slot_owner=slot_owner,
                           nodes=nodes)


__all__ = ["HashRing", "NodeInfo", "ClusterTopology", "initial_topology",
           "key_point", "LEADER", "FOLLOWER"]
