"""Placement layer: the seeded ring and the versioned topology.

Everything here is pure — no sockets. The properties the cluster tier
leans on: the ring is a deterministic function of (slots, vnodes, seed);
a promotion rebinds a slot without moving a single key; the topology
round-trips through its JSON wire form.
"""

import pytest

from repro.cluster.placement import (
    FOLLOWER,
    LEADER,
    ClusterTopology,
    HashRing,
    NodeInfo,
    initial_topology,
    key_point,
)

KEYS = [b"key-%03d" % i for i in range(400)]


def make_topology(leaders=2, followers=2):
    leader_infos = [NodeInfo("lead-%d" % i, "127.0.0.1", 11000 + i,
                             role=LEADER, repl_port=12000 + i)
                    for i in range(leaders)]
    follower_infos = [
        NodeInfo("lead-%d-f%d" % (i, j), "127.0.0.1",
                 13000 + i * 10 + j, role=FOLLOWER,
                 leader_id="lead-%d" % i)
        for i in range(leaders) for j in range(followers)]
    return initial_topology(leader_infos, follower_infos)


class TestHashRing:
    def test_deterministic_in_parameters(self):
        a = HashRing(["slot-0", "slot-1", "slot-2"], vnodes=16, seed=7)
        b = HashRing(["slot-2", "slot-0", "slot-1"], vnodes=16, seed=7)
        assert [a.slot_for(k) for k in KEYS] == \
            [b.slot_for(k) for k in KEYS]

    def test_seed_redeals_the_slots(self):
        a = HashRing(["slot-0", "slot-1"], vnodes=16, seed=0)
        b = HashRing(["slot-0", "slot-1"], vnodes=16, seed=1)
        assert [a.slot_for(k) for k in KEYS] != \
            [b.slot_for(k) for k in KEYS]
        # ... while the key hash itself is seed-independent content
        assert key_point(b"k") == key_point(b"k")

    def test_every_slot_gets_keys(self):
        ring = HashRing(["slot-%d" % i for i in range(4)], vnodes=32)
        spread = ring.spread(KEYS)
        assert sum(spread.values()) == len(KEYS)
        assert all(count > 0 for count in spread.values())

    def test_adding_a_slot_only_steals_keys(self):
        """Consistent hashing: growing the ring never shuffles keys
        between pre-existing slots, it only moves some to the newcomer."""
        small = HashRing(["slot-0", "slot-1"], vnodes=32)
        grown = HashRing(["slot-0", "slot-1", "slot-2"], vnodes=32)
        moved = 0
        for key in KEYS:
            before, after = small.slot_for(key), grown.slot_for(key)
            if before != after:
                assert after == "slot-2"
                moved += 1
        assert 0 < moved < len(KEYS)

    def test_round_trip(self):
        ring = HashRing(["slot-0", "slot-1"], vnodes=8, seed=3)
        clone = HashRing.from_doc(ring.to_doc())
        assert [ring.slot_for(k) for k in KEYS] == \
            [clone.slot_for(k) for k in KEYS]

    def test_rejects_degenerate_rings(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["slot-0"], vnodes=0)


class TestClusterTopology:
    def test_owner_routing_and_directory(self):
        topology = make_topology()
        assert topology.leader_ids() == ["lead-0", "lead-1"]
        assert topology.followers_of("lead-0") == \
            ["lead-0-f0", "lead-0-f1"]
        owners = {topology.owner_of(k) for k in KEYS}
        assert owners == {"lead-0", "lead-1"}
        assert topology.slot_of("lead-1") is not None
        assert topology.slot_of("lead-0-f0") is None

    def test_round_trip_preserves_routing(self):
        topology = make_topology()
        clone = ClusterTopology.from_doc(topology.to_doc())
        assert clone.epoch == topology.epoch
        assert [clone.owner_of(k) for k in KEYS] == \
            [topology.owner_of(k) for k in KEYS]
        assert clone.node("lead-0-f1").leader_id == "lead-0"

    def test_promotion_rebinds_the_slot_without_moving_keys(self):
        topology = make_topology()
        successor = topology.with_promotion("lead-0", "lead-0-f0",
                                            repl_port=12050)
        assert successor.epoch == topology.epoch + 1
        assert "lead-0" not in successor.nodes
        promoted = successor.node("lead-0-f0")
        assert promoted.role == LEADER
        assert promoted.repl_port == 12050
        # the sibling re-parents; the other fleet is untouched
        assert successor.node("lead-0-f1").leader_id == "lead-0-f0"
        assert successor.followers_of("lead-1") == \
            ["lead-1-f0", "lead-1-f1"]
        # key movement: every key lead-0 owned is now lead-0-f0's, and
        # not one key changed hands between surviving keyspaces
        for key in KEYS:
            before = topology.owner_of(key)
            after = successor.owner_of(key)
            assert after == ("lead-0-f0" if before == "lead-0" else before)

    def test_promotion_is_not_in_place(self):
        topology = make_topology()
        topology.with_promotion("lead-0", "lead-0-f0", repl_port=1)
        assert topology.epoch == 1
        assert topology.node("lead-0") is not None
        assert topology.node("lead-0-f0").role == FOLLOWER
