"""Content-addressed leader/follower replication.

HICAMP's content-unique, immutable lines make replication a structural
problem rather than a log-shipping one: a follower is up to date exactly
when it holds the leader's root DAGs, and bringing it up to date means
shipping only the lines it has never seen — the delta engine in
:mod:`repro.replication.delta` walks new roots children-first, pruned at
every subtree the follower already holds. Roots advance atomically on
the follower with the same CAS primitive the leader commits with, so
follower reads are always a consistent snapshot, merely lagged.

Public surface:

* :class:`~repro.replication.leader.ReplicationLeader` — tails committed
  root advances from a :class:`~repro.net.router.ShardRouter` and ships
  deltas to connected followers with bounded lag.
* :class:`~repro.replication.follower.ReplicationFollower` — installs
  shipped lines into its own deduplicating store and CAS-advances its
  local segment roots.
* :class:`~repro.replication.follower.FollowerRouter` — the router a
  follower's :class:`~repro.net.server.MemcachedServer` serves through:
  the leader's shard router over the replica, snapshot GETs answered
  locally, writes forwarded to the leader.
* :class:`~repro.replication.metrics.ReplicationMetrics` — wire/dedup/lag
  accounting for either endpoint.
"""

from repro.replication.follower import (
    FollowerRouter,
    ReplicationFollower,
)
from repro.replication.leader import ReplicationLeader
from repro.replication.metrics import ReplicationMetrics

__all__ = [
    "FollowerRouter",
    "ReplicationFollower",
    "ReplicationLeader",
    "ReplicationMetrics",
]
