"""Registry adapters for the three pre-existing metrics silos.

:class:`~repro.net.metrics.ServerMetrics`,
:class:`~repro.replication.metrics.ReplicationMetrics` and
:class:`~repro.memory.stats.DramStats` predate the registry and are hot
enough that their layout (plain dataclass fields bumped inline) must not
change. Each adapter therefore registers *callback-backed* instruments
that read the live silo at collection time — the silo is the single
source of truth, the registry is a view, and the legacy ``stats`` /
``stats json`` output stays byte-identical.

The ``*_FIELDS`` tuples name the silo fields each adapter registers;
the test suite rebuilds every silo's own snapshot dict from registry
reads over them and asserts the round trip is exact, so a silo field
added without its registry registration fails loudly.
"""

from __future__ import annotations

from repro.obs.latency import latency_summary
from repro.obs.registry import MetricsRegistry

__all__ = [
    "register_server_metrics",
    "register_replication_metrics",
    "register_dram_stats",
    "register_router",
    "register_index",
    "register_reclaim",
    "register_memo",
    "register_cluster",
    "register_eviction",
    "register_collector",
]

# ServerMetrics scalar fields, split by Prometheus kind. Keep in sync
# with ServerMetrics.snapshot(); tests reconstruct that snapshot from
# these lists and assert the round trip.
SERVER_COUNTER_FIELDS = (
    "ops_total", "inline_requests", "bytes_in", "bytes_out",
    "connections_opened", "connections_closed", "read_timeouts",
    "frames_decoded", "pipelined_requests",
    "protocol_errors", "server_errors",
    "commit_batches",
)
SERVER_GAUGE_FIELDS = (
    "max_pipeline_depth",
)

REPLICATION_COUNTER_FIELDS = (
    "bytes_sent", "bytes_received", "line_bytes_shipped", "logical_bytes",
    "lines_shipped", "lines_deduped_on_arrival", "lines_installed",
    "seed_lines", "root_advances", "acks", "full_syncs", "resets",
    "forgets", "nacks", "heartbeats", "reconnects",
    "commits_observed", "commits_shipped",
)

SERVER_PREFIX = "repro_server_"
REPLICATION_PREFIX = "repro_replication_"
DRAM_METRIC = "repro_dram_accesses_total"


def _field_reader(obj, name):
    return lambda: getattr(obj, name)


def register_server_metrics(registry: MetricsRegistry, metrics) -> None:
    """Expose a live :class:`ServerMetrics` through ``registry``."""
    prefix = SERVER_PREFIX
    for name in SERVER_COUNTER_FIELDS:
        registry.counter(prefix + name, "server %s" % name,
                         fn=_field_reader(metrics, name))
    for name in SERVER_GAUGE_FIELDS:
        registry.gauge(prefix + name, "server %s" % name,
                       fn=_field_reader(metrics, name))
    registry.gauge(prefix + "uptime_seconds", "seconds since start",
                   fn=lambda: round(metrics.uptime_seconds, 3))
    registry.gauge(prefix + "ops_per_second", "request throughput",
                   fn=lambda: round(metrics.ops_per_second, 1))
    registry.counter(prefix + "ops_by_command", "requests by command",
                     labels=("command",),
                     fn=lambda: dict(metrics.ops_by_command))
    registry.counter(prefix + "commits_by_vsid",
                     "committed root advances by segment",
                     labels=("vsid",),
                     fn=lambda: {str(v): n for v, n
                                 in metrics.commits_by_vsid.items()})
    registry.gauge(prefix + "latency_ms",
                   "request latency quantiles (reservoir)",
                   labels=("quantile",),
                   fn=lambda: latency_summary(metrics.latency_ms()))


def register_replication_metrics(registry: MetricsRegistry,
                                 metrics) -> None:
    """Expose a live :class:`ReplicationMetrics` through ``registry``."""
    prefix = REPLICATION_PREFIX
    for name in REPLICATION_COUNTER_FIELDS:
        registry.counter(prefix + name, "replication %s" % name,
                         fn=_field_reader(metrics, name))
    registry.gauge(prefix + "max_lag",
                   "worst per-stream replication lag, in commits",
                   fn=lambda: metrics.max_lag)
    registry.gauge(prefix + "dedup_ratio",
                   "fraction of arriving lines already present",
                   fn=lambda: metrics.dedup_ratio)
    registry.gauge(prefix + "lag_by_stream",
                   "replication lag per stream, in commits",
                   labels=("stream",),
                   fn=lambda: {str(s): lag for s, lag
                               in metrics.lag_by_stream.items()})


def register_dram_stats(registry: MetricsRegistry, dram) -> None:
    """Expose a live :class:`DramStats` as one labeled counter —
    Figure 6's categories, straight off the store."""
    registry.counter(DRAM_METRIC, "off-chip DRAM accesses by category",
                     labels=("category",), fn=dram.as_dict)


def register_memo(registry: MetricsRegistry, memo) -> None:
    """Expose a live :class:`~repro.memory.memo.StructuralMemo`.

    One labeled counter covers every table's hit/miss/eviction/
    invalidation flow; a gauge tracks the live (bounded) table sizes.
    """
    prefix = "repro_memo_"
    registry.counter(prefix + "ops_total",
                     "structural memo probes and maintenance by table",
                     labels=("table", "outcome"), fn=memo.ops)
    registry.gauge(prefix + "entries", "live memo entries per table",
                   labels=("table",), fn=memo.sizes)
    registry.gauge(prefix + "enabled", "1 when the memo serves hits",
                   fn=lambda: int(memo.enabled))


CLUSTER_COUNTER_FIELDS = (
    "promotions", "repairs_failed", "probes", "probe_failures",
    "reparents", "moved_total",
)

CLUSTER_PREFIX = "repro_cluster_"


def register_cluster(registry: MetricsRegistry, cluster) -> None:
    """Expose a live :class:`~repro.cluster.cluster.Cluster` (via its
    :class:`~repro.cluster.metrics.ClusterMetrics`) through ``registry``.

    Same callback-instrument idiom as the other silos: the metrics
    dataclass stays the single source of truth the harness and topology
    manager bump inline; the registry reads it live at collection time.
    """
    prefix = CLUSTER_PREFIX
    metrics = cluster.metrics
    registry.gauge(prefix + "epoch", "committed topology epoch",
                   fn=lambda: metrics.epoch)
    for name in CLUSTER_COUNTER_FIELDS:
        registry.counter(prefix + name + "_total", "cluster %s" % name,
                         fn=_field_reader(metrics, name))
    registry.gauge(prefix + "last_recovery_seconds",
                   "wall time of the most recent committed repair",
                   fn=lambda: round(metrics.last_recovery_seconds, 6))
    registry.gauge(prefix + "node_lag",
                   "follower lag behind its leader, in commits",
                   labels=("node",),
                   fn=lambda: dict(sorted(metrics.node_lag.items())))
    registry.gauge(prefix + "live_leaders", "leaders currently serving",
                   fn=lambda: len(cluster.leaders))
    registry.gauge(prefix + "live_followers",
                   "followers currently serving",
                   fn=lambda: len(cluster.followers))
    registry.gauge(prefix + "dead_nodes", "crash-stopped leaders",
                   fn=lambda: len(cluster.dead))


# EvictionStats scalar fields; tests reconstruct
# ``dataclasses.asdict(stats)`` from these and assert the round trip —
# a field added to EvictionStats without its registration here fails
# loudly, same contract as the other silos.
EVICTION_COUNTER_FIELDS = ("expired", "evicted", "eviction_passes")

EVICTION_PREFIX = "repro_eviction_"


def register_eviction(registry: MetricsRegistry, stats) -> None:
    """Expose live :class:`~repro.apps.memcached.eviction.EvictionStats`.

    ``stats`` is one silo or a per-shard list; each field becomes one
    shard-labeled counter read off the live dataclass at collection
    time (the eviction hot path keeps bumping plain fields inline).
    """
    silos = list(stats) if isinstance(stats, (list, tuple)) else [stats]
    for name in EVICTION_COUNTER_FIELDS:
        registry.counter(
            EVICTION_PREFIX + name + "_total", "eviction %s" % name,
            labels=("shard",),
            fn=lambda silos=silos, name=name: {
                str(i): getattr(s, name) for i, s in enumerate(silos)})


INDEX_PREFIX = "repro_index_"

# StoreCounters fields exposed for the lookup-by-content path.
INDEX_STORE_FIELDS = (
    "lookups", "lookup_hits", "false_positive_scans",
    "signature_false_positives", "overflow_allocations",
)


def register_index(registry: MetricsRegistry, store) -> None:
    """Expose a :class:`DedupStore`'s lookup-by-content path.

    Same callback idiom as the other silos: `StoreCounters` stays a
    plain inline-bumped dataclass; the registry reads it live.
    ``indexed_buckets`` counts the buckets resolved by fingerprint
    because they have overflow lines (0 until one spills).
    """
    prefix = INDEX_PREFIX
    registry.counter(
        prefix + "store_ops_total",
        "store-level lookup path events",
        labels=("event",),
        fn=lambda: {name: getattr(store.counters, name)
                    for name in INDEX_STORE_FIELDS})
    registry.gauge(prefix + "indexed_buckets",
                   "hash buckets resolved by fingerprint (overflowed)",
                   fn=store.indexed_buckets)


RECLAIM_PREFIX = "repro_reclaim_"

#: drain outcomes exposed as one reason-labeled counter; keys match the
#: ``drained_*`` fields of :class:`repro.memory.dedup_store.ReclaimStats`
RECLAIM_DRAIN_REASONS = ("freed", "resurrected", "stale")


def register_reclaim(registry: MetricsRegistry, store) -> None:
    """Expose a :class:`DedupStore`'s reclamation state."""
    prefix = RECLAIM_PREFIX
    stats = store.reclaim_stats
    registry.gauge(prefix + "pending_lines",
                   "deferred-dead lines awaiting drain",
                   fn=store.pending_lines)
    registry.gauge(prefix + "epoch", "current reclamation epoch",
                   fn=lambda: stats.epochs_advanced)
    registry.counter(
        prefix + "drained_total",
        "deferral-queue entries processed, by drain outcome",
        labels=("reason",),
        fn=lambda: {reason: getattr(stats, "drained_" + reason)
                    for reason in RECLAIM_DRAIN_REASONS})
    registry.counter(prefix + "deferred_total",
                     "release-to-zero events queued",
                     fn=lambda: stats.deferred_total)
    registry.counter(prefix + "epochs_total",
                     "epoch advancements (router batch boundaries)",
                     fn=lambda: stats.epochs_advanced)
    registry.counter(prefix + "quiesces_total",
                     "synchronous full drains",
                     fn=lambda: stats.quiesces)
    registry.counter(prefix + "pressure_drains_total",
                     "full drains forced by a full bucket before a spill",
                     fn=lambda: stats.pressure_drains)
    registry.gauge(prefix + "free_slots",
                   "free line slots: zero-signature ways + recycled "
                   "overflow slots",
                   fn=store.free_slots)
    registry.gauge(prefix + "free_overflow_slots",
                   "recycled overflow-area PLIDs awaiting reuse",
                   fn=lambda: len(store.free_overflow))


def register_router(registry: MetricsRegistry, router) -> None:
    """Cache-wide state a :class:`ShardRouter` adds on top of its
    :class:`ServerMetrics` (the extra keys of ``stats json``)."""
    registry.gauge("repro_server_shards", "shard backends",
                   fn=lambda: len(router.servers))
    registry.gauge("repro_machine_footprint_bytes",
                   "bytes of DRAM consumed by unique lines",
                   fn=router.machine.footprint_bytes)
    registry.counter("repro_cache_ops_total",
                     "backend operations by kind, summed across shards",
                     labels=("op",),
                     fn=lambda: {k: v for k, v
                                 in router.aggregate_server_stats().items()
                                 if k != "curr_items"})
    registry.gauge("repro_cache_curr_items", "items across all shards",
                   fn=lambda:
                   router.aggregate_server_stats()["curr_items"])


def register_collector(registry: MetricsRegistry, pauses) -> None:
    """Expose :class:`~repro.net.metrics.CollectorPauses`: collections
    and pause microseconds by generation, and the longest pause. The
    counts are process-wide (the collector is the interpreter's)."""
    registry.counter("repro_gc_collections_total",
                     "cyclic collections by generation (process-wide)",
                     labels=("generation",),
                     fn=lambda: pauses.by_generation(pauses.collections))
    registry.counter("repro_gc_pause_us_total",
                     "microseconds paused in the cyclic collector, by "
                     "generation (process-wide)",
                     labels=("generation",),
                     fn=lambda: pauses.by_generation(pauses.pause_us))
    registry.gauge("repro_gc_max_pause_us",
                   "longest single collection pause (process-wide)",
                   fn=lambda: pauses.max_pause_us)
