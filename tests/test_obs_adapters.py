"""Adapters: the registry must mirror the legacy silos exactly.

Each ``*_from_registry`` helper rebuilds a silo's own snapshot dict
purely from registry reads over the adapters' ``*_FIELDS`` tuples;
equality here proves the registry is a lossless view — and a silo field
added without its registration breaks these tests instead of silently
vanishing from the exposition.
"""

import dataclasses
from dataclasses import fields as dataclass_fields

from repro.apps.memcached.eviction import ManagedMemcached
from repro.core.machine import Machine
from repro.memory.stats import DramStats
from repro.net.metrics import ServerMetrics
from repro.obs import adapters
from repro.obs.registry import MetricsRegistry, parse_exposition, sample
from repro.replication.metrics import ReplicationMetrics


def _by_label(parsed, name):
    """A one-label metric's samples as ``{label value: value}``."""
    return {labels[0][1]: value
            for (metric, labels), value in parsed.items() if metric == name}


def server_from_registry(registry):
    """``ServerMetrics.snapshot()`` rebuilt from registry reads."""
    parsed = parse_exposition(registry.exposition())
    prefix = adapters.SERVER_PREFIX
    snap = {name: sample(parsed, prefix + name)
            for name in adapters.SERVER_COUNTER_FIELDS
            + adapters.SERVER_GAUGE_FIELDS
            + ("uptime_seconds", "ops_per_second")}
    for name in ("ops_by_command", "commits_by_vsid"):
        snap[name] = _by_label(parsed, prefix + name)
    snap["latency"] = _by_label(parsed, prefix + "latency_ms")
    return snap


def replication_from_registry(registry):
    """``ReplicationMetrics.snapshot()`` rebuilt from registry reads."""
    parsed = parse_exposition(registry.exposition())
    prefix = adapters.REPLICATION_PREFIX
    snap = {name: sample(parsed, prefix + name)
            for name in adapters.REPLICATION_COUNTER_FIELDS + ("max_lag",)}
    snap["lag_by_stream"] = _by_label(parsed, prefix + "lag_by_stream")
    return snap


class FakeClock:
    """A hand-cranked monotonic clock."""

    def __init__(self, start: float = 100.0) -> None:
        self.t = start

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _busy_server_metrics(clock: FakeClock) -> ServerMetrics:
    metrics = ServerMetrics(clock=clock)
    clock.advance(2.0)
    metrics.observe_read(120, 3)
    metrics.observe_request(b"set", 0.004, 8)
    metrics.observe_request(b"get", 0.002, 40)
    metrics.observe_request(b"get", 0.001, 5)
    metrics.observe_commit(vsid=7)
    metrics.observe_commit(vsid=7)
    metrics.observe_commit(vsid=9)
    metrics.connections_opened = 2
    metrics.commit_batches = 4
    return metrics


def test_server_snapshot_round_trip():
    clock = FakeClock()
    metrics = _busy_server_metrics(clock)
    registry = MetricsRegistry()
    adapters.register_server_metrics(registry, metrics)
    assert server_from_registry(registry) == metrics.snapshot()


def test_server_round_trip_tracks_live_updates():
    clock = FakeClock()
    metrics = _busy_server_metrics(clock)
    registry = MetricsRegistry()
    adapters.register_server_metrics(registry, metrics)
    # mutate after registration: the registry reads live state
    clock.advance(3.5)
    metrics.observe_request(b"delete", 0.009, 9)
    assert server_from_registry(registry) == metrics.snapshot()


def test_every_server_scalar_field_is_registered():
    covered = set(adapters.SERVER_COUNTER_FIELDS) \
        | set(adapters.SERVER_GAUGE_FIELDS)
    scalar = {f.name for f in dataclass_fields(ServerMetrics)
              if f.type == "int" and not f.name.startswith("_")}
    assert scalar == covered


def test_replication_snapshot_round_trip():
    metrics = ReplicationMetrics()
    metrics.bytes_sent = 512
    metrics.lines_shipped = 20
    metrics.lines_deduped_on_arrival = 6
    metrics.root_advances = 3
    metrics.lag_by_stream = {0: 2, 1: 0}
    registry = MetricsRegistry()
    adapters.register_replication_metrics(registry, metrics)
    assert replication_from_registry(registry) == metrics.snapshot()


def test_every_replication_scalar_field_is_registered():
    scalar = {f.name for f in dataclass_fields(ReplicationMetrics)
              if f.type == "int"}
    assert scalar == set(adapters.REPLICATION_COUNTER_FIELDS)


def test_dram_round_trip_and_exposition():
    dram = DramStats(reads=5, lookups=11, refcount=2)
    registry = MetricsRegistry()
    adapters.register_dram_stats(registry, dram)
    assert _by_label(parse_exposition(registry.exposition()),
                     adapters.DRAM_METRIC) == dram.as_dict()
    dram.writes += 4  # live view
    parsed = parse_exposition(registry.exposition())
    assert sample(parsed, adapters.DRAM_METRIC, category="writes") == 4
    assert sample(parsed, adapters.DRAM_METRIC, category="lookups") == 11


def test_exposition_carries_labeled_server_series():
    clock = FakeClock()
    metrics = _busy_server_metrics(clock)
    registry = MetricsRegistry()
    adapters.register_server_metrics(registry, metrics)
    parsed = parse_exposition(registry.exposition())
    assert sample(parsed, "repro_server_ops_by_command", command="get") == 2
    assert sample(parsed, "repro_server_commits_by_vsid", vsid="7") == 2
    latency = metrics.snapshot()["latency"]
    assert sample(parsed, "repro_server_latency_ms", quantile="p99_ms") \
        == latency["p99_ms"]


def _churned_epoch_store():
    from repro.memory.dedup_store import DedupStore

    store = DedupStore()
    store.hold_reclaim()
    plids = [store.lookup((i + 1, i + 2))[0] for i in range(12)]
    for plid in plids[:8]:
        store.decref(plid)
    store.lookup((1, 2))  # resurrect one deferred line
    store.reclaim_advance(4)
    return store


def test_reclaim_registration_mirrors_snapshot():
    store = _churned_epoch_store()
    registry = MetricsRegistry()
    adapters.register_reclaim(registry, store)
    parsed = parse_exposition(registry.exposition())
    snap = store.reclaim_snapshot()
    assert sample(parsed, "repro_reclaim_pending_lines") \
        == snap["pending_lines"] == store.pending_lines()
    assert sample(parsed, "repro_reclaim_epoch") == snap["epoch"]
    for reason in adapters.RECLAIM_DRAIN_REASONS:
        assert sample(parsed, "repro_reclaim_drained_total",
                      reason=reason) == snap["drained_" + reason]
    assert sample(parsed, "repro_reclaim_deferred_total") \
        == snap["deferred_total"] == 8
    assert sample(parsed, "repro_reclaim_free_slots") == snap["free_slots"]
    # free ways are the zero signature bytes of every bucket; nothing
    # spilled, so each resident line holds one way
    config = store.config
    assert snap["free_slots"] == snap["allocator"]["free_ways"] \
        == config.num_buckets * config.data_ways - store.footprint_lines()
    assert sorted(snap["allocator"]) == ["free_overflow", "free_ways",
                                         "overflow_reused"]
    assert sample(parsed, "repro_reclaim_pressure_drains_total") \
        == snap["pressure_drains"]
    # the registry is a live view, not a copy
    store.reclaim_quiesce()
    parsed = parse_exposition(registry.exposition())
    assert sample(parsed, "repro_reclaim_pending_lines") == 0
    assert sample(parsed, "repro_reclaim_quiesces_total") == 1


def test_reclaim_schema_is_kind_independent():
    from repro.memory.dedup_store import DedupStore

    expositions = {}
    for held in (False, True):
        store = DedupStore()
        if held:
            store.hold_reclaim()
        registry = MetricsRegistry()
        adapters.register_reclaim(registry, store)
        parsed = parse_exposition(registry.exposition())
        expositions[held] = parsed
        # stats-json consumers see every series, held or not
        assert sample(parsed, "repro_reclaim_pending_lines") == 0
        assert sample(parsed, "repro_reclaim_pressure_drains_total") == 0
        for reason in adapters.RECLAIM_DRAIN_REASONS:
            assert sample(parsed, "repro_reclaim_drained_total",
                          reason=reason) == 0
    # identical series, label values included
    assert expositions[False] == expositions[True]


def eviction_from_registry(registry, shard=0):
    """One shard's ``dataclasses.asdict(EvictionStats)`` rebuilt from
    registry reads."""
    parsed = parse_exposition(registry.exposition())
    return {name: sample(parsed, adapters.EVICTION_PREFIX + name + "_total",
                         shard=shard)
            for name in adapters.EVICTION_COUNTER_FIELDS}


class TestEvictionAdapter:
    def test_legacy_snapshot_is_byte_compatible(self):
        machine = Machine()
        server = ManagedMemcached(machine, quota_bytes=512)
        registry = MetricsRegistry()
        adapters.register_eviction(registry, server.eviction)
        for i in range(12):
            server.set(b"key-%d" % i, b"x" * 64, exptime=1)
        server.tick(100)
        server.get(b"key-0")          # lazy-expires
        assert sample(parse_exposition(registry.exposition()),
                      "repro_eviction_expired_total", shard=0) \
            == server.eviction.expired
        assert eviction_from_registry(registry) \
            == dataclasses.asdict(server.eviction)

    def test_multi_shard_labels(self):
        machine = Machine()
        shards = [ManagedMemcached(machine, quota_bytes=256)
                  for _ in range(2)]
        registry = MetricsRegistry()
        adapters.register_eviction(registry,
                                   [s.eviction for s in shards])
        for i in range(8):
            shards[1].set(b"key-%d" % i, b"y" * 64)
        snapshot = _by_label(parse_exposition(registry.exposition()),
                             "repro_eviction_evicted_total")
        assert set(snapshot) == {"0", "1"}
        assert snapshot["1"] == shards[1].eviction.evicted > 0
        assert eviction_from_registry(registry, shard=1) \
            == dataclasses.asdict(shards[1].eviction)
