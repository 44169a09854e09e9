"""Per-tenant namespaces (TenantMemcached) and their observability.

Each tenant prefix owns a *separate* HMap — a separate VSID, so one
tenant's churn can never perturb another's canonical root, and a
tenant's whole namespace is one `drop` away from reclaimed. The
registry adapters (PR 4 idiom) expose per-tenant counters and the
eviction silo, with byte-compat round trips over its ``*_FIELDS``.
"""

import dataclasses

from repro.apps.memcached import DEFAULT_TENANT, TenantMemcached
from repro.apps.memcached.eviction import ManagedMemcached
from repro.core.machine import Machine
from repro.obs import adapters
from repro.obs.registry import MetricsRegistry


def make():
    return TenantMemcached(Machine())


class TestTenantRouting:
    def test_prefix_selects_namespace(self):
        server = make()
        server.set(b"acme:user-1", b"a")
        server.set(b"globex:user-1", b"b")
        assert server.get(b"acme:user-1") == b"a"
        assert server.get(b"globex:user-1") == b"b"
        assert set(server.vsids()) == {DEFAULT_TENANT, b"acme",
                                       b"globex"}

    def test_namespaces_have_distinct_vsids(self):
        server = make()
        server.set(b"acme:k", b"v")
        server.set(b"globex:k", b"v")
        vsids = server.vsids()
        assert len(set(vsids.values())) == len(vsids)

    def test_unprefixed_keys_land_in_the_default_tenant(self):
        server = make()
        server.set(b"plain-key", b"v")
        server.set(b":leading-separator", b"w")
        assert server.tenant_of(b"plain-key") == DEFAULT_TENANT
        assert server.tenant_of(b":leading-separator") == DEFAULT_TENANT
        assert server.get(b"plain-key") == b"v"

    def test_same_key_suffix_is_isolated_across_tenants(self):
        server = make()
        server.set(b"a:k", b"from-a")
        server.set(b"b:k", b"from-b")
        server.delete(b"a:k")
        assert server.get(b"a:k") is None
        assert server.get(b"b:k") == b"from-b"

    def test_identical_tenant_contents_share_canonical_roots(self):
        # dedup across backends: the same tenant namespace holding the
        # same items has the same canonical root, wherever it lives
        machine = Machine()
        one, two = TenantMemcached(machine), TenantMemcached(machine)
        for i in range(8):
            one.set(b"acme:key-%d" % i, b"value-%d" % i)
        for i in reversed(range(8)):        # different order, too
            two.set(b"acme:key-%d" % i, b"value-%d" % i)
        assert machine.segment_fingerprint(one.vsids()[b"acme"]) \
            == machine.segment_fingerprint(two.vsids()[b"acme"])

    def test_set_many_groups_by_tenant(self):
        server = make()
        server.set_many([(b"a:1", b"x"), (b"b:1", b"y"),
                         (b"a:2", b"z")])
        assert server.items_by_tenant() == {DEFAULT_TENANT: 0,
                                            b"a": 2, b"b": 1}
        assert server.item_count() == 3

    def test_cas_add_replace_incr_respect_tenancy(self):
        server = make()
        assert server.add(b"a:k", b"1")
        assert not server.add(b"a:k", b"2")
        assert server.add(b"b:k", b"9")
        assert server.replace(b"a:k", b"3")
        token = server.gets(b"a:k")[1]
        assert server.cas(b"a:k", b"4", token)
        assert server.incr(b"a:k", 1) == 5
        assert server.get(b"b:k") == b"9"

    def test_flush_all_drops_every_namespace(self):
        server = make()
        server.set_many([(b"a:1", b"x"), (b"b:1", b"y"),
                         (b"plain", b"z")])
        server.flush_all()
        assert server.item_count() == 0
        assert set(server.vsids()) == {DEFAULT_TENANT}
        # a get re-creates the namespace (create-on-use), empty
        assert server.get(b"a:1") is None
        assert server.items_by_tenant()[b"a"] == 0

    def test_per_tenant_stats(self):
        server = make()
        server.set(b"a:k", b"v")
        server.get(b"a:k")
        server.get(b"a:nope")
        server.get(b"b:k")
        server.delete(b"a:k")
        stats = server.tenant_stats
        assert stats[b"a"].sets == 1
        assert stats[b"a"].gets == 2
        assert stats[b"a"].get_hits == 1
        assert stats[b"a"].deletes == 1
        assert stats[b"b"].gets == 1
        assert stats[b"b"].get_hits == 0

    def test_extra_stats_reports_namespaces(self):
        server = make()
        server.set(b"a:1", b"x")
        extra = server.extra_stats()
        assert extra["tenants"] == 2  # default + a
        assert extra["tenant_a_items"] == 1


class TestTenantAdapters:
    def test_registry_counters_sum_across_shards(self):
        machine = Machine()
        shards = [TenantMemcached(machine), TenantMemcached(machine)]
        registry = MetricsRegistry()
        adapters.register_tenants(registry, shards)
        shards[0].set(b"a:1", b"x")
        shards[1].set(b"a:2", b"y")
        shards[1].set(b"b:1", b"z")
        shards[0].get(b"a:1")
        sets = registry.get("repro_tenant_sets_total").snapshot_value()
        items = registry.get("repro_tenant_items").snapshot_value()
        assert sets["a"] == 2
        assert sets["b"] == 1
        assert items["a"] == 2
        assert registry.get("repro_tenant_gets_total") \
            .snapshot_value()["a"] == 1
        assert registry.get("repro_tenant_namespaces") \
            .snapshot_value() == 3  # default + a + b


def eviction_from_registry(registry, shard=0):
    """One shard's ``dataclasses.asdict(EvictionStats)`` rebuilt from
    registry reads."""
    return {name: registry.get(adapters.EVICTION_PREFIX + name + "_total")
            .snapshot_value()[str(shard)]
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
        assert registry.get("repro_eviction_expired_total") \
            .snapshot_value()["0"] == server.eviction.expired
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
        snapshot = registry.get("repro_eviction_evicted_total") \
            .snapshot_value()
        assert set(snapshot) == {"0", "1"}
        assert snapshot["1"] == shards[1].eviction.evicted > 0
        assert eviction_from_registry(registry, shard=1) \
            == dataclasses.asdict(shards[1].eviction)
