"""Tests for memcached TTL expiry and quota/LRU eviction."""

import pytest

from repro.apps.memcached.eviction import ManagedMemcached
from repro.apps.memcached.protocol import ProtocolHandler


@pytest.fixture
def server(machine):
    return ManagedMemcached(machine)


class TestExpiry:
    def test_no_ttl_never_expires(self, server):
        server.set(b"k", b"v")
        server.tick(10_000)
        assert server.get(b"k") == b"v"

    def test_expires_after_ttl(self, server):
        server.set(b"k", b"v", exptime=5)
        assert server.get(b"k") == b"v"
        server.tick(10)
        assert server.get(b"k") is None
        assert server.eviction.expired == 1

    def test_expired_item_reclaimed(self, machine, server):
        server.set(b"k", bytes(range(250)), exptime=1)
        server.tick(5)
        assert server.get(b"k") is None
        # the value's lines were reclaimed by refcounting
        lines_after = machine.footprint_lines()
        server.set(b"other", b"x")
        assert machine.footprint_lines() >= lines_after  # sanity

    def test_add_treats_expired_as_absent(self, server):
        server.set(b"k", b"old", exptime=1)
        server.tick(5)
        assert server.add(b"k", b"new")
        assert server.get(b"k") == b"new"

    def test_replace_requires_alive(self, server):
        server.set(b"k", b"old", exptime=1)
        server.tick(5)
        assert not server.replace(b"k", b"new")

    def test_set_refreshes_ttl(self, server):
        server.set(b"k", b"v1", exptime=3)
        server.tick(2)
        server.set(b"k", b"v2", exptime=50)
        server.tick(10)
        assert server.get(b"k") == b"v2"

    def test_wire_cas_carries_its_exptime(self, server):
        handler = ProtocolHandler(server)
        assert handler.handle(b"set k 0 0 1\r\na\r\n") == b"STORED\r\n"
        token = handler.handle(b"gets k\r\n").split()[4]
        assert handler.handle(b"cas k 0 2 1 %s\r\nb\r\n" % token) \
            == b"STORED\r\n"
        assert handler.handle(b"get k\r\n") == b"VALUE k 0 1\r\nb\r\nEND\r\n"
        server.tick(5)
        assert handler.handle(b"get k\r\n") == b"END\r\n"

    def test_incr_on_managed_values(self, server):
        server.set(b"n", b"41")
        assert server.incr(b"n") == 42
        assert server.get(b"n") == b"42"


def unique_blob(i, size=1024):
    """High-entropy per-item value: deduplication cannot share these,
    so the quota actually fills (shared values would be nearly free)."""
    import random
    return random.Random("blob-%d" % i).getrandbits(8 * size).to_bytes(size, "big")


class TestQuotaEviction:
    def test_quota_evicts_lru(self, machine):
        server = ManagedMemcached(machine, quota_bytes=24 * 1024)
        for i in range(40):
            server.set(b"item-%02d" % i, unique_blob(i))
        assert server.eviction.evicted > 0
        assert machine.footprint_bytes() <= 24 * 1024
        # the most recently set item survived
        assert server.get(b"item-39") is not None

    def test_gets_protect_from_eviction(self, machine):
        server = ManagedMemcached(machine, quota_bytes=20 * 1024)
        server.set(b"precious", unique_blob(999))
        for i in range(40):
            server.get(b"precious")  # keep it hot
            server.set(b"filler-%02d" % i, unique_blob(i))
        assert server.get(b"precious") is not None

    def test_dedup_shared_values_stay_under_quota(self, machine):
        # the HICAMP twist: 40 copies of the same value cost one value,
        # so no eviction triggers despite the nominal volume
        server = ManagedMemcached(machine, quota_bytes=24 * 1024)
        shared = unique_blob(0, size=2048)
        for i in range(40):
            server.set(b"dup-%02d" % i, shared)
        assert server.eviction.evicted == 0
        assert server.live_items() == 40

    def test_no_quota_no_eviction(self, machine):
        server = ManagedMemcached(machine)
        for i in range(30):
            server.set(b"k%d" % i, unique_blob(i, size=256))
        assert server.eviction.evicted == 0

    def test_eviction_stats(self, machine):
        server = ManagedMemcached(machine, quota_bytes=12 * 1024)
        for i in range(30):
            server.set(b"k%02d" % i, unique_blob(i, size=512))
        assert server.eviction.eviction_passes > 0
        assert server.live_items() < 30
