"""Multi-tenant namespaces: one HICAMP segment (VSID) per tenant.

A production cache is shared by many applications; real deployments
carve the keyspace with prefixes (``tenant:key``) and then lose all
per-tenant accounting, because every item lands in one hash table. On
HICAMP a namespace is simply *its own segment*: the tenant prefix
selects a per-tenant :class:`~repro.structures.hmap.HMap`, so

* per-tenant item counts and op counters are exact and free — each
  tenant's map root is a distinct VSID with its own entry count;
* dropping a tenant is one segment release (hardware reclaims exactly
  its unshared lines), not a keyspace scan;
* deduplication still spans tenants — the maps share one machine, so a
  value stored by two tenants occupies one set of lines;
* a tenant's state can be fingerprinted, replicated or snapshotted
  independently via its VSID.

Keys are stored whole (prefix included), so any client talking the
plain memcached protocol gets namespace isolation just by prefixing.
Keys with no separator live in the default tenant (``_``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.apps.memcached.server import HicampMemcached
from repro.core.machine import Machine
from repro.structures.hmap import HMap

#: Namespace of keys that carry no separator.
DEFAULT_TENANT = b"_"


@dataclass
class TenantStats:
    """Per-namespace operation counters."""

    gets: int = 0
    get_hits: int = 0
    sets: int = 0
    deletes: int = 0


class TenantMemcached(HicampMemcached):
    """Memcached whose keyspace is split into per-tenant segments."""

    BULK_SAFE = True

    def __init__(self, machine: Machine, separator: bytes = b":") -> None:
        super().__init__(machine)
        self.separator = separator
        #: tenant -> its map; the base class's ``kvp`` serves as the
        #: default tenant, keeping the single-map surface (vsid
        #: accounting, flush) intact for the router.
        self.tenants: Dict[bytes, HMap] = {DEFAULT_TENANT: self.kvp}
        self.tenant_stats: Dict[bytes, TenantStats] = {
            DEFAULT_TENANT: TenantStats()}

    # ------------------------------------------------------------------
    # routing

    def tenant_of(self, key: bytes) -> bytes:
        """The namespace a key belongs to (prefix before the separator)."""
        at = key.find(self.separator)
        return key[:at] if at > 0 else DEFAULT_TENANT

    def _map(self, tenant: bytes) -> HMap:
        kvp = self.tenants.get(tenant)
        if kvp is None:
            kvp = HMap.create(self.machine)
            self.tenants[tenant] = kvp
            self.tenant_stats[tenant] = TenantStats()
        return kvp

    def _route(self, key: bytes) -> Tuple[HMap, TenantStats]:
        tenant = self.tenant_of(key)
        return self._map(tenant), self.tenant_stats[tenant]

    def vsids(self) -> Dict[bytes, int]:
        """Each tenant's segment VSID (stable handles for stats,
        fingerprints, replication)."""
        return {tenant: kvp.vsid
                for tenant, kvp in sorted(self.tenants.items())}

    # ------------------------------------------------------------------
    # commands (same semantics as the base class, routed per tenant)

    def get(self, key: bytes) -> Optional[bytes]:
        kvp, tstats = self._route(key)
        self.stats.gets += 1
        tstats.gets += 1
        value = kvp.get(key)
        if value is not None:
            self.stats.get_hits += 1
            tstats.get_hits += 1
        return value

    def set(self, key: bytes, value: bytes) -> bool:
        kvp, tstats = self._route(key)
        kvp.put(key, value)
        self.stats.sets += 1
        tstats.sets += 1
        return True

    def set_many(self, items) -> None:
        """Bulk ingest: one :meth:`HMap.put_many` commit per tenant.

        Repeated keys stage once (last value wins) and ``sets`` counts
        every occurrence, once the whole batch has landed.
        """
        groups: Dict[bytes, List[Tuple[bytes, bytes]]] = {}
        for key, value in items:
            groups.setdefault(self.tenant_of(key), []).append((key, value))
        for tenant in sorted(groups):
            self._map(tenant).put_many(list(dict(groups[tenant]).items()))
        self.stats.sets += len(items)
        for tenant, group in groups.items():
            self.tenant_stats[tenant].sets += len(group)

    def delete(self, key: bytes) -> bool:
        kvp, tstats = self._route(key)
        self.stats.deletes += 1
        tstats.deletes += 1
        hit = kvp.delete(key)
        if hit:
            self.stats.delete_hits += 1
        return hit

    def add(self, key: bytes, value: bytes) -> bool:
        kvp, _ = self._route(key)
        if kvp.contains(key):
            return False
        return self.set(key, value)

    def replace(self, key: bytes, value: bytes) -> bool:
        kvp, _ = self._route(key)
        if not kvp.contains(key):
            return False
        return self.set(key, value)

    def incr(self, key: bytes, delta: int = 1) -> Optional[int]:
        kvp, _ = self._route(key)
        current = kvp.get(key)
        if current is None:
            return None
        new = max(0, int(current or b"0") + delta)
        kvp.put(key, b"%d" % new)
        return new

    def cas(self, key: bytes, value: bytes, token: bytes) -> bool:
        kvp, _ = self._route(key)
        self.stats.cas_ops += 1
        if self._token(key) != token:
            self.stats.cas_failures += 1
            return False
        kvp.put(key, value)
        return True

    def _token(self, key: bytes) -> Optional[bytes]:
        kvp, _ = self._route(key)
        current = kvp.get(key)
        if current is None:
            return None
        import hashlib
        return hashlib.blake2b(current, digest_size=8).digest()

    def flush_all(self) -> None:
        """Drop every namespace; the default tenant is recreated."""
        self.stats.flushes += 1
        for kvp in self.tenants.values():
            kvp.drop()
        self.kvp = HMap.create(self.machine)
        self.tenants = {DEFAULT_TENANT: self.kvp}
        self.tenant_stats = {DEFAULT_TENANT: TenantStats()}

    # ------------------------------------------------------------------
    # accounting

    def item_count(self) -> int:
        return sum(len(kvp) for kvp in self.tenants.values())

    def items_by_tenant(self) -> Dict[bytes, int]:
        """Current item count per namespace (each map's count word)."""
        return {tenant: len(kvp)
                for tenant, kvp in sorted(self.tenants.items())}

    def extra_stats(self) -> dict:
        stats = super().extra_stats()
        stats["tenants"] = len(self.tenants)
        for tenant, count in self.items_by_tenant().items():
            stats["tenant_%s_items" % tenant.decode("ascii", "replace")] \
                = count
        return stats
