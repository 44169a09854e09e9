"""Memcached on HICAMP (section 4.4).

The key-value map is an :class:`~repro.structures.hmap.HMap`: a sparse
segment indexed by the content-unique identity of the key string, each
slot holding the root of the value segment. Consequences the paper calls
out, all of which hold here:

* a ``get`` loads an iterator/snapshot with a read-only reference and
  needs no interprocess communication, locking, or synchronization;
* deduplication ensures any given key has exactly one index, and equal
  values are stored once across the whole cache;
* an update commits by a hardware-atomic root swap, so a client halted
  mid-operation cannot leave the map inconsistent;
* merge-update absorbs concurrent non-conflicting updates (different
  keys) without application retry.

The command set covers the paper's list: get, set, delete, plus add,
replace, increment/decrement and CAS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.machine import Machine
from repro.structures.hmap import HMap


@dataclass
class ServerStats:
    """Operation counters (memcached's own ``stats`` command)."""

    gets: int = 0
    get_hits: int = 0
    sets: int = 0
    deletes: int = 0
    delete_hits: int = 0
    cas_ops: int = 0
    cas_failures: int = 0
    flushes: int = 0


class HicampMemcached:
    """A memcached server running directly on a HICAMP machine."""

    #: Whether the router may coalesce a run of sets into one
    #: :meth:`set_many` bulk commit. Subclasses that rewrite payloads
    #: per-store (TTL headers) must opt out.
    BULK_SAFE = True

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.kvp = HMap.create(machine)
        self.stats = ServerStats()

    # ------------------------------------------------------------------
    # basic commands

    def get(self, key: bytes) -> Optional[bytes]:
        """Fetch a value — snapshot read, no synchronization (§4.4)."""
        self.stats.gets += 1
        value = self.kvp.get(key)
        if value is not None:
            self.stats.get_hits += 1
        return value

    def set(self, key: bytes, value: bytes, exptime: int = 0) -> bool:
        """Store a key-value pair unconditionally.

        ``exptime`` is the wire TTL, ignored here and by ``add``,
        ``replace`` and ``cas``: the plain backend has no clock
        (:class:`~repro.apps.memcached.eviction.ManagedMemcached` does).
        """
        self.kvp.put(key, value)
        self.stats.sets += 1  # on success: ``sets`` counts STORED replies
        return True

    def set_many(self, items) -> None:
        """Store a batch of pairs in one atomic commit (bulk ingest).

        The whole batch is one tree rebuild and one root swap
        (:meth:`HMap.put_many`): how the router's queue worker lands
        a run of sets. A repeated key is staged once with its last value (what sequential sets
        would leave) but counts once per occurrence in ``sets``.
        """
        self.kvp.put_many(list(dict(items).items()))
        self.stats.sets += len(items)

    def delete(self, key: bytes) -> bool:
        """Remove a key; False when absent."""
        self.stats.deletes += 1
        hit = self.kvp.delete(key)
        if hit:
            self.stats.delete_hits += 1
        return hit

    # ------------------------------------------------------------------
    # conditional commands

    def add(self, key: bytes, value: bytes, exptime: int = 0) -> bool:
        """Store only if the key is absent (atomic via merge rules)."""
        if self.kvp.contains(key):
            return False
        self.kvp.put(key, value)
        self.stats.sets += 1
        return True

    def replace(self, key: bytes, value: bytes, exptime: int = 0) -> bool:
        """Store only if the key is present."""
        if not self.kvp.contains(key):
            return False
        self.kvp.put(key, value)
        self.stats.sets += 1
        return True

    def incr(self, key: bytes, delta: int = 1) -> Optional[int]:
        """Increment a decimal-ASCII counter value (memcached semantics)."""
        current = self.kvp.get(key)
        if current is None:
            return None
        new = max(0, int(current or b"0") + delta)
        self.kvp.put(key, b"%d" % new)
        return new

    def decr(self, key: bytes, delta: int = 1) -> Optional[int]:
        """Decrement, floored at zero as memcached specifies."""
        return self.incr(key, -delta)

    def gets(self, key: bytes) -> Optional[tuple]:
        """Value plus CAS token.

        The token is the content-unique identity of the value — on
        HICAMP, "has the value changed" is literally a root compare.
        """
        value = self.get(key)
        if value is None:
            return None
        return value, self._token(key)

    def cas(self, key: bytes, value: bytes, token: bytes,
            exptime: int = 0) -> bool:
        """Store only if the value is unchanged since :meth:`gets`."""
        self.stats.cas_ops += 1
        if self._token(key) != token:
            self.stats.cas_failures += 1
            return False
        self.kvp.put(key, value)
        return True

    def _token(self, key: bytes) -> Optional[bytes]:
        current = self.kvp.get(key)
        if current is None:
            return None
        # content identity: dedup makes equal values share one root, so
        # hashing the bytes is equivalent to comparing root PLIDs
        import hashlib
        return hashlib.blake2b(current, digest_size=8).digest()

    # ------------------------------------------------------------------
    # administrative commands

    def flush_all(self) -> None:
        """Drop every item at once.

        On HICAMP this is one segment release: the map root goes away and
        hardware reference counting reclaims exactly the unshared lines.
        """
        self.stats.flushes += 1
        old = self.kvp
        self.kvp = HMap.create(self.machine)
        old.drop()

    def version(self) -> bytes:
        """Server identification for the ``version`` command."""
        return b"repro-hicamp/1.0"

    def extra_stats(self) -> dict:
        """Server-specific counters appended to the ``stats`` response."""
        return {
            "flushes": self.stats.flushes,
            "footprint_bytes": self.footprint_bytes(),
        }

    # ------------------------------------------------------------------

    def item_count(self) -> int:
        """Number of stored key-value pairs."""
        return len(self.kvp)

    def footprint_bytes(self) -> int:
        """DRAM bytes consumed by the whole cache (unique lines)."""
        return self.machine.footprint_bytes()
