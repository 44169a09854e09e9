"""Cache management for the HICAMP memcached: TTL expiry and LRU
eviction under a memory quota.

Real memcached "pre-allocates a user configured memory quota and uses a
custom slab memory allocator. Reference counting is used to keep track
of the allocated memory... Additionally, a time-out mechanism is
necessary" (section 4.4). On HICAMP most of that machinery disappears —
reclamation *is* the hardware reference counting — but a cache still
needs expiry and an eviction policy, so this layer adds them:

* every stored value carries an 8-byte expiry header inside its segment
  (all cache state lives in HICAMP memory);
* a logical clock advances with operations (tests can also advance it);
* when the machine's unique-line footprint exceeds the quota, the least
  recently used items are deleted — and because deletion just drops
  references, hardware reclaims exactly the unshared lines.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.apps.memcached.server import HicampMemcached, cas_token
from repro.core.machine import Machine

_HEADER = struct.Struct(">Q")
_NEVER = 0


@dataclass
class EvictionStats:
    """Expiry/eviction accounting."""

    expired: int = 0
    evicted: int = 0
    eviction_passes: int = 0


class ManagedMemcached(HicampMemcached):
    """Memcached with TTL expiry and a byte quota with LRU eviction."""

    def __init__(self, machine: Machine,
                 quota_bytes: Optional[int] = None) -> None:
        super().__init__(machine)
        self.quota_bytes = quota_bytes
        self.clock = 0
        self.eviction = EvictionStats()
        # process-local LRU metadata (real memcached equally keeps its
        # LRU chain in server-process state)
        self._lru: "OrderedDict[bytes, None]" = OrderedDict()

    # ------------------------------------------------------------------
    # clock

    def tick(self, amount: int = 1) -> int:
        """Advance the logical clock (each request also advances it)."""
        self.clock += amount
        return self.clock

    # ------------------------------------------------------------------
    # storage commands with expiry headers

    def get(self, key: bytes) -> Optional[bytes]:
        """Fetch, honouring expiry (lazily deletes a dead item)."""
        self.tick()
        raw = super().get(key)
        if raw is None:
            return None
        (deadline,) = _HEADER.unpack_from(raw)
        if deadline != _NEVER and self.clock > deadline:
            super().delete(key)
            self._lru.pop(key, None)
            self.eviction.expired += 1
            return None
        self._touch(key)
        return raw[_HEADER.size:]

    def delete(self, key: bytes) -> bool:
        """Remove an item."""
        self.tick()
        self._lru.pop(key, None)
        return super().delete(key)

    def add(self, key: bytes, value: bytes, exptime: int = 0) -> bool:
        """Store only if absent (expired items count as absent)."""
        if self.get(key) is not None:
            return False
        return self.set(key, value, exptime)

    def replace(self, key: bytes, value: bytes, exptime: int = 0) -> bool:
        """Store only if present and alive."""
        if self.get(key) is None:
            return False
        return self.set(key, value, exptime)

    def incr(self, key: bytes, delta: int = 1) -> Optional[int]:
        """Increment a decimal counter value (expiry preserved as-is)."""
        current = self.get(key)
        if current is None:
            return None
        new = max(0, int(current or b"0") + delta)
        self.set(key, b"%d" % new)
        return new

    def cas(self, key: bytes, value: bytes, token: bytes,
            exptime: int = 0) -> bool:
        """Conditional store; a stored one ticks in :meth:`set_many`,
        a refused one here, so every request ticks once."""
        stored = super().cas(key, value, token, exptime)
        if not stored:
            self.tick()
        return stored

    def set_many(self, items) -> None:
        """Store ``(key, value, exptime)`` items in one commit, each with
        an expiry header (0 = never expires); every store lands here.

        Item *i* gets the deadline the *i*-th of as many sequential
        :meth:`set` calls would give it (the clock advances once per
        item); the quota is enforced once, after the whole run lands.
        """
        staged = []
        for key, value, exptime in items:
            self.tick()
            deadline = self.clock + exptime if exptime else _NEVER
            staged.append((key, _HEADER.pack(deadline) + value, exptime))
        super().set_many(staged)
        for key, _, _ in items:
            self._touch(key)
        self._enforce_quota()

    def _token(self, key: bytes) -> Optional[bytes]:
        """CAS token over the *logical* value, header excluded.

        Content identity must mean value identity (the checker's spec and
        the paper's root-compare argument); hashing the header would make
        equal values with different deadlines look different.
        """
        raw = self.kvp.get(key)
        if raw is None:
            return None
        return cas_token(raw[_HEADER.size:])

    def flush_all(self) -> None:
        """Drop every item and forget the LRU chain."""
        self.tick()
        self._lru.clear()
        super().flush_all()

    # ------------------------------------------------------------------
    # LRU / quota

    def _touch(self, key: bytes) -> None:
        self._lru.pop(key, None)
        self._lru[key] = None

    def _enforce_quota(self) -> None:
        if self.quota_bytes is None:
            return
        if self.machine.footprint_bytes() <= self.quota_bytes:
            return
        self.eviction.eviction_passes += 1
        while (self.machine.footprint_bytes() > self.quota_bytes
               and self._lru):
            victim, _ = self._lru.popitem(last=False)  # least recent
            if super().delete(victim):
                self.eviction.evicted += 1

    def live_items(self) -> int:
        """Items currently tracked by the LRU (alive, unexpired-ish)."""
        return len(self._lru)

    def extra_stats(self) -> dict:
        """Eviction accounting on top of the base server's counters."""
        stats = super().extra_stats()
        stats.update({
            "expired": self.eviction.expired,
            "evicted": self.eviction.evicted,
            "eviction_passes": self.eviction.eviction_passes,
            "live_items": self.live_items(),
        })
        return stats
