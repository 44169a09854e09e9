"""The conventional memcached baseline (Figure 6's left bars).

The paper measured this side by tracing a real memcached (inside VMware
Workstation) and replaying 300M+ loads/stores through DineroIV. We model
the same implementation structure as an address trace generated from
first principles and fed to the same cache hierarchy:

* a chained **hash table** over item records (memcached's design);
* **item records** holding header, key bytes and value bytes, laid out by
  a slab-like bump allocator;
* the **IPC path** the paper's analysis centres on: every get copies the
  value through a socket buffer to the client's receive buffer, and
  every set arrives through a socket buffer before being copied into the
  item — traffic HICAMP eliminates entirely by passing references.

The model charges only data accesses (no instruction fetch), which is
also what the HICAMP side counts.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Optional

from repro.memory.conventional import Arena, ConventionalMemory
from repro.params import ConventionalConfig

_HEADER_BYTES = 48  # next ptr, hash, key len, value len, flags, refcount...
_SOCKET_BUF = 8 * 1024

#: Chains in the item hash table.
HASH_BUCKETS = 4096


@dataclass
class _Item:
    addr: int
    key: bytes
    value_addr: int
    value_len: int
    next_addr: int  # address of the chain link we were reached through


class ConventionalMemcached:
    """Trace-generating model of a classic memcached process."""

    def __init__(self, config: ConventionalConfig = None) -> None:
        self.mem = ConventionalMemory(config or ConventionalConfig())
        self.arena = Arena(base=0x100000)
        self.table_addr = self.arena.alloc(8 * HASH_BUCKETS)
        # socket and client receive buffers, reused round-robin
        self.socket_buf = self.arena.alloc(_SOCKET_BUF)
        self.client_buf = self.arena.alloc(_SOCKET_BUF)
        self._sock_off = 0
        self._chains: Dict[int, list] = {}
        self._items: Dict[bytes, _Item] = {}

    # ------------------------------------------------------------------

    def _bucket(self, key: bytes) -> int:
        return zlib.crc32(key) % HASH_BUCKETS

    def _sock(self, size: int) -> int:
        """Rotating socket-buffer offset (buffers get reused)."""
        if self._sock_off + size > _SOCKET_BUF:
            self._sock_off = 0
        addr = self.socket_buf + self._sock_off
        self._sock_off += size
        return addr

    def _walk_chain(self, key: bytes):
        """Hash lookup: read the bucket head, then each chain item's
        header and key until a match."""
        bucket = self._bucket(key)
        self.mem.load(self.table_addr + 8 * bucket, 8)
        for item in self._chains.get(bucket, []):
            self.mem.load(item.addr, _HEADER_BYTES)
            # key compare: both the probe key (in the socket buffer) and
            # the stored key are touched
            self.mem.load(item.addr + _HEADER_BYTES, len(item.key))
            if item.key == key:
                return item
        return None

    # ------------------------------------------------------------------
    # commands (each models the full request path incl. IPC copies)

    def get(self, key: bytes) -> Optional[bytes]:
        """Lookup + copy the value out through the socket path."""
        # the request (key) arrives in the socket buffer
        req = self._sock(len(key))
        self.mem.store(req, len(key))
        self.mem.load(req, len(key))
        item = self._walk_chain(key)
        if item is None:
            return None
        # server reads the value and writes the response into the socket
        # buffer; the client then reads it into its own buffer
        out = self._sock(item.value_len)
        self.mem.load(item.value_addr, item.value_len)
        self.mem.store(out, item.value_len)
        self.mem.load(out, item.value_len)
        self.mem.store(self.client_buf, item.value_len)
        return b"\x00" * item.value_len  # placeholder payload

    def set(self, key: bytes, value: bytes) -> None:
        """Receive through the socket buffer, allocate, copy, link."""
        req = self._sock(len(key) + len(value))
        self.mem.store(req, len(key) + len(value))  # client -> kernel
        self.mem.load(req, len(key) + len(value))   # server reads request
        existing = self._walk_chain(key)
        if existing is not None and existing.value_len >= len(value):
            # update in place
            self.mem.store(existing.value_addr, len(value))
            existing.value_len = len(value)
            return
        addr = self.arena.alloc(_HEADER_BYTES + len(key) + len(value))
        self.mem.store(addr, _HEADER_BYTES)                    # header init
        self.mem.store(addr + _HEADER_BYTES, len(key))         # key copy
        value_addr = addr + _HEADER_BYTES + len(key)
        self.mem.store(value_addr, len(value))                 # value copy
        bucket = self._bucket(key)
        self.mem.load(self.table_addr + 8 * bucket, 8)
        self.mem.store(self.table_addr + 8 * bucket, 8)        # head link
        item = _Item(addr, key, value_addr, len(value), 0)
        chain = self._chains.setdefault(bucket, [])
        if existing is not None:
            chain.remove(existing)
        chain.insert(0, item)
        self._items[key] = item

    def delete(self, key: bytes) -> bool:
        """Unlink from the chain (pointer write)."""
        req = self._sock(len(key))
        self.mem.store(req, len(key))
        self.mem.load(req, len(key))
        item = self._walk_chain(key)
        if item is None:
            return False
        bucket = self._bucket(key)
        self._chains[bucket].remove(item)
        self._items.pop(key, None)
        self.mem.store(self.table_addr + 8 * bucket, 8)
        return True

    # ------------------------------------------------------------------

    def item_count(self) -> int:
        """Number of stored items."""
        return len(self._items)

    def footprint_bytes(self) -> int:
        """Arena bytes consumed (headers + keys + values + table)."""
        return self.arena.used
