"""Cluster-aware client: owner-routed writes, fleet-spread reads.

:class:`ClusterClient` is a direct asyncio client for tests and fuzzing.
It holds a (possibly stale) topology, routes each write to the owning
leader, and reacts to the two stale-view signals a repair produces: a
**dead socket** (the owner crashed — refresh from any live node and
retry) and a **MOVED line** (a live leader refused the key — refresh
from the node MOVED names and retry). Reads prefer the owner's followers
round-robin, falling back to the leader.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, List, Optional, Tuple

from repro.cluster.node import parse_moved
from repro.cluster.placement import ClusterTopology
from repro.net.framing import (
    close_writer,
    read_value_response,
    set_request,
)

__all__ = ["ClusterClient", "ClusterUnavailableError"]

CRLF = b"\r\n"


class ClusterUnavailableError(ConnectionError):
    """No retry path led to a live owner within the attempt budget."""


class ClusterClient:
    """An asyncio memcached client that understands the cluster tier."""

    def __init__(self, topology: Optional[ClusterTopology] = None,
                 seeds: Optional[List[Tuple[str, int]]] = None,
                 max_retries: int = 40,
                 retry_delay: float = 0.05) -> None:
        self.topology = topology
        #: bootstrap addresses usable before (or instead of) a topology
        self.seeds = list(seeds or [])
        self.max_retries = max(1, max_retries)
        self.retry_delay = retry_delay
        self.moved_retries = 0
        self.refreshes = 0
        self.dead_retries = 0
        self._conns: Dict[Tuple[str, int], Tuple] = {}
        self._rr = 0

    # ------------------------------------------------------------------
    # connections

    async def _conn(self, host: str, port: int):
        addr = (host, port)
        if addr not in self._conns:
            self._conns[addr] = await asyncio.open_connection(host, port)
        return self._conns[addr]

    def _drop(self, host: str, port: int) -> None:
        conn = self._conns.pop((host, port), None)
        if conn is not None:
            conn[1].close()

    async def close(self) -> None:
        for _, writer in self._conns.values():
            await close_writer(writer)
        self._conns.clear()

    # ------------------------------------------------------------------
    # topology refresh

    async def fetch_topology(self, host: str,
                             port: int) -> ClusterTopology:
        """The in-band ``cluster topology`` verb against one node."""
        reader, writer = await self._conn(host, port)
        try:
            writer.write(b"cluster topology" + CRLF)
            await writer.drain()
            line = await reader.readline()
            if not line or line.startswith(b"SERVER_ERROR") \
                    or line.startswith(b"ERROR"):
                raise ConnectionError("no topology at %s:%d" % (host, port))
            tail = await reader.readline()  # END
            if tail.strip() != b"END":
                raise ConnectionError("bad topology framing")
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            self._drop(host, port)
            raise
        return ClusterTopology.from_doc(json.loads(line.decode()))

    def _candidates(self) -> List[Tuple[str, int]]:
        out: List[Tuple[str, int]] = []
        if self.topology is not None:
            for node_id in sorted(self.topology.nodes):
                info = self.topology.nodes[node_id]
                out.append((info.host, info.port))
        for seed in self.seeds:
            if seed not in out:
                out.append(seed)
        return out

    async def refresh(self) -> bool:
        """Adopt the highest-epoch topology any reachable node serves."""
        best = self.topology
        found = False
        for host, port in self._candidates():
            try:
                topology = await self.fetch_topology(host, port)
            except (ConnectionError, OSError):
                continue
            if best is None or topology.epoch > best.epoch:
                best = topology
                found = True
        if found:
            self.topology = best
            self.refreshes += 1
        return found

    async def _refresh_from(self, addr: Tuple[str, int]) -> None:
        """Refresh preferring one node (the one MOVED pointed at)."""
        try:
            topology = await self.fetch_topology(*addr)
        except (ConnectionError, OSError):
            await self.refresh()
            return
        if self.topology is None or topology.epoch >= self.topology.epoch:
            self.topology = topology
            self.refreshes += 1

    # ------------------------------------------------------------------
    # operations

    async def _request_line(self, host: str, port: int,
                            payload: bytes) -> bytes:
        reader, writer = await self._conn(host, port)
        try:
            writer.write(payload)
            await writer.drain()
            line = await reader.readline()
            if not line:
                raise ConnectionResetError("peer closed")
            return line
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            self._drop(host, port)
            raise

    def _owner_info(self, key: bytes):
        if self.topology is None:
            return None
        return self.topology.node(self.topology.owner_of(key))

    async def set(self, key: bytes, value: bytes) -> bytes:
        """Owner-routed write with dead-socket and MOVED retry."""
        payload = set_request(key, value)
        for _ in range(self.max_retries):
            info = self._owner_info(key)
            if info is not None:
                try:
                    line = await self._request_line(info.host, info.port,
                                                    payload)
                except (ConnectionError, OSError):
                    self.dead_retries += 1
                    line = None
                if line is not None:
                    moved = parse_moved(line)
                    if moved is None:
                        return line
                    # a live leader refused the key: our epoch is stale
                    self.moved_retries += 1
                    _, _, host, port = moved
                    await self._refresh_from((host, port))
                    continue
            await self.refresh()
            await asyncio.sleep(self.retry_delay)
        raise ClusterUnavailableError("no owner accepted %r" % key)

    async def get(self, key: bytes) -> Optional[bytes]:
        """Fleet-spread snapshot read: followers first, leader fallback."""
        if self.topology is None:
            raise ClusterUnavailableError("no topology")
        owner = self.topology.owner_of(key)
        readers = self.topology.followers_of(owner)
        if readers:
            start = self._rr
            self._rr += 1
            readers = [readers[(start + i) % len(readers)]
                       for i in range(len(readers))]
        for node_id in readers + [owner]:
            info = self.topology.node(node_id)
            if info is None:
                continue
            try:
                reader, writer = await self._conn(info.host, info.port)
                writer.write(b"get %s\r\n" % key)
                await writer.drain()
                values = await read_value_response(reader)
            except (ConnectionError, OSError, ValueError,
                    asyncio.IncompleteReadError):
                self._drop(info.host, info.port)
                continue
            if key in values:
                return values[key][0]
            return None
        raise ClusterUnavailableError("no readable node for %r" % key)
