"""Asyncio load generator for the serving layer.

``run_loadgen`` opens N concurrent TCP connections and drives pipelined
``get``/``set``/``cas`` traffic against a memcached-speaking server,
verifying as it goes:

* each client owns a **private keyspace** where it is the only writer —
  a sequential oracle (key → last value set) must match exactly what a
  pipelined read-back returns at the end of the run;
* all clients contend on a **shared keyspace** through ``gets``/``cas``
  — optimistic concurrency where losing is legal (``EXISTS``), but the
  final value of every shared key must be one some client actually
  committed;
* every batch is written in one syscall, so the server sees genuinely
  pipelined frames (its decoder and batched group-commit path are
  exercised, not just its happy path).

The :class:`LoadgenReport` mirrors the server's metrics block from the
client side: ops/s, batch-RTT percentiles, hit/miss and CAS outcomes.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Set, Tuple

from repro.net.framing import read_value_response, set_request
from repro.obs.latency import latency_summary

CRLF = b"\r\n"


@dataclass
class LoadgenReport:
    """Client-side view of one load-generation run."""

    clients: int = 0
    ops: int = 0
    wall_seconds: float = 0.0
    stored: int = 0
    get_hits: int = 0
    get_misses: int = 0
    cas_stored: int = 0
    cas_conflicts: int = 0
    errors: int = 0
    oracle_checked: int = 0
    oracle_mismatches: int = 0
    shared_checked: int = 0
    shared_mismatches: int = 0
    batch_rtts_ms: List[float] = field(default_factory=list)

    @property
    def ops_per_second(self) -> float:
        return self.ops / max(1e-9, self.wall_seconds)

    @property
    def consistent(self) -> bool:
        """True when every check against the oracle passed."""
        return self.oracle_mismatches == 0 and self.shared_mismatches == 0

    def latency(self) -> Dict[str, float]:
        return latency_summary(self.batch_rtts_ms)

    def as_dict(self) -> Dict:
        """JSON-safe summary."""
        return {
            "clients": self.clients,
            "ops": self.ops,
            "wall_seconds": round(self.wall_seconds, 3),
            "ops_per_second": round(self.ops_per_second, 1),
            "stored": self.stored,
            "get_hits": self.get_hits,
            "get_misses": self.get_misses,
            "cas_stored": self.cas_stored,
            "cas_conflicts": self.cas_conflicts,
            "errors": self.errors,
            "oracle_checked": self.oracle_checked,
            "oracle_mismatches": self.oracle_mismatches,
            "shared_checked": self.shared_checked,
            "shared_mismatches": self.shared_mismatches,
            "batch_rtt": self.latency(),
        }


# ----------------------------------------------------------------------
# wire helpers


async def read_line_response(reader: asyncio.StreamReader) -> bytes:
    """One single-line response (STORED, DELETED, counters, errors)."""
    return await reader.readline()


# ----------------------------------------------------------------------
# one client


class LoadgenClient:
    """One connection's worth of pipelined mixed traffic."""

    def __init__(self, cid: int, host: str, port: int, ops: int,
                 pipeline_depth: int, get_ratio: float, key_space: int,
                 value_bytes: int, seed: int,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.cid = cid
        self.host, self.port = host, port
        #: injectable time source (same discipline as ServerMetrics.clock)
        #: so RTT measurements are deterministic under a testing clock
        self.clock = clock
        self.ops = ops
        self.pipeline_depth = max(1, pipeline_depth)
        self.get_ratio = get_ratio
        self.key_space = key_space
        self.value_bytes = value_bytes
        self.rng = random.Random((seed << 16) | cid)
        self.oracle: Dict[bytes, bytes] = {}
        self.shared_committed: Dict[bytes, Set[bytes]] = {}
        self.report = LoadgenReport(clients=1)
        self._seq = 0
        self._cas_tokens: Dict[bytes, bytes] = {}
        self._cas_values: Dict[Tuple[bytes, bytes], bytes] = {}

    def _private_key(self) -> bytes:
        return b"c%d:k%02d" % (self.cid, self.rng.randrange(self.key_space))

    def _shared_key(self) -> bytes:
        return b"shared:k%02d" % self.rng.randrange(self.key_space)

    def _fresh_value(self) -> bytes:
        self._seq += 1
        return (b"v%d.%d." % (self.cid, self._seq)).ljust(
            self.value_bytes, b"x")

    def _plan_batch(self, budget: int) -> List[Tuple[str, bytes, bytes]]:
        """(kind, key, value) triples for one pipelined batch."""
        batch = []
        # any CAS token learned in the previous batch gets used first
        while self._cas_tokens and len(batch) < budget:
            key, token = self._cas_tokens.popitem()
            batch.append(("cas", key, token))
        while len(batch) < budget:
            roll = self.rng.random()
            if roll < self.get_ratio:
                key = (self._shared_key() if self.rng.random() < 0.3
                       else self._private_key())
                batch.append(("get", key, b""))
            elif roll < self.get_ratio + (1 - self.get_ratio) * 0.7:
                batch.append(("set", self._private_key(),
                              self._fresh_value()))
            else:
                batch.append(("gets", self._shared_key(), b""))
        return batch

    def _encode(self, batch) -> bytes:
        out = []
        for kind, key, extra in batch:
            if kind == "set":
                out.append(set_request(key, extra))
            elif kind == "cas":
                value = self._fresh_value()
                out.append(b"cas %s 0 0 %d %s\r\n%s\r\n"
                           % (key, len(value), extra, value))
                self._cas_values[(key, extra)] = value
            else:  # get / gets
                out.append(b"%s %s\r\n" % (kind.encode(), key))
        return b"".join(out)

    async def run(self) -> LoadgenReport:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        report = self.report
        try:
            while report.ops < self.ops:
                batch = self._plan_batch(min(self.pipeline_depth,
                                             self.ops - report.ops))
                started = self.clock()
                # one buffer, one syscall: the server sees the batch as
                # genuinely pipelined frames
                writer.write(self._encode(batch))
                await writer.drain()
                for kind, key, extra in batch:
                    await self._consume(reader, kind, key, extra)
                report.batch_rtts_ms.append(
                    (self.clock() - started) * 1000.0)
                report.ops += len(batch)
            await self._verify_private(reader, writer)
            writer.write(b"quit\r\n")
            await writer.drain()
        finally:
            await _close(writer)
        return report

    async def _consume(self, reader, kind: str, key: bytes,
                       extra: bytes) -> None:
        report = self.report
        if kind in ("get", "gets"):
            values = await read_value_response(reader)
            if key in values:
                report.get_hits += 1
                if kind == "gets":
                    self._cas_tokens[key] = values[key][1]
                if key in self.oracle:
                    report.oracle_checked += 1
                    if values[key][0] != self.oracle[key]:
                        report.oracle_mismatches += 1
            else:
                report.get_misses += 1
            return
        line = await read_line_response(reader)
        if kind == "set":
            if line == b"STORED" + CRLF:
                report.stored += 1
                self.oracle[key] = extra
            else:
                report.errors += 1
        elif kind == "cas":
            value = self._cas_values.pop((key, extra), None)
            if line == b"STORED" + CRLF:
                report.cas_stored += 1
                if value is not None:
                    self.shared_committed.setdefault(key, set()).add(value)
            elif line in (b"EXISTS" + CRLF, b"NOT_FOUND" + CRLF):
                report.cas_conflicts += 1
            else:
                report.errors += 1

    async def _verify_private(self, reader, writer) -> None:
        """Pipelined read-back of every private key against the oracle."""
        keys = sorted(self.oracle)
        if not keys:
            return
        writer.write(b"".join(b"get %s\r\n" % key for key in keys))
        await writer.drain()
        for key in keys:
            values = await read_value_response(reader)
            self.report.oracle_checked += 1
            if key not in values or values[key][0] != self.oracle[key]:
                self.report.oracle_mismatches += 1


async def _close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except Exception:
        pass


# ----------------------------------------------------------------------
# the fleet


async def run_loadgen(host: str, port: int, clients: int = 4,
                      ops_per_client: int = 100, pipeline_depth: int = 8,
                      get_ratio: float = 0.5, key_space: int = 16,
                      value_bytes: int = 32, seed: int = 0,
                      clock: Callable[[], float] = time.monotonic
                      ) -> LoadgenReport:
    """Drive ``clients`` concurrent pipelined connections; verify results."""
    shared_keys = [b"shared:k%02d" % j for j in range(key_space)]
    reader, writer = await asyncio.open_connection(host, port)
    # seed the shared keyspace so gets/cas have something to race on
    for key in shared_keys:
        writer.write(set_request(key, b"seed"))
    await writer.drain()
    for _ in shared_keys:
        await read_line_response(reader)

    fleet = [LoadgenClient(cid, host, port, ops_per_client, pipeline_depth,
                           get_ratio, key_space, value_bytes, seed,
                           clock=clock)
             for cid in range(clients)]
    started = clock()
    reports = await asyncio.gather(*(client.run() for client in fleet))
    wall = clock() - started

    total = LoadgenReport(clients=clients, wall_seconds=wall)
    committed: Dict[bytes, Set[bytes]] = {}
    for client, report in zip(fleet, reports):
        for name in ("ops", "stored", "get_hits", "get_misses", "cas_stored",
                     "cas_conflicts", "errors", "oracle_checked",
                     "oracle_mismatches"):
            setattr(total, name, getattr(total, name) + getattr(report, name))
        total.batch_rtts_ms.extend(report.batch_rtts_ms)
        for key, values in client.shared_committed.items():
            committed.setdefault(key, set()).update(values)

    # shared keys: the surviving value must be one somebody committed
    for key in shared_keys:
        writer.write(b"get %s\r\n" % key)
    await writer.drain()
    for key in shared_keys:
        values = await read_value_response(reader)
        total.shared_checked += 1
        legal = committed.get(key, set()) | {b"seed"}
        if key not in values or values[key][0] not in legal:
            total.shared_mismatches += 1
    await _close(writer)
    return total
