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

Fleet mode: the generator can drive **multiple endpoints** through a
routing policy — writes to a writer endpoint, plain ``get`` traffic
spread across read replicas (:class:`ReadSplitPolicy`, or the cluster
tier's topology-aware policy). Replica reads are snapshot reads that may
lag the writer, so the oracle check relaxes to *write-history*
membership: a returned value must be something this client actually
wrote (stale-but-legal is counted separately as ``stale_reads``, and the
final read-back always goes to the writer, strictly). The default
single-endpoint path is unchanged, byte for byte, report for report.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.net.metrics import latency_summary

CRLF = b"\r\n"


# ----------------------------------------------------------------------
# phase-shifting profiles


@dataclass
class PhaseSpec:
    """One phase of a shifting workload (``--phases`` / bench profiles).

    ``ops`` is this phase's per-client budget (0 = an even split of the
    run's total). ``skew`` > 0 concentrates key choice toward low
    indices — key ``i`` is drawn with the density of ``u**(1+skew)``
    mapped onto the keyspace, so ``skew=3`` sends roughly a third of
    all traffic to each client's hottest key. ``set_bias`` is the
    fraction of non-``get`` rolls that become ``set`` (the remainder
    turn into the ``gets``/``cas`` optimistic cycle); the classic mix
    is 0.7. ``del_ratio`` carves a slice of all ops into ``delete``
    churn — deletes free whole value subtrees for a near-zero op cost,
    which is what makes storm-phase reclaim pressure realistic.
    ``value_bytes`` = 0 inherits the run's value size. ``entropy``
    fills values with line-unique bytes instead of the classic
    ``x``-padding — padded values dedup to a handful of shared lines
    under content addressing, so a padded overwrite frees almost
    nothing; entropy values model real cache blobs where every store
    allocates and every overwrite frees its full footprint.
    """

    name: str = "steady"
    ops: int = 0
    get_ratio: float = 0.5
    skew: float = 0.0
    set_bias: float = 0.7
    del_ratio: float = 0.0
    value_bytes: int = 0
    entropy: bool = False


def parse_phases(spec: str) -> List[PhaseSpec]:
    """Parse ``--phases`` syntax: comma-separated phase specs, each
    ``name[:ops=N][:get=F][:skew=F][:set=F][:del=F][:value=N]``
    (plus ``entropy=0|1``), e.g.
    ``read:ops=400:get=0.9,storm:ops=400:get=0.05:set=0.95``."""
    phases = []
    for part in spec.split(","):
        fields_ = [f for f in part.strip().split(":") if f]
        if not fields_:
            raise ValueError("empty phase spec in %r" % spec)
        phase = PhaseSpec(name=fields_[0])
        for item in fields_[1:]:
            key, _, value = item.partition("=")
            try:
                if key == "ops":
                    phase.ops = int(value)
                elif key == "get":
                    phase.get_ratio = float(value)
                elif key == "skew":
                    phase.skew = float(value)
                elif key == "set":
                    phase.set_bias = float(value)
                elif key == "del":
                    phase.del_ratio = float(value)
                elif key == "value":
                    phase.value_bytes = int(value)
                elif key == "entropy":
                    phase.entropy = bool(int(value))
                else:
                    raise ValueError
            except ValueError:
                raise ValueError("bad phase field %r in %r" % (item, part))
        phases.append(phase)
    return phases


class PhaseGate:
    """Arrival barrier: every client enters phase ``k`` together, so a
    fleet-wide mix shift hits the server as one front, not a ragged
    per-client drift."""

    def __init__(self, parties: int, phases: int) -> None:
        self.parties = max(1, parties)
        self._arrived = [0] * phases
        self._events: List[Optional[asyncio.Event]] = [None] * phases

    async def wait(self, phase: int) -> None:
        event = self._events[phase]
        if event is None:
            event = self._events[phase] = asyncio.Event()
        self._arrived[phase] += 1
        if self._arrived[phase] >= self.parties:
            event.set()
        await event.wait()


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
    #: delete churn acknowledged (``DELETED`` / idempotent ``NOT_FOUND``)
    deleted: int = 0
    errors: int = 0
    oracle_checked: int = 0
    oracle_mismatches: int = 0
    shared_checked: int = 0
    shared_mismatches: int = 0
    #: replica reads that returned an older-but-legal value (fleet mode)
    stale_reads: int = 0
    #: endpoints driven (1 = classic single-server mode)
    endpoints: int = 1
    batch_rtts_ms: List[float] = field(default_factory=list)
    #: per-phase sections (phase-shifting runs only; empty otherwise)
    phases: List[Dict] = field(default_factory=list)

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
        out = {
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
        if self.deleted:
            # delete-churn runs only — classic mixes never issue
            # deletes, so their JSON stays byte-compatible
            out["deleted"] = self.deleted
        if self.endpoints > 1:
            # fleet mode only — the single-endpoint JSON stays
            # byte-compatible with every report ever written
            out["endpoints"] = self.endpoints
            out["stale_reads"] = self.stale_reads
        if self.phases:
            # phase-shifting runs only — same byte-compat discipline
            out["phases"] = self.phases
        return out


# ----------------------------------------------------------------------
# wire helpers


async def read_line_response(reader: asyncio.StreamReader) -> bytes:
    """One single-line response (STORED, DELETED, counters, errors)."""
    return await reader.readline()


async def read_value_response(
        reader: asyncio.StreamReader
) -> Dict[bytes, Tuple[bytes, bytes]]:
    """A get/gets response: key → (value, cas token or b"")."""
    values: Dict[bytes, Tuple[bytes, bytes]] = {}
    while True:
        line = await reader.readline()
        if line == b"END" + CRLF:
            return values
        if not line.startswith(b"VALUE "):
            raise ValueError("unexpected line in value response: %r" % line)
        parts = line.split()
        key, nbytes = parts[1], int(parts[3])
        token = parts[4] if len(parts) > 4 else b""
        block = await reader.readexactly(nbytes + len(CRLF))
        values[key] = (block[:-len(CRLF)], token)


def set_request(key: bytes, value: bytes) -> bytes:
    return b"set %s 0 0 %d\r\n%s\r\n" % (key, len(value), value)


# ----------------------------------------------------------------------
# routing policies (fleet mode)


class SingleEndpointPolicy:
    """Everything to endpoint 0 — the classic single-server path."""

    #: strict oracle: every read must return the last written value
    relaxed_reads = False

    def write_endpoint(self, key: bytes) -> int:
        return 0

    def read_endpoint(self, key: bytes) -> int:
        return 0


class ReadSplitPolicy:
    """One writer endpoint; plain reads round-robin the replicas.

    ``gets`` (CAS-token acquisition) counts as part of a
    read-modify-write cycle and goes to the writer — a token learned
    from a lagging replica would just burn a legal-but-useless CAS
    conflict.
    """

    relaxed_reads = True

    def __init__(self, writer: int = 0,
                 readers: Optional[List[int]] = None) -> None:
        self.writer = writer
        self.readers = list(readers) if readers else [writer]
        self._rr = 0

    def write_endpoint(self, key: bytes) -> int:
        return self.writer

    def read_endpoint(self, key: bytes) -> int:
        endpoint = self.readers[self._rr % len(self.readers)]
        self._rr += 1
        return endpoint


# ----------------------------------------------------------------------
# one client


class LoadgenClient:
    """One connection's worth of pipelined mixed traffic."""

    def __init__(self, cid: int, host: str, port: int, ops: int,
                 pipeline_depth: int, get_ratio: float, key_space: int,
                 value_bytes: int, seed: int,
                 clock: Callable[[], float] = time.monotonic,
                 endpoints: Optional[List[Tuple[str, int]]] = None,
                 policy=None,
                 phases: Optional[List[PhaseSpec]] = None,
                 phase_gate: Optional[PhaseGate] = None) -> None:
        self.cid = cid
        self.host, self.port = host, port
        #: (host, port) per endpoint index; the policy routes into this
        self.endpoints = list(endpoints) if endpoints else [(host, port)]
        self.policy = policy if policy is not None \
            else SingleEndpointPolicy()
        #: injectable time source (same discipline as ServerMetrics.clock)
        #: so RTT measurements are deterministic under a testing clock
        self.clock = clock
        self.ops = ops
        self.pipeline_depth = max(1, pipeline_depth)
        self.get_ratio = get_ratio
        self.key_space = key_space
        self.value_bytes = value_bytes
        #: current-phase mix knobs; phaseless runs never touch them
        self.skew = 0.0
        self.set_bias = 0.7
        self.del_ratio = 0.0
        self.entropy = False
        if phases:
            # resolve per-phase op budgets: zero-op phases split the
            # run's total evenly (copies — never mutate the caller's)
            from dataclasses import replace
            unsized = sum(1 for p in phases if p.ops <= 0)
            spare = max(0, ops - sum(p.ops for p in phases if p.ops > 0))
            share = spare // unsized if unsized else 0
            self.phases = [replace(p, ops=(p.ops if p.ops > 0 else share))
                           for p in phases]
            self.ops = sum(p.ops for p in self.phases)
        else:
            self.phases = []
        self.phase_gate = phase_gate
        #: raw per-phase RTT slices, for fleet-level re-aggregation
        self.phase_rtts: List[List[float]] = []
        self.rng = random.Random((seed << 16) | cid)
        self.oracle: Dict[bytes, bytes] = {}
        #: every value this client ever stored per key — the legal set
        #: for relaxed (replica-lag-aware) read checking
        self.history: Dict[bytes, Set[bytes]] = {}
        self.shared_committed: Dict[bytes, Set[bytes]] = {}
        self.report = LoadgenReport(clients=1,
                                    endpoints=len(self.endpoints))
        #: private keys whose last write was a delete — verified absent
        self.tombstones: Set[bytes] = set()
        self._seq = 0
        self._cas_tokens: Dict[bytes, bytes] = {}
        self._cas_values: Dict[Tuple[bytes, bytes], bytes] = {}

    def _key_index(self) -> int:
        """Key index draw; ``skew`` > 0 concentrates toward index 0.

        The skewless path keeps the original ``randrange`` draw so
        phaseless runs consume the RNG stream exactly as they always
        have (seeded traces stay reproducible across this change).
        """
        if self.skew <= 0.0:
            return self.rng.randrange(self.key_space)
        return min(self.key_space - 1,
                   int(self.key_space
                       * self.rng.random() ** (1.0 + self.skew)))

    def _private_key(self) -> bytes:
        return b"c%d:k%02d" % (self.cid, self._key_index())

    def _shared_key(self) -> bytes:
        return b"shared:k%02d" % self._key_index()

    def _fresh_value(self) -> bytes:
        self._seq += 1
        head = b"v%d.%d." % (self.cid, self._seq)
        if not self.entropy:
            return head.ljust(self.value_bytes, b"x")
        # line-unique filler: deterministic per (cid, seq, chunk), and
        # the 28-byte chunk stride keeps every 32-byte line distinct
        parts, size, i = [head], len(head), 0
        while size < self.value_bytes:
            chunk = b"%010d.%06d.%010d" % (self._seq, self.cid, i)
            parts.append(chunk)
            size += len(chunk)
            i += 1
        return b"".join(parts)[:self.value_bytes]

    def _plan_batch(self, budget: int) -> List[Tuple[str, bytes, bytes]]:
        """(kind, key, value) triples for one pipelined batch."""
        batch = []
        # any CAS token learned in the previous batch gets used first
        while self._cas_tokens and len(batch) < budget:
            key, token = self._cas_tokens.popitem()
            batch.append(("cas", key, token))
        while len(batch) < budget:
            roll = self.rng.random()
            # band layout keeps the classic (del_ratio=0) path drawing
            # the exact RNG stream it always did: get band first, then
            # the delete slice, then the historical set/gets split of
            # whatever remains
            write_band = 1 - self.get_ratio - self.del_ratio
            if roll < self.get_ratio:
                key = (self._shared_key() if self.rng.random() < 0.3
                       else self._private_key())
                batch.append(("get", key, b""))
            elif roll < self.get_ratio + self.del_ratio:
                batch.append(("delete", self._private_key(), b""))
            elif roll < self.get_ratio + self.del_ratio \
                    + write_band * self.set_bias:
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
            elif kind == "delete":
                out.append(b"delete %s\r\n" % key)
            elif kind == "cas":
                value = self._fresh_value()
                out.append(b"cas %s 0 0 %d %s\r\n%s\r\n"
                           % (key, len(value), extra, value))
                self._cas_values[(key, extra)] = value
            else:  # get / gets
                out.append(b"%s %s\r\n" % (kind.encode(), key))
        return b"".join(out)

    def _route(self, kind: str, key: bytes) -> int:
        """Endpoint index for one op: only plain reads go to replicas."""
        if kind == "get":
            return self.policy.read_endpoint(key)
        return self.policy.write_endpoint(key)

    async def run(self) -> LoadgenReport:
        conns = [await asyncio.open_connection(host, port)
                 for host, port in self.endpoints]
        try:
            if not self.phases:
                await self._drive(conns, self.ops)
            else:
                for idx, phase in enumerate(self.phases):
                    if self.phase_gate is not None:
                        await self.phase_gate.wait(idx)
                    self.get_ratio = phase.get_ratio
                    self.skew = phase.skew
                    self.set_bias = phase.set_bias
                    self.del_ratio = phase.del_ratio
                    self.entropy = phase.entropy
                    if phase.value_bytes > 0:
                        self.value_bytes = phase.value_bytes
                    counters = self._counter_state()
                    rtt_mark = len(self.report.batch_rtts_ms)
                    started = self.clock()
                    await self._drive(conns, phase.ops)
                    self._close_phase(phase, counters, rtt_mark,
                                      started, self.clock())
            await self._verify_private(conns)
            for _, writer in conns:
                writer.write(b"quit\r\n")
                await writer.drain()
        finally:
            for _, writer in conns:
                writer.close()
                try:
                    await writer.wait_closed()
                except Exception:
                    pass
        return self.report

    async def _drive(self, conns, ops: int) -> None:
        """The classic pipelined loop, for one ``ops``-sized budget."""
        report = self.report
        issued = 0
        while issued < ops:
            batch = self._plan_batch(min(self.pipeline_depth,
                                         ops - issued))
            # route, then group per endpoint preserving op order —
            # the single-endpoint case degenerates to the original
            # one-buffer-one-syscall pipeline, byte for byte
            grouped: Dict[int, List] = {}
            for op in batch:
                grouped.setdefault(self._route(op[0], op[1]),
                                   []).append(op)
            started = self.clock()
            for endpoint in sorted(grouped):
                conns[endpoint][1].write(self._encode(
                    grouped[endpoint]))
            for endpoint in sorted(grouped):
                await conns[endpoint][1].drain()
            for endpoint in sorted(grouped):
                for kind, key, extra in grouped[endpoint]:
                    await self._consume(conns[endpoint][0], kind,
                                        key, extra)
            report.batch_rtts_ms.append(
                (self.clock() - started) * 1000.0)
            issued += len(batch)
            report.ops += len(batch)

    _PHASE_COUNTERS = ("ops", "stored", "get_hits", "get_misses",
                       "cas_stored", "cas_conflicts", "deleted",
                       "errors")

    def _counter_state(self) -> Tuple[int, ...]:
        return tuple(getattr(self.report, name)
                     for name in self._PHASE_COUNTERS)

    def _close_phase(self, phase: PhaseSpec, counters: Tuple[int, ...],
                     rtt_mark: int, started: float, ended: float) -> None:
        """Append a per-phase section diffing counters since ``phase``
        began; raw RTT slices are kept aside for fleet aggregation."""
        wall = ended - started
        section = {"name": phase.name,
                   "get_ratio": phase.get_ratio,
                   "skew": phase.skew,
                   "wall_seconds": round(wall, 3),
                   "t_start": round(started, 6),
                   "t_end": round(ended, 6)}
        for name, before in zip(self._PHASE_COUNTERS, counters):
            section[name] = getattr(self.report, name) - before
        section["ops_per_second"] = round(
            section["ops"] / max(1e-9, wall), 1)
        rtts = self.report.batch_rtts_ms[rtt_mark:]
        section["batch_rtt"] = latency_summary(rtts)
        self.phase_rtts.append(rtts)
        self.report.phases.append(section)

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
                    value = values[key][0]
                    if value == self.oracle[key]:
                        pass
                    elif self.policy.relaxed_reads \
                            and value in self.history.get(key, ()):
                        # a lagging replica returned an older value this
                        # client really wrote: legal, and counted
                        report.stale_reads += 1
                    else:
                        report.oracle_mismatches += 1
            else:
                report.get_misses += 1
            return
        line = await read_line_response(reader)
        if kind == "set":
            if line == b"STORED" + CRLF:
                report.stored += 1
                self.oracle[key] = extra
                self.tombstones.discard(key)
                self.history.setdefault(key, set()).add(extra)
            else:
                report.errors += 1
        elif kind == "delete":
            if line in (b"DELETED" + CRLF, b"NOT_FOUND" + CRLF):
                # NOT_FOUND is legal churn (never-set or double-deleted
                # key) — what matters to the oracle is that the key is
                # now absent either way
                report.deleted += 1
                self.oracle.pop(key, None)
                self.tombstones.add(key)
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

    async def _verify_private(self, conns) -> None:
        """Pipelined read-back of every private key against the oracle.

        Always strict, always against the **write** endpoint — replica
        lag never excuses the authoritative copy from matching the
        oracle exactly.
        """
        keys = sorted(self.oracle) + sorted(self.tombstones)
        if not keys:
            return
        grouped: Dict[int, List[bytes]] = {}
        for key in keys:
            grouped.setdefault(self.policy.write_endpoint(key),
                               []).append(key)
        for endpoint in sorted(grouped):
            reader, writer = conns[endpoint]
            writer.write(b"".join(b"get %s\r\n" % key
                                  for key in grouped[endpoint]))
            await writer.drain()
            for key in grouped[endpoint]:
                values = await read_value_response(reader)
                self.report.oracle_checked += 1
                if key in self.oracle:
                    if key not in values \
                            or values[key][0] != self.oracle[key]:
                        self.report.oracle_mismatches += 1
                elif key in values:
                    # tombstoned key resurfaced: a mode lost the delete
                    self.report.oracle_mismatches += 1


# ----------------------------------------------------------------------
# the fleet


async def run_loadgen(host: str, port: int, clients: int = 4,
                      ops_per_client: int = 100, pipeline_depth: int = 8,
                      get_ratio: float = 0.5, key_space: int = 16,
                      value_bytes: int = 32, seed: int = 0,
                      clock: Callable[[], float] = time.monotonic,
                      endpoints: Optional[List[Tuple[str, int]]] = None,
                      policy_factory: Optional[Callable[[], object]] = None,
                      phases: Optional[List[PhaseSpec]] = None
                      ) -> LoadgenReport:
    """Drive ``clients`` concurrent pipelined connections; verify results.

    Fleet mode: pass ``endpoints`` (a list of ``(host, port)``; index 0
    is the default) and a ``policy_factory`` building one routing policy
    per client — each client needs its own (policies carry round-robin
    state). Seeding and the final shared-keyspace verification always go
    through each key's *write* endpoint.
    """
    endpoints = list(endpoints) if endpoints else [(host, port)]
    make_policy = policy_factory if policy_factory is not None \
        else SingleEndpointPolicy
    route = make_policy()  # for the seed/verify phases

    # group the shared keys by their write endpoint once; seeding and
    # final verification reuse the same grouping (and connections)
    shared_by_endpoint: Dict[int, List[bytes]] = {}
    for j in range(key_space):
        key = b"shared:k%02d" % j
        shared_by_endpoint.setdefault(route.write_endpoint(key),
                                      []).append(key)
    conns = {}
    for endpoint in sorted(shared_by_endpoint):
        conns[endpoint] = await asyncio.open_connection(
            *endpoints[endpoint])
    # seed the shared keyspace so gets/cas have something to race on
    for endpoint, keys in sorted(shared_by_endpoint.items()):
        reader, writer = conns[endpoint]
        for key in keys:
            writer.write(set_request(key, b"seed"))
        await writer.drain()
        for _ in keys:
            await read_line_response(reader)

    gate = PhaseGate(clients, len(phases)) if phases else None
    fleet = [LoadgenClient(cid, host, port, ops_per_client, pipeline_depth,
                           get_ratio, key_space, value_bytes, seed,
                           clock=clock, endpoints=endpoints,
                           policy=make_policy(),
                           phases=phases, phase_gate=gate)
             for cid in range(clients)]
    started = clock()
    reports = await asyncio.gather(*(client.run() for client in fleet))
    wall = clock() - started

    total = LoadgenReport(clients=clients, wall_seconds=wall,
                          endpoints=len(endpoints))
    committed: Dict[bytes, Set[bytes]] = {}
    for client, report in zip(fleet, reports):
        for name in ("ops", "stored", "get_hits", "get_misses", "cas_stored",
                     "cas_conflicts", "deleted", "errors", "oracle_checked",
                     "oracle_mismatches", "stale_reads"):
            setattr(total, name, getattr(total, name) + getattr(report, name))
        total.batch_rtts_ms.extend(report.batch_rtts_ms)
        for key, values in client.shared_committed.items():
            committed.setdefault(key, set()).update(values)

    if phases:
        # fleet-level phase sections: counters summed across clients,
        # wall = first-entry to last-exit (the gate aligns entries)
        for idx, phase in enumerate(phases):
            sections = [r.phases[idx] for r in reports]
            t_start = min(s["t_start"] for s in sections)
            t_end = max(s["t_end"] for s in sections)
            wall = t_end - t_start
            merged = {"name": phase.name,
                      "get_ratio": phase.get_ratio,
                      "skew": phase.skew,
                      "wall_seconds": round(wall, 3),
                      "t_start": round(t_start, 6),
                      "t_end": round(t_end, 6)}
            for name in LoadgenClient._PHASE_COUNTERS:
                merged[name] = sum(s[name] for s in sections)
            merged["ops_per_second"] = round(
                merged["ops"] / max(1e-9, wall), 1)
            rtts: List[float] = []
            for client in fleet:
                rtts.extend(client.phase_rtts[idx])
            merged["batch_rtt"] = latency_summary(rtts)
            total.phases.append(merged)

    # shared keys: the surviving value must be one somebody committed —
    # read from the write endpoint, where the answer is authoritative
    for endpoint, keys in sorted(shared_by_endpoint.items()):
        reader, writer = conns[endpoint]
        for key in keys:
            writer.write(b"get %s\r\n" % key)
        await writer.drain()
        for key in keys:
            values = await read_value_response(reader)
            total.shared_checked += 1
            legal = committed.get(key, set()) | {b"seed"}
            if key not in values or values[key][0] not in legal:
                total.shared_mismatches += 1
    for reader, writer in conns.values():
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass
    return total
