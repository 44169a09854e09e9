"""Seeded adversarial episodes against live servers (``repro fuzz``).

One **episode** is: build a :class:`~repro.testing.faults.FaultPlan`
from the episode seed, start a *topology* of servers with an injector
over that plan wired into every hook point, drive deterministic
scripted clients at it (pipelined mixed traffic over a shared keyspace,
recorded as an operation history), then judge the outcome three ways —

* the :mod:`~repro.testing.history` linearizability checker over the
  recorded history (including a final read-back of every key from its
  owner once the clients are done);
* the :mod:`~repro.testing.auditors` machine auditors in strict mode on
  every live machine (the harness holds no snapshots, so any refcount
  excess is a leak);
* a state check: on every live machine, the shards' maps hold exactly
  the read-back keys and values that machine's fleet owns.

``EpisodeConfig.topology`` names what the clients talk to:

==============  ========================================================
``single``      one server (the ``serving`` and ``expiry`` profiles)
``replicated``  that server as a replication leader with one follower,
                whose link has its own injector over the same plan;
                after the read-back the link heals and the follower's
                per-stream fingerprints must converge to the leader's
``cluster``     an in-process :class:`~repro.cluster.cluster.Cluster`
                (two leaders, two followers each) under a
                :class:`~repro.cluster.manager.TopologyManager`; each
                client writes only keys its ring slot owns, a seeded
                leader is crash-stopped between two seeded batches, and
                the manager must promote one follower in its place
==============  ========================================================

**Reproducibility contract**: an episode's *trace* — the fault plan,
the per-client op scripts, and the verdicts — is a pure function of the
episode seed. Client scripts are derived from the seed before any byte
hits a socket; injection decisions are pure functions of
``(seed, point, scope, seq)``; the verdicts are scheduling-independent
on correct code (any legal interleaving is linearizable and every
quiesced machine audits clean). ``repro fuzz --episodes N --seed S``
therefore prints byte-identical output on every run, and a failing
episode prints the single seed that replays it.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.manager import TopologyManager
from repro.cluster.placement import HashRing
from repro.core.machine import Machine
from repro.net.framing import (
    close_writer,
    read_line,
    read_value_response,
)
from repro.net.server import MemcachedServer
from repro.params import MachineConfig, MemoryConfig
from repro.replication.follower import ReplicationFollower
from repro.replication.leader import ReplicationLeader
from repro.segments import dag
from repro.structures.hmap import HMap
from repro.testing.auditors import audit_machine
from repro.testing.faults import (
    CONN_RESET,
    READ_SPLIT,
    FaultInjector,
    FaultPlan,
)
from repro.testing.history import (
    UNMATCHABLE,
    HistoryRecorder,
    check_history,
)

CRLF = b"\r\n"

#: Episode fault rates: the defaults plus occasional injected resets.
EPISODE_RATES = {CONN_RESET: 0.06}

#: Wall-clock ceiling per episode phase; hitting it is itself a failure.
EPISODE_TIMEOUT = 60.0

#: How long replicas get to reach fingerprint agreement after the run.
CONVERGE_TIMEOUT = 20.0

#: How long the cluster's manager gets to commit its repair.
REPAIR_TIMEOUT = 30.0

#: History client id of the final read-back.
READBACK_CLIENT = 10_000


@dataclass
class EpisodeConfig:
    """Shape of one adversarial episode (all derived-state seeded)."""

    clients: int = 3
    ops_per_client: int = 24
    pipeline_depth: int = 4
    key_space: int = 8
    shards: int = 2
    max_stall: int = 6
    rates: Optional[Dict[str, float]] = None
    #: fraction of planned sets that carry a seeded small TTL (the
    #: ``expiry`` profile: expired keys must never resurrect, even when
    #: injected commit stalls delay the deleting/storing commits)
    ttl_rate: float = 0.0
    #: alternative backend factory for the server under test (the
    #: ``expiry`` profile runs against ManagedMemcached); None = plain
    backend: Optional[Callable] = None
    #: memory geometry of the machine under test, passed whole: a small
    #: store spills buckets so lookups in them compare fingerprints
    #: *during* the episode. Episodes quiesce the store's reclamation
    #: queue before the machine auditors run (via the router drain and
    #: ``audit_refcounts``'s machine drain), and trace content is
    #: independent of every field by construction.
    memory: MemoryConfig = MemoryConfig()
    #: ``single``, ``replicated`` or ``cluster`` (see the module
    #: docstring). ``backend`` and ``memory`` shape the served machine
    #: of the first two; cluster nodes keep their own.
    topology: str = "single"


# ----------------------------------------------------------------------
# scripted clients


def derive(seed: int, label: str) -> int:
    """A 64-bit seed for ``label`` under ``seed`` (every profile's
    scripts, plans and episode seeds come from here)."""
    digest = hashlib.blake2b(b"%d/%s" % (seed, label.encode()),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _keyspace(cfg: EpisodeConfig) -> List[bytes]:
    return [b"k%02d" % j for j in range(cfg.key_space)]


def build_script(seed: int, cid: int, cfg: EpisodeConfig,
                  keys: Optional[List[bytes]] = None
                  ) -> List[List[Tuple[str, bytes]]]:
    """Plan one client's batches of (kind, key) before the episode runs.

    Pure function of the seed — the scripts are part of the episode
    trace. Keys are drawn from ``keys`` (default: the whole keyspace).
    ``cas`` is only planned for keys the plan has already ``gets``-ed,
    so every cas has a deterministic source for its token. With
    ``ttl_rate`` set, a planned set may become ``setx<N>`` — a set
    carrying TTL ``N`` (in the managed backend's logical ticks).
    """
    keys = keys or _keyspace(cfg)
    rng = random.Random(derive(seed, "script/%d" % cid))
    tokened = set()
    ops: List[Tuple[str, bytes]] = []
    for _ in range(cfg.ops_per_client):
        key = keys[rng.randrange(len(keys))]
        roll = rng.random()
        if roll < 0.40:
            kind = "set"
            if cfg.ttl_rate and rng.random() < cfg.ttl_rate:
                kind = "setx%d" % rng.randrange(1, 9)
        elif roll < 0.65:
            kind = "get"
        elif roll < 0.80:
            kind = "gets"
            tokened.add(key)
        elif roll < 0.92 and tokened:
            kind = "cas"
            key = sorted(tokened)[rng.randrange(len(tokened))]
        else:
            kind = "delete"
        ops.append((kind, key))
    return [ops[i:i + cfg.pipeline_depth]
            for i in range(0, len(ops), cfg.pipeline_depth)]


def script_digest(ops) -> str:
    """Digest of a planned script: ``(kind, *bytes fields)`` ops."""
    material = b";".join(b" ".join((op[0].encode(),) + tuple(op[1:]))
                         for op in ops)
    return hashlib.blake2b(material, digest_size=6).hexdigest()


class RecordingClient:
    """Drives one scripted connection and records its history."""

    def __init__(self, cid: int, script: List[List[Tuple[str, bytes]]],
                 recorder: HistoryRecorder) -> None:
        self.cid = cid
        self.script = script
        self.recorder = recorder
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.protocol_errors: List[str] = []
        self._seq = 0
        self._value_seq = 0
        # key -> (wire token bytes, the value the token was read from)
        self._tokens: Dict[bytes, Tuple[bytes, bytes]] = {}

    async def connect(self, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", port)

    def _fresh_value(self) -> bytes:
        self._value_seq += 1
        return b"v%d.%d" % (self.cid, self._value_seq)

    def _encode(self, kind: str, key: bytes):
        """Wire bytes plus recorder fields for one planned op: returns
        ``(wire, recorded kind, value, expect, ttl)`` — a planned
        ``setx<N>`` goes on the wire as a set with exptime N and is
        recorded as a ``set`` with ``ttl=N``."""
        if kind == "set" or kind.startswith("setx"):
            ttl = int(kind[4:]) if kind.startswith("setx") else 0
            value = self._fresh_value()
            return (b"set %s 0 %d %d\r\n%s\r\n"
                    % (key, ttl, len(value), value),
                    "set", value, None, ttl)
        if kind == "cas":
            value = self._fresh_value()
            token, expect = self._tokens.get(key, (b"0", UNMATCHABLE))
            return (b"cas %s 0 0 %d %s\r\n%s\r\n"
                    % (key, len(value), token, value),
                    "cas", value, expect, 0)
        return (b"%s %s\r\n" % (kind.encode(), key), kind, None, None, 0)

    async def _consume(self, op) -> None:
        """Read and record one op's response; raises on disconnect."""
        assert self.reader is not None
        if op.kind in ("get", "gets"):
            values = await read_value_response(self.reader)
            if op.key in values:
                value, token = values[op.key]
                if op.kind == "gets":
                    self._tokens[op.key] = (token, value)
                self.recorder.complete(op, ("value", value))
            else:
                self.recorder.complete(op, ("miss",))
            return
        line = await read_line(self.reader)
        mapped = {b"STORED" + CRLF: ("stored",),
                  b"NOT_STORED" + CRLF: ("not_stored",),
                  b"EXISTS" + CRLF: ("exists",),
                  b"NOT_FOUND" + CRLF: ("not_found",),
                  b"DELETED" + CRLF: ("deleted",)}.get(line)
        if mapped is None:
            if line.startswith((b"CLIENT_ERROR", b"SERVER_ERROR",
                                b"ERROR")):
                self.protocol_errors.append(
                    "c%d %s %r -> %r" % (self.cid, op.kind, op.key, line))
                mapped = ("error", line)
            else:
                raise ValueError("unparseable response %r" % line)
        self.recorder.complete(op, mapped)

    async def play(self, batches) -> None:
        """Send ``batches`` and record their replies. A reset (injected,
        or a crash-stopped server) closes the client for good: every op
        still awaiting a response stays pending — the checker treats
        its commit as "maybe landed"."""
        if self.writer is None:
            return
        try:
            for batch in batches:
                ops = []
                parts = []
                for kind, key in batch:
                    wire, recorded, value, expect, ttl = \
                        self._encode(kind, key)
                    parts.append(wire)
                    ops.append(self.recorder.invoke(
                        self.cid, self._seq, recorded, key,
                        value=value, expect=expect, ttl=ttl))
                    self._seq += 1
                self.writer.write(b"".join(parts))
                await self.writer.drain()
                for op in ops:
                    await self._consume(op)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            await self.close(quit=False)

    async def close(self, quit: bool = True) -> None:
        writer, self.writer = self.writer, None
        if writer is None:
            return
        try:
            if quit:
                writer.write(b"quit\r\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            await close_writer(writer)

    async def run(self) -> None:
        await self.play(self.script)
        await self.close()


async def _final_readback(port_of: Callable[[bytes], int],
                          keys: List[bytes],
                          recorder: HistoryRecorder) -> Dict[bytes, bytes]:
    """Read every key from its owner after the clients finished, one fresh
    connection per owner; returns the keys present with their values.

    These reads are real-time after every completed client op, so they
    pin down which pending (reset) commits actually landed.
    """
    batches: Dict[int, List[Tuple[str, bytes]]] = {}
    for key in keys:
        batches.setdefault(port_of(key), []).append(("get", key))
    reader = RecordingClient(READBACK_CLIENT, [], recorder)
    for port, batch in batches.items():
        await reader.connect(port)
        await reader.play([batch])
        await reader.close()
    return {op.key: op.result[1] for op in recorder.ops
            if op.client == READBACK_CLIENT and op.result
            and op.result[0] == "value"}


async def _until(predicate: Callable[[], bool], timeout: float) -> bool:
    """Poll ``predicate`` until it holds or ``timeout`` seconds pass."""
    loop = asyncio.get_event_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(0.02)
    return False


# ----------------------------------------------------------------------
# topologies
#
# Each one starts and stops its servers, connects and plays the clients,
# and names the port that owns a key and the live machines to judge.

#: A live machine to audit and state-check: ``(name, machine, its
#: shards' maps, owns(key) or None for every key)``.
Replica = Tuple[str, Machine, List[HMap], Optional[Callable[[bytes], bool]]]


class _Single:
    """One server: every client and the read-back talk to it."""

    title, label, heading, profile = "episode", "episode", "fuzz", None

    def __init__(self, seed: int, cfg: EpisodeConfig, plan: FaultPlan,
                 trace_recorder=None) -> None:
        self.seed, self.cfg = seed, cfg
        self.injector = FaultInjector(plan)
        self.machine = Machine(MachineConfig(memory=cfg.memory))
        backend_kwargs = {} if cfg.backend is None \
            else {"backend_factory": cfg.backend}
        self.server = MemcachedServer(
            port=0, machine=self.machine, shard_count=cfg.shards,
            injector=self.injector, recorder=trace_recorder,
            **backend_kwargs)

    def shape(self) -> str:
        return ""

    def scripts(self) -> Dict[int, List]:
        return {cid: build_script(self.seed, cid, self.cfg)
                for cid in range(self.cfg.clients)}

    def port_of(self, key: bytes) -> int:
        return self.server.port

    async def start(self) -> None:
        await self.server.start()

    async def play(self, clients: List[RecordingClient], trace: List[str],
                   failures: List[str]) -> None:
        for client in clients:  # sequential: deterministic accept order
            await client.connect(self.server.port)
        await asyncio.gather(*(client.run() for client in clients))

    async def drain(self) -> None:
        await self.server.router.drain()

    async def settle(self, trace: List[str], failures: List[str]) -> None:
        """Post-read-back convergence checks (none on one server)."""

    async def stop(self) -> None:
        await self.server.shutdown()

    def replicas(self) -> List[Replica]:
        return [("server", self.machine,
                 [backend.kvp for backend in self.server.router.servers],
                 None)]


class _Replicated(_Single):
    """The one server as a replication leader with one follower; the
    link runs through its own injector over the episode's plan."""

    title, label, heading, profile = ("replication episode", "repl-episode",
                                      "replication fuzz", "replication")
    LAG_WINDOW = 8

    def __init__(self, seed: int, cfg: EpisodeConfig, plan: FaultPlan,
                 trace_recorder=None) -> None:
        super().__init__(seed, cfg, plan, trace_recorder)
        self.leader = ReplicationLeader(
            self.server.router, heartbeat_interval=None,
            injector=FaultInjector(plan))
        self.leader.lag_window = self.LAG_WINDOW
        self.follower: Optional[ReplicationFollower] = None

    def shape(self) -> str:
        return "lag_window=%d" % self.LAG_WINDOW

    async def start(self) -> None:
        await super().start()
        await self.leader.start()
        self.follower = ReplicationFollower("127.0.0.1", self.leader.port,
                                            reconnect_delay=0.01)
        await self.follower.start()

    def _converged(self) -> bool:
        leader = {stream: dag.segment_fingerprint(self.machine, vsid)
                  for stream, vsid in self.leader.streams().items()}
        return leader == self.follower.fingerprints()

    async def settle(self, trace: List[str], failures: List[str]) -> None:
        # heal the link: faults stop firing for every later read/drain;
        # a broken session reconnects cleanly and resyncs
        self.leader.injector = None
        converged = await _until(self._converged, CONVERGE_TIMEOUT)
        trace.append("converged=%s" % ("yes" if converged else "NO"))
        if not converged:
            failures.append("follower never converged within %.0fs "
                            "of the heal" % CONVERGE_TIMEOUT)

    async def stop(self) -> None:
        await self.follower.stop()
        await self.leader.stop()
        await super().stop()

    def replicas(self) -> List[Replica]:
        return super().replicas() + [(
            "follower", self.follower.machine,
            [backend.kvp for backend in self.follower.servers], None)]


def kill_plan(seed: int, cfg: EpisodeConfig) -> Tuple[str, int]:
    """(victim leader id, batch index it dies before) — pure in the seed.

    The kill lands in the middle half of the scripts' batches, so there
    is always committed state to inherit and writes still to come.
    """
    batches = -(-cfg.ops_per_client // cfg.pipeline_depth)
    victim = "lead-%d" % (derive(seed, "cluster-victim") % _Cluster.LEADERS)
    kill_at = batches // 4 + derive(seed, "cluster-kill-at") \
        % max(1, batches // 2)
    return victim, kill_at


class _Cluster:
    """Two leaders with two followers each under a topology manager.

    Client ``cid`` is bound to ring slot ``cid % LEADERS`` and writes
    only keys that slot owns. The victim is crash-stopped once every
    client has the replies to its first ``kill_at`` batches; the other
    slot's clients carry on at once, the victim slot's resume against
    the promoted owner when the repair commits. The killed leader is
    exempt from the audits: a crash-stop strands staged state by the
    fault model.
    """

    title, label, heading, profile = ("cluster episode", "cluster-episode",
                                      "cluster fuzz", "cluster")
    LEADERS = 2
    FOLLOWERS = 2

    def __init__(self, seed: int, cfg: EpisodeConfig, plan: FaultPlan,
                 trace_recorder=None) -> None:
        self.seed, self.cfg = seed, cfg
        self.injector = FaultInjector(plan)
        config = ClusterConfig(leaders=self.LEADERS,
                               followers=self.FOLLOWERS, shards=cfg.shards)
        self.cluster = Cluster(config, recorder=trace_recorder,
                               injector=self.injector)
        self.manager = TopologyManager(self.cluster, probe_interval=0.05,
                                       failure_threshold=2)
        self.manager.verify_timeout = CONVERGE_TIMEOUT
        # the ring Cluster.start() will build: a pure function of the
        # config, so the scripts are planned before anything starts
        self.ring = HashRing(["slot-%d" % i for i in range(self.LEADERS)],
                             seed=config.seed)

    @classmethod
    def slot(cls, cid: int) -> str:
        return "slot-%d" % (cid % cls.LEADERS)

    def shape(self) -> str:
        return "leaders=%d followers=%d" % (self.LEADERS, self.FOLLOWERS)

    def scripts(self) -> Dict[int, List]:
        owned: Dict[str, List[bytes]] = {}
        for key in _keyspace(self.cfg):
            owned.setdefault(self.ring.slot_for(key), []).append(key)
        return {cid: build_script(self.seed, cid, self.cfg,
                                   owned[self.slot(cid)])
                for cid in range(self.cfg.clients)
                if self.slot(cid) in owned}

    def _owner_port(self, slot: str) -> int:
        topology = self.cluster.topology
        return topology.node(topology.slot_owner[slot]).port

    def port_of(self, key: bytes) -> int:
        return self._owner_port(self.ring.slot_for(key))

    async def start(self) -> None:
        await self.cluster.start()
        await self.manager.start()

    async def play(self, clients: List[RecordingClient], trace: List[str],
                   failures: List[str]) -> None:
        victim, kill_at = kill_plan(self.seed, self.cfg)
        trace.append("victim=%s kill_at=%d" % (victim, kill_at))
        victim_slot = self.cluster.topology.slot_of(victim)
        for client in clients:  # sequential: deterministic accept order
            await client.connect(self._owner_port(self.slot(client.cid)))
        await asyncio.gather(*(client.play(client.script[:kill_at])
                               for client in clients))
        epoch = self.cluster.topology.epoch
        await self.cluster.kill(victim)  # no drain, no convergence wait

        def repaired() -> bool:
            return self.cluster.topology.epoch > epoch

        async def resume(client: RecordingClient) -> None:
            if self.slot(client.cid) == victim_slot \
                    and client.writer is not None:
                await client.close(quit=False)
                if not await _until(repaired, REPAIR_TIMEOUT):
                    return
                await client.connect(self._owner_port(victim_slot))
            await client.play(client.script[kill_at:])
            await client.close()

        await asyncio.gather(*(resume(client) for client in clients))
        # the repair must commit even when no client waited for it
        done = await _until(repaired, REPAIR_TIMEOUT)
        trace.append("repaired=%s" % ("yes" if done else "NO"))
        if not done:
            failures.append("no topology repair within %.0fs"
                            % REPAIR_TIMEOUT)
        trace.append("promotions=%d" % self.cluster.metrics.promotions)

    async def drain(self) -> None:
        for node in self.cluster.leaders.values():
            await node.router.drain()

    async def settle(self, trace: List[str], failures: List[str]) -> None:
        # every surviving fleet must converge, fingerprint for
        # fingerprint — the promoted fleet included
        stale = [leader_id
                 for leader_id in self.cluster.topology.leader_ids()
                 if not await self.cluster.wait_converged(
                     leader_id, timeout=CONVERGE_TIMEOUT)]
        trace.append("converged=%s" % ("NO" if stale else "yes"))
        failures.extend("fleet of %s never converged" % leader_id
                        for leader_id in stale)

    async def stop(self) -> None:
        await self.manager.stop()
        await self.cluster.stop()

    def replicas(self) -> List[Replica]:
        topology = self.cluster.topology

        def owned_by(leader_id: str) -> Callable[[bytes], bool]:
            return lambda key: topology.owner_of(key) == leader_id

        out: List[Replica] = []
        for node_id, node in sorted(self.cluster.leaders.items()):
            out.append((node_id, node.machine,
                        [backend.kvp for backend in node.router.servers],
                        owned_by(node_id)))
        for node_id, node in sorted(self.cluster.followers.items()):
            out.append((node_id, node.machine,
                        [backend.kvp for backend in node.follower.servers],
                        owned_by(node.leader_id)))
        return out


TOPOLOGIES = {"single": _Single, "replicated": _Replicated,
              "cluster": _Cluster}


def _state_failures(replicas: List[Replica],
                    present: Dict[bytes, bytes]) -> List[str]:
    """Every live machine's shards hold exactly the read-back pairs its
    fleet owns: no stray, missing or doubled key."""
    failures = []
    for name, _, maps, owns in replicas:
        held = Counter(pair for kvp in maps for pair in kvp.items())
        want = Counter((key, value) for key, value in present.items()
                       if owns is None or owns(key))
        if held != want:
            failures.append(
                "%s state: holds %r beyond the read-back, lacks %r"
                % (name, sorted((held - want).elements()),
                   sorted((want - held).elements())))
    return failures


# ----------------------------------------------------------------------
# episodes


@dataclass
class EpisodeResult:
    seed: int
    ok: bool
    trace: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: fired-fault counts by point (CONN_RESET is keyed by write-frame
    #: sequence, so its count is seed-deterministic; the timing-keyed
    #: points need not be — this is debug data, never part of ``trace``)
    fired: Dict[str, int] = field(default_factory=dict)
    #: end-of-episode DedupStore.index_snapshot() of the served machine
    #: (the first live leader's on a cluster) — like ``fired``, debug
    #: data outside the seed-deterministic ``trace``
    index: Dict = field(default_factory=dict)
    #: its end-of-episode DedupStore.reclaim_snapshot() — debug data too
    #: (drain timing depends on batch boundaries, never on the trace)
    reclaim: Dict = field(default_factory=dict)


async def _run_episode(seed: int, cfg: EpisodeConfig,
                       trace_recorder=None) -> EpisodeResult:
    rates = dict(EPISODE_RATES)
    if cfg.rates:
        rates.update(cfg.rates)
    plan = FaultPlan(seed, rates, max_stall=cfg.max_stall)
    topology = TOPOLOGIES[cfg.topology](seed, cfg, plan, trace_recorder)
    recorder = HistoryRecorder()
    scripts = topology.scripts()

    trace = [("%s seed=%d clients=%d ops=%d pipeline=%d keys=%d "
              "shards=%d %s"
              % (topology.title, seed, cfg.clients, cfg.ops_per_client,
                 cfg.pipeline_depth, cfg.key_space, cfg.shards,
                 topology.shape())).rstrip()]
    trace.extend(plan.describe())
    for cid, script in scripts.items():
        trace.append("script c%d=%s" % (cid, script_digest(
            op for batch in script for op in batch)))

    failures: List[str] = []
    clients = [RecordingClient(cid, script, recorder)
               for cid, script in scripts.items()]
    present: Optional[Dict[bytes, bytes]] = None
    await topology.start()
    try:
        await asyncio.wait_for(topology.play(clients, trace, failures),
                               timeout=EPISODE_TIMEOUT)
        await asyncio.wait_for(topology.drain(), timeout=EPISODE_TIMEOUT)
        present = await asyncio.wait_for(_final_readback(
            topology.port_of, _keyspace(cfg), recorder),
            timeout=EPISODE_TIMEOUT)
        await topology.settle(trace, failures)
        for client in clients:
            failures.extend("protocol error: %s" % err
                            for err in client.protocol_errors)
    except asyncio.TimeoutError:
        failures.append("episode timed out after %.0fs" % EPISODE_TIMEOUT)
    finally:
        for client in clients:
            await client.close(quit=False)
        await topology.stop()

    report = check_history(recorder.operations())
    if not report.ok:
        for verdict in report.violations:
            failures.append("linearizability violation on key %r: %s"
                            % (verdict.key, verdict.explanation))
            failures.extend("  " + line for line in verdict.witness)
    trace.append("linearizable=%s" % ("yes" if report.ok else "NO"))

    replicas = topology.replicas()
    served = replicas[0][1].mem.store
    # quiesce-then-audit: the reclaim snapshot is captured before the
    # auditors quiesce so it reflects the episode's live drain behaviour
    reclaim_snap = served.reclaim_snapshot()
    audit_failures: List[str] = []
    for name, machine, _, _ in replicas:
        audit = audit_machine(machine, strict=True)
        audit_failures.extend("%s audit: %s" % (name, f)
                              for f in audit.failures)
    failures.extend(audit_failures)
    trace.append("audits=%s" % ("FAILED" if audit_failures else "ok"))

    # the expiry profile's managed backend stores each value behind a
    # deadline header that a read does not return, so only the plain
    # backend's maps can be held to the read-back
    if cfg.backend is None and present is not None:
        state_failures = _state_failures(replicas, present)
        failures.extend(state_failures)
        trace.append("state=%s" % ("FAILED" if state_failures else "ok"))

    ok = not failures
    trace.append("result=%s" % ("ok" if ok else "FAILED"))
    return EpisodeResult(seed=seed, ok=ok, trace=trace, failures=failures,
                         fired=dict(topology.injector.fired),
                         index=served.index_snapshot(),
                         reclaim=reclaim_snap)


def episode_seed(seed: int, index: int, label: str = "episode") -> int:
    """Seed of episode ``index`` in a run started from ``seed``.

    Episode 0 uses the run seed itself, so a failure printed as
    ``--episodes 1 --seed S`` replays exactly; ``label`` keeps the
    profiles' derived seeds apart.
    """
    return seed if index == 0 else derive(seed, "%s/%d" % (label, index))


@dataclass
class FuzzReport:
    """Outcome of a whole fuzz run, whatever the profile: ``episodes``
    are results carrying ``seed``, ``ok``, ``trace`` and ``failures``."""

    episodes: List = field(default_factory=list)
    #: first words of the summary line
    heading: str = "fuzz"
    #: ``repro fuzz --profile`` of the reproduce line (None: the default)
    profile: Optional[str] = None

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.episodes)

    @property
    def failed_seeds(self) -> List[int]:
        return [e.seed for e in self.episodes if not e.ok]

    def render(self, verbose: bool = False) -> str:
        lines: List[str] = []
        for result in self.episodes:
            if verbose or not result.ok:
                lines.extend(result.trace)
                lines.extend("  " + f for f in result.failures)
            else:
                lines.append("%s %s" % (result.trace[0],
                                        result.trace[-1]))
        lines.append("%s episodes=%d ok=%d failed=%d"
                     % (self.heading, len(self.episodes),
                        sum(1 for e in self.episodes if e.ok),
                        len(self.failed_seeds)))
        flag = "--profile %s " % self.profile if self.profile else ""
        for seed in self.failed_seeds:
            lines.append("reproduce: repro fuzz %s--episodes 1 --seed %d"
                         % (flag, seed))
        return "\n".join(lines)


def run_episodes(run_one: Callable, episodes: int, seed: int,
                 label: str = "episode", heading: str = "fuzz",
                 profile: Optional[str] = None) -> FuzzReport:
    """``run_one(episode seed)`` for each of ``episodes`` seeds derived
    from ``seed`` under ``label``, reported under the profile's
    ``heading`` and ``--profile``."""
    return FuzzReport(
        [run_one(episode_seed(seed, index, label))
         for index in range(episodes)], heading, profile)


def run_episode(seed: int, cfg: Optional[EpisodeConfig] = None,
                trace_recorder=None) -> EpisodeResult:
    """One episode, synchronously (test entry point).

    ``trace_recorder`` — an optional :class:`repro.obs.TraceRecorder`
    threaded into the server, so a whole fault-injected episode can be
    captured as spans. With a :class:`repro.obs.StepClock` and a single
    client the trace is a pure function of the seed.
    """
    return asyncio.run(_run_episode(seed, cfg or EpisodeConfig(),
                                    trace_recorder=trace_recorder))


def run_fuzz(episodes: int = 10, seed: int = 0,
             cfg: Optional[EpisodeConfig] = None,
             profile: Optional[str] = None) -> FuzzReport:
    """Run ``episodes`` seeded adversarial episodes; the topology names
    the seed label, the summary heading and, unless ``profile`` (the
    ``repro fuzz --profile`` that built ``cfg``) does, the reproduce
    line's ``--profile``."""
    topology = TOPOLOGIES[(cfg or EpisodeConfig()).topology]
    return run_episodes(lambda s: run_episode(s, cfg), episodes, seed,
                        label=topology.label, heading=topology.heading,
                        profile=profile or topology.profile)


def expiry_config(**overrides) -> EpisodeConfig:
    """The ``expiry`` profile: TTL'd sets against a ManagedMemcached
    backend under raised commit-stall rates.

    Half the planned sets carry a small TTL in the managed backend's
    logical clock; stalls delay commits past expiry deadlines. The
    TTL-aware checker spec then enforces the regression this profile
    exists for: an expired key may only come back via a recorded store,
    never by a stale commit resurrecting dead state.
    """
    from repro.apps.memcached.eviction import ManagedMemcached
    from repro.testing.faults import COMMIT_STALL

    defaults: Dict = dict(
        ttl_rate=0.5, backend=ManagedMemcached,
        rates={CONN_RESET: 0.06, COMMIT_STALL: 0.30})
    defaults.update(overrides)
    return EpisodeConfig(**defaults)


def replication_config(**overrides) -> EpisodeConfig:
    """The ``replication`` profile: the replicated topology, with
    frequent split reads and resets on the server and, through its own
    injector, torn into the delta stream itself."""
    defaults: Dict = dict(topology="replicated",
                          rates={CONN_RESET: 0.08, READ_SPLIT: 0.3})
    defaults.update(overrides)
    return EpisodeConfig(**defaults)


def cluster_config(**overrides) -> EpisodeConfig:
    """The ``cluster`` profile: the cluster topology, a seeded leader
    crash-stopped mid-script under the episode's server faults."""
    defaults: Dict = dict(topology="cluster")
    defaults.update(overrides)
    return EpisodeConfig(**defaults)
