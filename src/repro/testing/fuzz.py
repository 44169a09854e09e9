"""Seeded adversarial episodes against a live server (``repro fuzz``).

One **episode** is: build a :class:`~repro.testing.faults.FaultPlan`
from the episode seed, start a :class:`~repro.net.server.MemcachedServer`
with the injector wired into every hook point, drive deterministic
scripted clients at it (pipelined mixed traffic over a shared keyspace,
recorded as an operation history), then judge the outcome twice —

* the :mod:`~repro.testing.history` linearizability checker over the
  recorded history (including a final read-back of every key after the
  commit queues drained), and
* the :mod:`~repro.testing.auditors` machine auditors in strict mode
  (the harness holds no snapshots, so any refcount excess is a leak).

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
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.machine import Machine
from repro.net.server import MemcachedServer
from repro.params import MachineConfig, MemoryConfig
from repro.testing.auditors import audit_machine
from repro.testing.faults import CONN_RESET, FaultInjector, FaultPlan
from repro.testing.history import (
    UNMATCHABLE,
    HistoryRecorder,
    check_history,
)

CRLF = b"\r\n"

#: Episode fault rates: the defaults plus occasional injected resets.
EPISODE_RATES = {CONN_RESET: 0.06}

#: Wall-clock ceiling per episode; hitting it is itself a failure.
EPISODE_TIMEOUT = 60.0


@dataclass
class EpisodeConfig:
    """Shape of one adversarial episode (all derived-state seeded)."""

    clients: int = 3
    ops_per_client: int = 24
    pipeline_depth: int = 4
    key_space: int = 8
    shards: int = 2
    batch_limit: int = 4
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
    #: *during* the episode. Episodes quiesce the
    #: reclaimer before the machine auditors run (via the router drain
    #: and ``audit_refcounts``'s machine drain), and trace content is
    #: independent of every field by construction.
    memory: MemoryConfig = MemoryConfig()


# ----------------------------------------------------------------------
# scripted clients


def derive(seed: int, label: str) -> int:
    """A 64-bit seed for ``label`` under ``seed`` (every profile's
    scripts, plans and episode seeds come from here)."""
    digest = hashlib.blake2b(b"%d/%s" % (seed, label.encode()),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _build_script(seed: int, cid: int,
                  cfg: EpisodeConfig) -> List[List[Tuple[str, bytes]]]:
    """Plan one client's batches of (kind, key) before the episode runs.

    Pure function of the seed — the scripts are part of the episode
    trace. ``cas`` is only planned for keys the plan has already
    ``gets``-ed, so every cas has a deterministic source for its token.
    With ``ttl_rate`` set, a planned set may become ``setx<N>`` — a set
    carrying TTL ``N`` (in the managed backend's logical ticks).
    """
    rng = random.Random(derive(seed, "script/%d" % cid))
    tokened = set()
    ops: List[Tuple[str, bytes]] = []
    for _ in range(cfg.ops_per_client):
        key = b"k%02d" % rng.randrange(cfg.key_space)
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


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One response line; an injected reset can cut it anywhere."""
    line = await reader.readline()
    if not line.endswith(CRLF):
        raise ConnectionResetError("EOF mid-response")
    return line


async def _read_values(
        reader: asyncio.StreamReader
) -> Dict[bytes, Tuple[bytes, bytes]]:
    """A get/gets response: key -> (value, wire token or b"").

    Unlike the loadgen helper, EOF at any point raises
    :class:`ConnectionResetError` — under fault injection a reset can
    land mid-response, and the interrupted ops must stay *pending*
    rather than crash the episode.
    """
    values: Dict[bytes, Tuple[bytes, bytes]] = {}
    while True:
        line = await _read_line(reader)
        if line == b"END" + CRLF:
            return values
        if not line.startswith(b"VALUE "):
            raise ValueError("unexpected line in value response: %r" % line)
        parts = line.split()
        key, nbytes = parts[1], int(parts[3])
        token = parts[4] if len(parts) > 4 else b""
        block = await reader.readexactly(nbytes + len(CRLF))
        values[key] = (block[:-len(CRLF)], token)


def script_digest(ops) -> str:
    """Digest of a planned script: ``(kind, *bytes fields)`` ops."""
    material = b";".join(b" ".join((op[0].encode(),) + tuple(op[1:]))
                         for op in ops)
    return hashlib.blake2b(material, digest_size=6).hexdigest()


class RecordingClient:
    """Drives one scripted connection and records its history."""

    def __init__(self, cid: int, host: str, port: int,
                 script: List[List[Tuple[str, bytes]]],
                 recorder: HistoryRecorder) -> None:
        self.cid = cid
        self.host, self.port = host, port
        self.script = script
        self.recorder = recorder
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.protocol_errors: List[str] = []
        self._seq = 0
        self._value_seq = 0
        # key -> (wire token bytes, the value the token was read from)
        self._tokens: Dict[bytes, Tuple[bytes, bytes]] = {}

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port)

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
            values = await _read_values(self.reader)
            if op.key in values:
                value, token = values[op.key]
                if op.kind == "gets":
                    self._tokens[op.key] = (token, value)
                self.recorder.complete(op, ("value", value))
            else:
                self.recorder.complete(op, ("miss",))
            return
        line = await _read_line(self.reader)
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

    async def run(self) -> None:
        assert self.reader is not None and self.writer is not None
        try:
            for batch in self.script:
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
            self.writer.write(b"quit\r\n")
            await self.writer.drain()
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            # injected reset: every op still awaiting a response stays
            # pending — the checker treats its commit as "maybe landed"
            pass
        finally:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except Exception:
                pass


async def _final_readback(host: str, port: int, cfg: EpisodeConfig,
                          recorder: HistoryRecorder) -> None:
    """Read every key on a fresh connection after the queues drained.

    These reads are real-time after every completed client op, so they
    pin down which pending (reset) commits actually landed.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        ops = []
        parts = []
        for j in range(cfg.key_space):
            key = b"k%02d" % j
            parts.append(b"get %s\r\n" % key)
            ops.append(recorder.invoke(10_000, j, "get", key))
        writer.write(b"".join(parts))
        await writer.drain()
        for op in ops:
            values = await _read_values(reader)
            if op.key in values:
                recorder.complete(op, ("value", values[op.key][0]))
            else:
                recorder.complete(op, ("miss",))
        writer.write(b"quit\r\n")
        await writer.drain()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass


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
    #: end-of-episode DedupStore.index_snapshot() — like ``fired``,
    #: debug data outside the seed-deterministic ``trace``
    index: Dict = field(default_factory=dict)
    #: end-of-episode DedupStore.reclaim_snapshot() — debug data too
    #: (drain timing depends on batch boundaries, never on the trace)
    reclaim: Dict = field(default_factory=dict)


async def _run_episode(seed: int, cfg: EpisodeConfig,
                       trace_recorder=None) -> EpisodeResult:
    rates = dict(EPISODE_RATES)
    if cfg.rates:
        rates.update(cfg.rates)
    plan = FaultPlan(seed, rates, max_stall=cfg.max_stall)
    injector = FaultInjector(plan)
    machine = Machine(MachineConfig(memory=cfg.memory))
    backend_kwargs = {} if cfg.backend is None \
        else {"backend_factory": cfg.backend}
    server = MemcachedServer(
        port=0, machine=machine, shard_count=cfg.shards,
        batch_limit=cfg.batch_limit, injector=injector,
        recorder=trace_recorder, **backend_kwargs)
    recorder = HistoryRecorder()
    scripts = [_build_script(seed, cid, cfg) for cid in range(cfg.clients)]

    trace = ["episode seed=%d clients=%d ops=%d pipeline=%d keys=%d "
             "shards=%d batch_limit=%d"
             % (seed, cfg.clients, cfg.ops_per_client, cfg.pipeline_depth,
                cfg.key_space, cfg.shards, cfg.batch_limit)]
    trace.extend(plan.describe())
    for cid, script in enumerate(scripts):
        trace.append("script c%d=%s" % (cid, script_digest(
            op for batch in script for op in batch)))

    failures: List[str] = []
    await server.start()
    try:
        clients = [RecordingClient(cid, "127.0.0.1", server.port,
                                   script, recorder)
                   for cid, script in enumerate(scripts)]
        for client in clients:  # sequential: deterministic accept order
            await client.connect()
        await asyncio.wait_for(
            asyncio.gather(*(client.run() for client in clients)),
            timeout=EPISODE_TIMEOUT)
        await asyncio.wait_for(server.router.drain(),
                               timeout=EPISODE_TIMEOUT)
        await asyncio.wait_for(_final_readback(
            "127.0.0.1", server.port, cfg, recorder),
            timeout=EPISODE_TIMEOUT)
        for client in clients:
            failures.extend("protocol error: %s" % err
                            for err in client.protocol_errors)
    except asyncio.TimeoutError:
        failures.append("episode timed out after %.0fs" % EPISODE_TIMEOUT)
    finally:
        await server.shutdown()

    report = check_history(recorder.operations())
    if not report.ok:
        for verdict in report.violations:
            failures.append("linearizability violation on key %r: %s"
                            % (verdict.key, verdict.explanation))
            failures.extend("  " + line for line in verdict.witness)
    trace.append("linearizable=%s" % ("yes" if report.ok else "NO"))

    # quiesce-then-audit: the reclaim snapshot is captured before the
    # auditors quiesce so it reflects the episode's live drain behaviour
    reclaim_snap = machine.mem.store.reclaim_snapshot()
    audit = audit_machine(machine, strict=True)
    failures.extend("audit: " + f for f in audit.failures)
    trace.append("audits=%s" % ("ok" if audit.ok else "FAILED"))

    if server.metrics.pending_at_shutdown:
        failures.append("pending commits at shutdown: %d"
                        % server.metrics.pending_at_shutdown)

    ok = not failures
    trace.append("result=%s" % ("ok" if ok else "FAILED"))
    return EpisodeResult(seed=seed, ok=ok, trace=trace, failures=failures,
                         fired=dict(injector.fired),
                         index=machine.mem.store.index_snapshot(),
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
             cfg: Optional[EpisodeConfig] = None) -> FuzzReport:
    """Run ``episodes`` seeded adversarial episodes."""
    return run_episodes(lambda s: run_episode(s, cfg), episodes, seed)


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
