"""Seeded fault-injection episodes over a faulty replication link.

One episode is: start a leader serving stack, attach a
:class:`~repro.replication.leader.ReplicationLeader` whose *link* runs
through a :class:`~repro.testing.faults.FaultInjector` (split reads,
injected resets mid-stream), connect a follower that reconnects through
the faults, drive a seeded write script at the leader's memcached port
— then **heal the link** and require the convergence property of the
PR's acceptance criteria:

* for every stream, the follower's segment fingerprint equals the
  leader's (the cross-machine analogue of the O(1) root compare);
* the follower machine passes the strict invariant audits
  (:func:`~repro.testing.auditors.audit_machine`) after the link is
  torn down — no leaked pins, refcounts exactly account for the
  replicated DAGs;
* so does the leader machine.

The write script and the fault plan are pure functions of the episode
seed (same contract as :mod:`repro.testing.fuzz`); the verdicts are
scheduling-independent on correct code, because any prefix of deltas the
faults let through is a consistent snapshot and the post-heal resync
repairs the rest.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.server import MemcachedServer
from repro.replication.follower import ReplicationFollower
from repro.replication.leader import ReplicationLeader
from repro.segments import dag
from repro.testing.auditors import audit_machine
from repro.testing.fuzz import FuzzReport, derive, run_episodes, script_digest
from repro.testing.faults import (
    CONN_RESET,
    READ_SPLIT,
    FaultInjector,
    FaultPlan,
)

CRLF = b"\r\n"

#: Link-fault rates for a replication episode: frequent split reads and
#: resets torn into the delta stream itself.
EPISODE_RATES = {CONN_RESET: 0.08, READ_SPLIT: 0.3}

EPISODE_TIMEOUT = 60.0

#: How long the healed link gets to converge before the episode fails.
CONVERGE_TIMEOUT = 20.0


@dataclass
class ReplicationEpisodeConfig:
    """Shape of one faulty-link episode (all derived state is seeded)."""

    ops: int = 60
    key_space: int = 10
    value_pool: int = 5
    shards: int = 2
    lag_window: int = 8
    rates: Optional[Dict[str, float]] = None


def _build_script(seed: int,
                  cfg: ReplicationEpisodeConfig) -> List[Tuple[str, bytes, bytes]]:
    """The episode's write script: (kind, key, value) triples.

    Values come from a small pool, so overwrites frequently re-create
    content the follower already holds — exercising both the FORGET path
    (old trees die) and dedup-on-arrival (new trees share lines).
    """
    rng = random.Random(derive(seed, "repl-script"))
    script: List[Tuple[str, bytes, bytes]] = []
    for _ in range(cfg.ops):
        key = b"rk%02d" % rng.randrange(cfg.key_space)
        if rng.random() < 0.85:
            value = b"pooled-value-%02d" % rng.randrange(cfg.value_pool)
            script.append(("set", key, value))
        else:
            script.append(("delete", key, b""))
    return script


async def _drive_script(host: str, port: int,
                        script: List[Tuple[str, bytes, bytes]]) -> List[str]:
    """Apply the write script over one connection; returns failures."""
    failures: List[str] = []
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for kind, key, value in script:
            if kind == "set":
                writer.write(b"set %s 0 0 %d\r\n%s\r\n"
                             % (key, len(value), value))
            else:
                writer.write(b"delete %s\r\n" % key)
            await writer.drain()
            line = await reader.readline()
            if kind == "set" and line != b"STORED" + CRLF:
                failures.append("set %r -> %r" % (key, line))
            elif kind == "delete" and line not in (b"DELETED" + CRLF,
                                                   b"NOT_FOUND" + CRLF):
                failures.append("delete %r -> %r" % (key, line))
        writer.write(b"quit\r\n")
        await writer.drain()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass
    return failures


def _fingerprints(leader: ReplicationLeader) -> Dict[int, bytes]:
    return {stream: dag.segment_fingerprint(leader.machine, vsid)
            for stream, vsid in leader.streams().items()}


async def _wait_converged(leader: ReplicationLeader,
                          follower: ReplicationFollower,
                          timeout: float) -> bool:
    loop = asyncio.get_event_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if _fingerprints(leader) == follower.fingerprints():
            return True
        await asyncio.sleep(0.02)
    return False


@dataclass
class ReplicationEpisodeResult:
    seed: int
    ok: bool
    trace: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: debug data (timing-dependent under faults, never part of trace)
    leader_metrics: Dict = field(default_factory=dict)
    follower_metrics: Dict = field(default_factory=dict)


async def _run_episode(seed: int, cfg: ReplicationEpisodeConfig
                       ) -> ReplicationEpisodeResult:
    rates = dict(EPISODE_RATES)
    if cfg.rates:
        rates.update(cfg.rates)
    plan = FaultPlan(seed, rates)
    injector = FaultInjector(plan)
    script = _build_script(seed, cfg)

    trace = ["replication episode seed=%d ops=%d keys=%d pool=%d "
             "shards=%d lag_window=%d"
             % (seed, cfg.ops, cfg.key_space, cfg.value_pool,
                cfg.shards, cfg.lag_window)]
    trace.extend(plan.describe())
    trace.append("script=%s" % script_digest(script))

    failures: List[str] = []
    server = MemcachedServer(port=0, shard_count=cfg.shards)
    await server.start()
    leader = ReplicationLeader(server.router, lag_window=cfg.lag_window,
                               heartbeat_interval=None, injector=injector)
    await leader.start()
    follower = ReplicationFollower("127.0.0.1", leader.port,
                                   reconnect_delay=0.01)
    await follower.start()
    try:
        failures.extend(await asyncio.wait_for(
            _drive_script("127.0.0.1", server.port, script),
            timeout=EPISODE_TIMEOUT))
        await asyncio.wait_for(server.router.drain(),
                               timeout=EPISODE_TIMEOUT)
        # heal the link: faults stop firing for every later read/drain;
        # a broken session reconnects cleanly and resyncs
        leader.injector = None
        converged = await _wait_converged(follower=follower, leader=leader,
                                          timeout=CONVERGE_TIMEOUT)
        trace.append("converged=%s" % ("yes" if converged else "NO"))
        if not converged:
            failures.append(
                "follower never converged after heal: leader=%r follower=%r"
                % ({s: fp.hex() for s, fp in _fingerprints(leader).items()},
                   {s: fp.hex()
                    for s, fp in follower.fingerprints().items()}))
    except asyncio.TimeoutError:
        failures.append("episode timed out after %.0fs" % EPISODE_TIMEOUT)
        trace.append("converged=TIMEOUT")
    finally:
        await follower.stop()
        await leader.stop()
        await server.shutdown()

    audit = audit_machine(follower.machine, strict=True)
    failures.extend("follower audit: " + f for f in audit.failures)
    leader_audit = audit_machine(server.router.machine, strict=True)
    failures.extend("leader audit: " + f for f in leader_audit.failures)
    trace.append("audits=%s" % ("ok" if audit.ok and leader_audit.ok
                                else "FAILED"))

    ok = not failures
    trace.append("result=%s" % ("ok" if ok else "FAILED"))
    return ReplicationEpisodeResult(
        seed=seed, ok=ok, trace=trace, failures=failures,
        leader_metrics=leader.metrics.snapshot(),
        follower_metrics=follower.metrics.snapshot())


def run_episode(seed: int, cfg: Optional[ReplicationEpisodeConfig] = None
                ) -> ReplicationEpisodeResult:
    """One episode, synchronously (test entry point)."""
    return asyncio.run(_run_episode(seed, cfg or ReplicationEpisodeConfig()))


def run_fuzz(episodes: int = 5, seed: int = 0,
             cfg: Optional[ReplicationEpisodeConfig] = None) -> FuzzReport:
    """Run ``episodes`` seeded faulty-link episodes."""
    return run_episodes(lambda s: run_episode(s, cfg), episodes, seed,
                        label="repl-episode", heading="replication fuzz",
                        profile="replication")
