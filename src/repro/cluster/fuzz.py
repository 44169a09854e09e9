"""Seeded leader-kill episodes over a self-healing cluster.

One episode is: boot a whole fleet (N leaders × M followers) in one
event loop with a :class:`~repro.cluster.manager.TopologyManager`
watching it, drive a seeded write script through a
:class:`~repro.cluster.client.ClusterClient` — and, at a seed-derived
point mid-script, **crash-stop a seed-chosen leader**. The client keeps
writing: owner-dead retries and MOVED redirects are its problem, the
repair is the manager's. The episode then requires:

* the manager commits a higher topology epoch (exactly one promotion);
* every surviving fleet reaches per-stream ``segment_fingerprint``
  agreement — including the promoted fleet, whose members arrived at
  their state via completely different paths (replication, adoption,
  SEED re-sync). History-independence is what makes this assertable;
* the script's writes all landed: a final owner-routed read-back checks
  every key's last written value against the committed topology;
* every *live* machine passes the strict invariant audits. (The killed
  leader's machine is exempt: a crash-stop legitimately strands staged
  state — that is the fault model, not a bug.)

The script, the victim and the kill point are pure functions of the
episode seed. The trace records only scheduling-independent facts —
which follower wins promotion depends on replication timing at the kill
and is deliberately *not* in the trace (it lives in the debug metrics).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.loadgen import read_value_response
from repro.testing.auditors import audit_machine
from repro.testing.fuzz import FuzzReport, derive, run_episodes, script_digest
from repro.cluster.client import ClusterClient, ClusterUnavailableError
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.manager import TopologyManager

EPISODE_TIMEOUT = 120.0
CONVERGE_TIMEOUT = 20.0
REPAIR_TIMEOUT = 30.0


@dataclass
class ClusterEpisodeConfig:
    """Shape of one leader-kill episode (derived state is seeded)."""

    leaders: int = 2
    followers: int = 2
    shards: int = 2
    ops: int = 80
    key_space: int = 12
    value_pool: int = 5
    probe_interval: float = 0.05
    failure_threshold: int = 2


def _build_script(seed: int, cfg: ClusterEpisodeConfig
                  ) -> List[Tuple[str, bytes, bytes]]:
    """Seeded (kind, key, value) triples over a pooled value set."""
    rng = random.Random(derive(seed, "cluster-script"))
    script: List[Tuple[str, bytes, bytes]] = []
    for _ in range(cfg.ops):
        key = b"ck%02d" % rng.randrange(cfg.key_space)
        value = b"pooled-value-%02d" % rng.randrange(cfg.value_pool)
        script.append(("set", key, value))
    return script


def kill_plan(seed: int, cfg: ClusterEpisodeConfig) -> Tuple[str, int]:
    """(victim leader id, op index at which it dies) — pure in the seed.

    The kill lands in the middle half of the script so there is always
    committed state to inherit and writes still pending to reroute.
    """
    victim = "lead-%d" % (derive(seed, "cluster-victim") % cfg.leaders)
    lo = cfg.ops // 4
    span = max(1, cfg.ops // 2)
    kill_at = lo + derive(seed, "cluster-kill-at") % span
    return victim, kill_at


@dataclass
class ClusterEpisodeResult:
    seed: int
    ok: bool
    trace: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: debug data (timing-dependent under faults, never part of trace)
    metrics: Dict = field(default_factory=dict)
    manager_events: List[str] = field(default_factory=list)


async def _await_repair(cluster: Cluster, epoch_before: int,
                        timeout: float) -> bool:
    loop = asyncio.get_event_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if cluster.metrics.epoch > epoch_before:
            return True
        await asyncio.sleep(0.02)
    return False


async def _run_episode(seed: int, cfg: ClusterEpisodeConfig
                       ) -> ClusterEpisodeResult:
    script = _build_script(seed, cfg)
    victim, kill_at = kill_plan(seed, cfg)
    trace = ["cluster episode seed=%d leaders=%d followers=%d shards=%d "
             "ops=%d keys=%d pool=%d"
             % (seed, cfg.leaders, cfg.followers, cfg.shards, cfg.ops,
                cfg.key_space, cfg.value_pool)]
    trace.append("script=%s victim=%s kill_at=%d"
                 % (script_digest(script), victim, kill_at))

    failures: List[str] = []
    cluster = Cluster(ClusterConfig(
        leaders=cfg.leaders, followers=cfg.followers, shards=cfg.shards))
    manager = TopologyManager(
        cluster, probe_interval=cfg.probe_interval,
        failure_threshold=cfg.failure_threshold,
        verify_timeout=CONVERGE_TIMEOUT)
    client = ClusterClient(max_retries=200, retry_delay=0.05)
    oracle: Dict[bytes, bytes] = {}
    try:
        await cluster.start()
        client.topology = cluster.topology
        await manager.start()
        epoch_before = cluster.topology.epoch
        for index, (kind, key, value) in enumerate(script):
            if index == kill_at:
                await cluster.kill(victim)
            try:
                line = await client.set(key, value)
            except ClusterUnavailableError as exc:
                failures.append("set %r at op %d: %s" % (key, index, exc))
                continue
            if line.strip() != b"STORED":
                failures.append("set %r at op %d -> %r"
                                % (key, index, line))
            else:
                oracle[key] = value
        # the manager must finish the repair even if the script already
        # rode through it on retries
        repaired = await _await_repair(cluster, epoch_before,
                                       REPAIR_TIMEOUT)
        trace.append("repaired=%s" % ("yes" if repaired else "NO"))
        if not repaired:
            failures.append("no topology repair within %.0fs"
                            % REPAIR_TIMEOUT)
        trace.append("epoch_delta=%d"
                     % (cluster.topology.epoch - epoch_before))
        trace.append("promotions=%d" % cluster.metrics.promotions)
        # every surviving fleet must converge, fingerprint for
        # fingerprint — promoted fleets included
        for leader_id in cluster.topology.leader_ids():
            converged = await cluster.wait_converged(
                leader_id, timeout=CONVERGE_TIMEOUT)
            if not converged:
                failures.append("fleet of %s never converged" % leader_id)
        trace.append("converged=%s" % ("yes" if not any(
            f.startswith("fleet") for f in failures) else "NO"))
        # owner-routed read-back of the oracle through a fresh client
        # view: every write that was acknowledged must be in the cache
        await client.refresh()
        for key in sorted(oracle):
            value = await client.get(key)
            if value != oracle[key]:
                # replica may lag; the owner's answer is authoritative
                info = client._owner_info(key)
                reader, writer = await client._conn(info.host, info.port)
                writer.write(b"get %s\r\n" % key)
                await writer.drain()
                values = await read_value_response(reader)
                body = values.get(key, (b"", b""))[0]
                if body != oracle[key]:
                    failures.append("readback %r: %r != %r"
                                    % (key, body, oracle[key]))
        trace.append("readback=%s" % ("ok" if not any(
            f.startswith("readback") for f in failures) else "FAILED"))
    except asyncio.TimeoutError:
        failures.append("episode timed out")
        trace.append("result=TIMEOUT")
    finally:
        await client.close()
        await manager.stop()
        await cluster.stop()

    # strict audits on every *live* machine; the crash-stopped victim is
    # exempt by the fault model (staged refs died with its workers)
    audit_failures: List[str] = []
    for node_id in sorted(cluster.leaders):
        audit = audit_machine(cluster.leaders[node_id].machine,
                              strict=True)
        audit_failures.extend("%s audit: %s" % (node_id, f)
                              for f in audit.failures)
    for node_id in sorted(cluster.followers):
        audit = audit_machine(cluster.followers[node_id].machine,
                              strict=True)
        audit_failures.extend("%s audit: %s" % (node_id, f)
                              for f in audit.failures)
    failures.extend(audit_failures)
    trace.append("audits=%s" % ("ok" if not audit_failures else "FAILED"))

    ok = not failures
    trace.append("result=%s" % ("ok" if ok else "FAILED"))
    return ClusterEpisodeResult(
        seed=seed, ok=ok, trace=trace, failures=failures,
        metrics=cluster.snapshot(), manager_events=list(manager.events))


def run_episode(seed: int, cfg: Optional[ClusterEpisodeConfig] = None
                ) -> ClusterEpisodeResult:
    """One episode, synchronously (test entry point)."""
    return asyncio.run(asyncio.wait_for(
        _run_episode(seed, cfg or ClusterEpisodeConfig()),
        timeout=EPISODE_TIMEOUT))


def run_fuzz(episodes: int = 3, seed: int = 0,
             cfg: Optional[ClusterEpisodeConfig] = None) -> FuzzReport:
    """Run ``episodes`` seeded leader-kill episodes."""
    return run_episodes(lambda s: run_episode(s, cfg), episodes, seed,
                        label="cluster-episode", heading="cluster fuzz",
                        profile="cluster")
