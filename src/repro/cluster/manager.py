"""The topology manager: detect → propose → verify → commit.

The self-healing loop over a :class:`~repro.cluster.cluster.Cluster`,
in the idiom of auto-repair controllers: observe, form a minimal repair
plan, *prove* it healthy, only then commit. Concretely, each tick:

1. **detect** — probe every leader the committed topology names (an
   in-band ``version`` request against its serving port, with a
   timeout). A leader must miss ``failure_threshold`` consecutive
   probes before it is declared dead — a single slow response is not
   a failure.
2. **propose** — rank the dead leader's surviving followers by applied
   commits (most caught up first; ties broken by node id ascending, so
   the choice is deterministic) and pick the head.
3. **promote & reparent** — adopt the candidate's replicated segments
   as a new leader stack and point its orphaned siblings at it. Their
   reconnect HELLOs carry fingerprints that match the promoted state,
   so re-sync rides the SEED path: no lines reshipped.
4. **verify** — the commit gate, and the paper's lever: because the
   canonical DAG is history-independent, per-stream
   ``segment_fingerprint`` agreement across the new fleet *proves*
   byte-identical state no matter what each node lived through. A
   repair that cannot converge within ``VERIFY_TIMEOUT`` is **not**
   committed — it stays pending and re-verifies on later ticks.
5. **commit** — bump the epoch, publish the successor topology to every
   node, record the kill→convergence wall time.

Every transition emits trace spans (``cluster_detect`` …
``cluster_commit``) and moves the registry-visible counters in
:class:`~repro.cluster.metrics.ClusterMetrics`.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from repro.net.framing import close_writer
from repro.net.server import wait_within
from repro.cluster.cluster import Cluster
from repro.cluster.placement import ClusterTopology

__all__ = ["TopologyManager"]

#: seconds a liveness probe's ``version`` request may take
PROBE_TIMEOUT = 0.25

#: seconds a proposed repair's fleet may take to converge before it is
#: left pending for a later tick
VERIFY_TIMEOUT = 5.0


class TopologyManager:
    """Health-checks leaders and repairs the topology when one dies."""

    def __init__(self, cluster: Cluster,
                 probe_interval: float = 0.05,
                 failure_threshold: int = 2) -> None:
        self.cluster = cluster
        self.probe_interval = probe_interval
        self.failure_threshold = max(1, failure_threshold)
        self.verify_timeout = VERIFY_TIMEOUT
        self.recorder = cluster.recorder
        #: consecutive probe failures per leader id
        self._failures: Dict[str, int] = {}
        #: an un-committed repair awaiting fingerprint convergence
        self._pending: Optional[Dict] = None
        #: human-readable repair log (debugging; not a trace contract)
        self.events: List[str] = []
        self._task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # background loop

    async def start(self) -> None:
        if self._task is None:
            self._task = asyncio.ensure_future(self._loop())

    async def stop(self) -> None:
        task, self._task = self._task, None
        if task is not None:
            # waited on, not awaited: the loop's own CancelledError stays
            # in it, and a cancel of the caller is raised
            task.cancel()
            await asyncio.wait((task,))
            if not task.cancelled():
                task.result()

    async def _loop(self) -> None:
        while True:
            await self.tick()
            await asyncio.sleep(self.probe_interval)

    # ------------------------------------------------------------------
    # detect

    async def probe(self, leader_id: str) -> bool:
        """One in-band liveness check against a leader's serving port: a
        ``version`` request answered within :data:`PROBE_TIMEOUT`
        seconds."""
        info = self.cluster.topology.node(leader_id)
        if info is None:
            return False
        self.cluster.metrics.probes += 1
        try:
            ok = await wait_within(self._version(info), PROBE_TIMEOUT)
        except (ConnectionError, OSError):
            ok = False
        if not ok:
            self.cluster.metrics.probe_failures += 1
        return ok

    @staticmethod
    async def _version(info) -> bool:
        # the connection opens and closes in here, so a timeout or a
        # cancel that unwinds this coroutine also closes it
        reader, writer = await asyncio.open_connection(info.host, info.port)
        try:
            writer.write(b"version\r\n")
            await writer.drain()
            return (await reader.readline()).startswith(b"VERSION")
        finally:
            await close_writer(writer)

    async def tick(self) -> None:
        """One manager cycle: lag sampling, probes, repair if due."""
        self.cluster.sample_lags()
        if self._pending is not None:
            await self._verify_pending()
            return
        for leader_id in self.cluster.topology.leader_ids():
            if await self.probe(leader_id):
                self._failures[leader_id] = 0
                continue
            failures = self._failures.get(leader_id, 0) + 1
            self._failures[leader_id] = failures
            if failures >= self.failure_threshold:
                await self.repair(leader_id)
                return  # one repair per tick; re-probe next cycle

    # ------------------------------------------------------------------
    # propose

    def propose(self, dead_id: str) -> Optional[str]:
        """Most-caught-up surviving follower; ties break by node id."""
        candidates = [follower_id
                      for follower_id
                      in self.cluster.topology.followers_of(dead_id)
                      if follower_id in self.cluster.followers]
        if not candidates:
            return None
        candidates.sort(key=lambda follower_id: (
            -self.cluster.followers[follower_id].progress(), follower_id))
        return candidates[0]

    # ------------------------------------------------------------------
    # repair

    async def repair(self, dead_id: str) -> bool:
        """Promote, reparent, verify, commit — or leave a pending verify.

        Returns True when the repair committed (possibly on a later
        tick's re-verify for the pending case — then this call returns
        False and the commit happens in :meth:`tick`).
        """
        cluster = self.cluster
        recorder = self.recorder
        loop = asyncio.get_event_loop()
        started = loop.time()
        span = None
        if recorder.enabled:
            span = recorder.begin("cluster_detect", leader=dead_id,
                                  failures=self._failures.get(dead_id, 0))
        # a wedged-but-listed leader is crash-stopped first so the fleet
        # sees an unambiguous corpse, not a zombie
        if dead_id in cluster.leaders:
            await cluster.kill(dead_id)
        candidate = self.propose(dead_id)
        if span is not None:
            recorder.end(span, candidate=candidate or "")
        if candidate is None:
            cluster.metrics.repairs_failed += 1
            self.events.append("repair %s: no surviving follower"
                               % dead_id)
            return False
        promote_span = None
        if recorder.enabled:
            promote_span = recorder.begin("cluster_promote",
                                          dead=dead_id, node=candidate)
        node = await cluster.promote(candidate)
        successor = cluster.topology.with_promotion(
            dead_id, candidate, node.repl_port)
        # the promoted node enforces the successor view immediately —
        # it must not MOVED its own slot while verification runs
        node.set_topology(successor)
        orphans = [follower_id
                   for follower_id
                   in cluster.topology.followers_of(dead_id)
                   if follower_id != candidate
                   and follower_id in cluster.followers]
        for follower_id in orphans:
            cluster.reparent(follower_id, candidate)
        if promote_span is not None:
            recorder.end(promote_span, orphans=len(orphans))
        self.events.append("repair %s: promoting %s, reparenting %s"
                           % (dead_id, candidate, orphans))
        self._pending = {"dead": dead_id, "candidate": candidate,
                         "topology": successor, "started": started}
        return await self._verify_pending()

    async def _verify_pending(self) -> bool:
        """The commit gate: fingerprint convergence across the fleet."""
        pending = self._pending
        cluster = self.cluster
        recorder = self.recorder
        span = None
        if recorder.enabled:
            span = recorder.begin("cluster_verify",
                                  node=pending["candidate"])
        converged = await cluster.wait_converged(
            pending["candidate"], timeout=self.verify_timeout,
            topology=pending["topology"])
        if span is not None:
            recorder.end(span, converged=converged)
        if not converged:
            # NOT committed — the fleet keeps the old epoch; this verify
            # re-runs on the next tick until fingerprints agree
            self.events.append("repair %s: verify pending"
                               % pending["dead"])
            return False
        self._commit(pending)
        return True

    def _commit(self, pending: Dict) -> None:
        cluster = self.cluster
        recorder = self.recorder
        topology: ClusterTopology = pending["topology"]
        span = None
        if recorder.enabled:
            span = recorder.begin("cluster_commit", epoch=topology.epoch,
                                  node=pending["candidate"])
        cluster.publish(topology)
        cluster.metrics.promotions += 1
        elapsed = asyncio.get_event_loop().time() - pending["started"]
        cluster.metrics.last_recovery_seconds = elapsed
        self._failures.pop(pending["dead"], None)
        self._pending = None
        self.events.append(
            "repair %s: committed epoch %d (promoted %s, %.3fs)"
            % (pending["dead"], topology.epoch, pending["candidate"],
               elapsed))
        if span is not None:
            recorder.end(span, seconds=round(elapsed, 6))
