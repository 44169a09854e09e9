"""Serving-layer metrics: throughput, latency percentiles, pipelining
and commit-batch accounting.

The operational numbers any cache server must export (ops/s, latency
percentiles, pipeline depth, commit batches and root advances per
segment), exposed both as ``STAT`` lines for the ``stats`` protocol
command and as a JSON-safe snapshot dict.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from repro.obs.latency import latency_summary

__all__ = ["CollectorPauses", "ServerMetrics"]


class CollectorPauses:
    """The cyclic garbage collector's pauses by generation, timed by a
    ``gc.callbacks`` hook that :class:`~repro.net.server.MemcachedServer`
    installs while it serves.

    Process-wide: the collector is the interpreter's, so the hook counts
    every collection in the process while it is installed, whichever
    server, client or test allocated what it walked.
    """

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.pause_us = [0, 0, 0]
        self.max_pause_us = 0
        self._began = 0.0

    def __call__(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._began = time.perf_counter()
            return
        pause = int((time.perf_counter() - self._began) * 1e6)
        self.collections[info["generation"]] += 1
        self.pause_us[info["generation"]] += pause
        self.max_pause_us = max(self.max_pause_us, pause)

    def snapshot(self) -> Dict:
        """JSON-safe counts (``stats json``'s ``collector``)."""
        return {"collections": self.by_generation(self.collections),
                "pause_us": self.by_generation(self.pause_us),
                "max_pause_us": self.max_pause_us}

    @staticmethod
    def by_generation(counts: List[int]) -> Dict[str, int]:
        return {str(gen): n for gen, n in enumerate(counts)}


#: most-recent request latencies a :class:`ServerMetrics` keeps for
#: percentiles
LATENCY_RESERVOIR = 4096


@dataclass
class ServerMetrics:
    """Counters and reservoirs for one serving process."""

    #: time source for request timing and uptime. Injectable so tests
    #: can drive a deterministic monotonic clock and latency-percentile
    #: assertions stop depending on wall time.
    clock: Callable[[], float] = time.monotonic

    ops_total: int = 0
    #: requests answered in the read callback, writes landed there
    #: included, with no task and no future (the rest of ``ops_total``
    #: took the ordered path)
    inline_requests: int = 0
    bytes_in: int = 0
    bytes_out: int = 0

    connections_opened: int = 0
    connections_closed: int = 0
    read_timeouts: int = 0

    frames_decoded: int = 0
    #: frames that arrived pipelined behind another in the same read
    pipelined_requests: int = 0
    max_pipeline_depth: int = 0

    protocol_errors: int = 0
    server_errors: int = 0

    #: commit batches landed: one shard's writes staged by a read
    #: callback, or one write the ordered path dispatched
    commit_batches: int = 0

    #: committed root advances per VSID — replication lag is measured in
    #: these units (commits the leader applied that a follower has not
    #: yet acknowledged)
    commits_by_vsid: Counter = field(default_factory=Counter)

    _started: float = -1.0
    #: requests by wire command bytes; :attr:`ops_by_command` decodes
    _by_command: Counter = field(default_factory=Counter)
    _latencies: Deque[float] = field(
        default_factory=lambda: deque(maxlen=LATENCY_RESERVOIR))

    def __post_init__(self) -> None:
        if self._started < 0:
            self._started = self.clock()

    def now(self) -> float:
        """The metrics time source (the server timestamps through it)."""
        return self.clock()

    # ------------------------------------------------------------------

    def observe_read(self, nbytes: int, nframes: int) -> None:
        """Account one socket read that decoded ``nframes`` requests."""
        self.bytes_in += nbytes
        self.frames_decoded += nframes
        if nframes > 1:
            self.pipelined_requests += nframes - 1
        self.max_pipeline_depth = max(self.max_pipeline_depth, nframes)

    def observe_request(self, command: bytes, latency_s: float,
                        response_bytes: int) -> None:
        """Account one completed request."""
        self.ops_total += 1
        self._by_command[command] += 1
        self.bytes_out += response_bytes
        self._latencies.append(latency_s)

    def observe_inline(self, commands: List[bytes], latency_s: float,
                       response_bytes: int) -> None:
        """Account requests answered inline, all ready at once."""
        count = len(commands)
        self.ops_total += count
        self.inline_requests += count
        self._by_command.update(commands)
        self.bytes_out += response_bytes
        self._latencies.extend([latency_s] * count)

    def observe_commit(self, vsid: int) -> None:
        """Account one committed root advance of segment ``vsid``."""
        self.commits_by_vsid[vsid] += 1

    # ------------------------------------------------------------------

    @property
    def ops_by_command(self) -> Counter:
        """Requests by command name (``str`` keys)."""
        names: Counter = Counter()
        for command, count in self._by_command.items():
            names[command.decode("ascii", "replace")] += count
        return names

    @property
    def uptime_seconds(self) -> float:
        return max(1e-9, self.clock() - self._started)

    @property
    def ops_per_second(self) -> float:
        return self.ops_total / self.uptime_seconds

    def latency_ms(self) -> List[float]:
        return [s * 1000.0 for s in self._latencies]

    def snapshot(self, extra: Optional[Dict] = None) -> Dict:
        """JSON-safe metrics snapshot (the ``stats json`` payload)."""
        snap: Dict = {
            "uptime_seconds": round(self.uptime_seconds, 3),
            "ops_total": self.ops_total,
            "ops_per_second": round(self.ops_per_second, 1),
            "inline_requests": self.inline_requests,
            "ops_by_command": dict(self.ops_by_command),
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "connections_opened": self.connections_opened,
            "connections_closed": self.connections_closed,
            "read_timeouts": self.read_timeouts,
            "frames_decoded": self.frames_decoded,
            "pipelined_requests": self.pipelined_requests,
            "max_pipeline_depth": self.max_pipeline_depth,
            "protocol_errors": self.protocol_errors,
            "server_errors": self.server_errors,
            "commit_batches": self.commit_batches,
            "commits_by_vsid": {str(v): n
                                for v, n in self.commits_by_vsid.items()},
            "latency": latency_summary(self.latency_ms()),
        }
        if extra:
            snap.update(extra)
        return snap

    def stats_lines(self) -> List[bytes]:
        """``STAT name value`` lines for the ``stats`` command."""
        snap = self.snapshot()
        latency = snap.pop("latency")
        snap.pop("ops_by_command")
        snap.pop("commits_by_vsid")
        snap.update(latency)
        return [b"STAT %s %s\r\n" % (name.encode(), str(value).encode())
                for name, value in sorted(snap.items())]
