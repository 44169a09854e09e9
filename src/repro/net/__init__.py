"""The serving layer: HICAMP memcached on a real socket.

The paper's §4.4 claim — snapshot reads without locks, atomic root-swap
commits — is only interesting under *concurrent client load*. This
package provides that load path end to end:

* :mod:`repro.net.framing` — streaming decoder for partial reads and
  pipelined requests;
* :mod:`repro.net.router` — key fan-out across sharded backends with
  per-shard asyncio commit queues and batched group commits;
* :mod:`repro.net.server` — the asyncio TCP server (timeouts,
  backpressure, graceful shutdown);
* :mod:`repro.net.metrics` — ops/s, latency percentiles, pipeline depth,
  commit-batch counters (``stats`` / ``stats json``);
* :mod:`repro.net.loadgen` — a pipelining multi-client load generator
  with a built-in sequential-oracle consistency check. It is a client,
  so the package does not import it: a serving process never loads it.
"""

from repro.net.framing import Frame, FrameDecoder
from repro.net.metrics import ServerMetrics
from repro.net.router import ConnectionState, ShardRouter
from repro.net.server import MemcachedServer, serve

__all__ = [
    "Frame",
    "FrameDecoder",
    "ServerMetrics",
    "ConnectionState",
    "ShardRouter",
    "MemcachedServer",
    "serve",
]
