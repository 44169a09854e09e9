"""The serving layer: HICAMP memcached on a real socket.

The paper's §4.4 claim — snapshot reads without locks, atomic root-swap
commits — is only interesting under *concurrent client load*. This
package provides that load path end to end:

* :mod:`repro.net.framing` — streaming decoder for partial reads and
  pipelined requests;
* :mod:`repro.net.router` — key fan-out across sharded backends, and
  the one landing routine, which lands a run of sets as a group commit;
* :mod:`repro.net.server` — the asyncio TCP server (timeouts,
  backpressure, graceful shutdown);
* :mod:`repro.net.metrics` — ops/s, latency percentiles, pipeline depth,
  commit-batch counters (``stats`` / ``stats json``).

The load that drives it in tests is :mod:`repro.testing.fuzz`'s recorded
clients, whose histories are checked for linearizability; a serving
process never loads them.
"""

from repro.net.framing import Frame, FrameDecoder
from repro.net.metrics import CollectorPauses, ServerMetrics
from repro.net.router import ConnectionState, ShardRouter
from repro.net.server import MemcachedServer

__all__ = [
    "Frame",
    "FrameDecoder",
    "ServerMetrics",
    "CollectorPauses",
    "ConnectionState",
    "ShardRouter",
    "MemcachedServer",
]
