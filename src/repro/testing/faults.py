"""Seeded, deterministic fault injection for the serving stack.

Every injection decision is a **pure function of the seed** — no RNG
state is consumed at runtime, so the decision for the Nth event at a
given hook point is the same no matter how the event loop interleaves
connections. A :class:`FaultPlan` answers "does fault
``point`` fire for scope ``s`` at sequence number ``n``, and how hard?"
by hashing ``(seed, point, scope, n)``; a :class:`FaultInjector` owns
the per-scope counters and performs the actual injections from the hook
points in :class:`~repro.net.server.MemcachedServer` and
:class:`~repro.net.router.ShardRouter`:

========================  ==============================================
``conn.reset``            drop the connection right after a write frame
                          was dispatched — the write has landed but
                          the response is never flushed ("reset
                          mid-commit"); keyed by per-connection write-
                          frame sequence, so *which* writes lose their
                          connection is reproducible
``read.split``            deliver only a prefix of a socket read now and
                          the rest on the next read — partial reads
                          through the frame decoder
``write.split``           flush a response in two separate writes with a
                          drain between them — partial writes
``flush.delay``           yield the event loop N extra times before
                          flushing a connection's responses
``commit.stall``          stall a dispatched write N event-loop turns
                          before it lands — its connection waits while
                          other connections' reads and writes proceed
========================  ==============================================

Scopes are small integers: the accept-order connection index for the
connection points, the shard index for ``commit.stall``.

Below the network, :func:`refuse_allocation` makes one store refuse its
Nth line allocation, the way a full store refuses it.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.errors import MemoryExhaustedError

CONN_RESET = "conn.reset"
READ_SPLIT = "read.split"
WRITE_SPLIT = "write.split"
FLUSH_DELAY = "flush.delay"
COMMIT_STALL = "commit.stall"

POINTS = (CONN_RESET, READ_SPLIT, WRITE_SPLIT, FLUSH_DELAY, COMMIT_STALL)

#: Default per-event firing probabilities for a fuzz episode.
DEFAULT_RATES: Dict[str, float] = {
    CONN_RESET: 0.0,        # off unless an episode asks for resets
    READ_SPLIT: 0.25,
    WRITE_SPLIT: 0.2,
    FLUSH_DELAY: 0.2,
    COMMIT_STALL: 0.25,
}


class InjectedReset(ConnectionResetError):
    """A connection reset injected by the fault plan (not the peer)."""


def _unit(seed: int, point: str, scope: object, seq: int,
          salt: str = "") -> float:
    """Deterministic value in [0, 1) for one potential injection event."""
    material = b"%d|%s|%s|%d|%s" % (
        seed, point.encode(), str(scope).encode(), seq, salt.encode())
    digest = hashlib.blake2b(material, digest_size=8).digest()
    return int.from_bytes(digest, "big") / float(1 << 64)


class FaultPlan:
    """The seed's answer sheet: which events fire, and how hard.

    Stateless and hashable by construction — two plans built from the
    same ``(seed, rates, max_stall)`` make identical decisions forever,
    which is what makes a fuzz episode's schedule reproducible from its
    seed alone.
    """

    def __init__(self, seed: int, rates: Optional[Dict[str, float]] = None,
                 max_stall: int = 6) -> None:
        self.seed = seed
        self.rates = dict(DEFAULT_RATES)
        if rates:
            unknown = set(rates) - set(POINTS)
            if unknown:
                raise ValueError("unknown fault points: %s" % sorted(unknown))
            self.rates.update(rates)
        self.max_stall = max(1, max_stall)

    def fires(self, point: str, scope: object, seq: int) -> bool:
        """Does the ``seq``-th event of ``point``/``scope`` inject?"""
        rate = self.rates.get(point, 0.0)
        return rate > 0.0 and _unit(self.seed, point, scope, seq) < rate

    def amount(self, point: str, scope: object, seq: int,
               lo: int, hi: int) -> int:
        """Deterministic magnitude in ``[lo, hi]`` for a fired event."""
        if hi <= lo:
            return lo
        u = _unit(self.seed, point, scope, seq, salt="amount")
        return lo + int(u * (hi - lo + 1))

    def describe(self) -> List[str]:
        """Stable one-line-per-point summary (part of an episode trace)."""
        lines = ["plan seed=%d max_stall=%d" % (self.seed, self.max_stall)]
        for point in POINTS:
            lines.append("plan rate %s=%.3f" % (point, self.rates[point]))
        return lines


class FaultInjector:
    """Executes a :class:`FaultPlan` from the serving-stack hook points.

    Owns the per-scope event counters and the carry-over buffers for
    split reads. One injector serves one server instance; passing
    ``injector=None`` (the default everywhere) keeps every hook a no-op.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.fired: Counter = Counter()
        self.events: List[str] = []  # debugging aid; not a trace contract
        self._counters: Counter = Counter()
        self._held: Dict[int, bytes] = {}
        self._connections = 0

    # ------------------------------------------------------------------
    # bookkeeping

    def next_connection(self) -> int:
        """Accept-order scope for a newly accepted connection."""
        scope = self._connections
        self._connections += 1
        return scope

    def _next_seq(self, point: str, scope: object) -> int:
        key = (point, scope)
        seq = self._counters[key]
        self._counters[key] = seq + 1
        return seq

    def _record(self, point: str, scope: object, seq: int,
                detail: str = "") -> None:
        self.fired[point] += 1
        self.events.append("%s scope=%s seq=%d %s"
                           % (point, scope, seq, detail))

    # ------------------------------------------------------------------
    # connection-side hooks (MemcachedServer)

    def held_bytes(self, scope: int) -> bytes:
        """Bytes held back by an earlier split read, delivered first."""
        return self._held.pop(scope, b"")

    def on_read(self, scope: int, data: bytes) -> bytes:
        """Maybe split one socket read: keep a suffix for the next read."""
        if len(data) < 2:
            return data
        seq = self._next_seq(READ_SPLIT, scope)
        if not self.plan.fires(READ_SPLIT, scope, seq):
            return data
        cut = self.plan.amount(READ_SPLIT, scope, seq, 1, len(data) - 1)
        self._held[scope] = data[cut:]
        self._record(READ_SPLIT, scope, seq, "cut=%d of %d"
                     % (cut, len(data)))
        return data[:cut]

    def after_dispatch(self, scope: int, command: bytes) -> None:
        """Maybe reset the connection right after a dispatched write.

        The write has already landed on its shard; raising here tears
        the connection down before its response is flushed — the
        "connection reset mid-commit" scenario. Keyed by the connection's
        write-frame sequence so the decision is independent of how the
        bytes were chunked on the wire.
        """
        seq = self._next_seq(CONN_RESET, scope)
        if self.plan.fires(CONN_RESET, scope, seq):
            self._record(CONN_RESET, scope, seq, "after %s"
                         % command.decode("ascii", "replace"))
            raise InjectedReset("injected reset after write %d" % seq)

    async def before_flush(self, scope: int) -> None:
        """Maybe delay a response flush by extra event-loop turns."""
        seq = self._next_seq(FLUSH_DELAY, scope)
        if self.plan.fires(FLUSH_DELAY, scope, seq):
            turns = self.plan.amount(FLUSH_DELAY, scope, seq, 1,
                                     self.plan.max_stall)
            self._record(FLUSH_DELAY, scope, seq, "turns=%d" % turns)
            for _ in range(turns):
                await asyncio.sleep(0)

    def split_write(self, scope: int, payload: bytes) -> List[bytes]:
        """Maybe split one response into two separate socket writes."""
        if len(payload) < 2:
            return [payload]
        seq = self._next_seq(WRITE_SPLIT, scope)
        if not self.plan.fires(WRITE_SPLIT, scope, seq):
            return [payload]
        cut = self.plan.amount(WRITE_SPLIT, scope, seq, 1, len(payload) - 1)
        self._record(WRITE_SPLIT, scope, seq, "cut=%d of %d"
                     % (cut, len(payload)))
        return [payload[:cut], payload[cut:]]

    # ------------------------------------------------------------------
    # landing hook (ShardRouter.dispatch)

    async def before_commit(self, shard: int) -> None:
        """Maybe stall a write to ``shard`` before it lands."""
        seq = self._next_seq(COMMIT_STALL, shard)
        if self.plan.fires(COMMIT_STALL, shard, seq):
            turns = self.plan.amount(COMMIT_STALL, shard, seq, 1,
                                     self.plan.max_stall)
            self._record(COMMIT_STALL, shard, seq, "turns=%d" % turns)
            for _ in range(turns):
                await asyncio.sleep(0)


# ----------------------------------------------------------------------
# allocation refusal (the store)


@contextmanager
def refuse_allocation(store, n: int) -> Iterator[None]:
    """Inside the block, ``store``'s ``n``-th line allocation (1-based)
    raises :class:`~repro.errors.MemoryExhaustedError`.

    An instance attribute shadows ``DedupStore._allocate`` for the block
    only, so no other store, and this one outside the block, runs
    anything but the plain method.
    """
    allocate = store._allocate
    calls = itertools.count(1)

    def refusing(*args):
        if next(calls) == n:
            raise MemoryExhaustedError("allocation %d refused" % n)
        return allocate(*args)

    store._allocate = refusing
    try:
        yield
    finally:
        del store._allocate
