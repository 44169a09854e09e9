"""The one free path, and free-list slot allocation.

HICAMP frees a dead subtree with a hardware state machine behind
:meth:`~repro.memory.dedup_store.DedupStore.decref` (section 3.1).
Here that state machine is a queue: every line whose count reaches zero
is appended to the :class:`EpochReclaimer`'s queue, and only a drain of
that queue frees lines. Freeing a line decrements its children, and a
child that reaches zero joins the tail of the same queue, so the walk
is iterative and one drain step does O(fanout) work. Following the
immediate-reclamation hardware primitives (Singh/Brown/Spear) and the
constant-time allocate/free line of work (Blelloch & Wei) in
PAPERS.md, deferral is a choice of *when* to free, not a second way:

* An **unheld** store drains the queue to empty at the end of every
  outermost ``decref`` — the paper's immediate free.
* A **held** store (:meth:`~repro.memory.dedup_store.DedupStore.
  hold_reclaim`: the shard router and a replication follower, which
  own their machine's batch boundaries) leaves the queue alone on
  release, so a release is O(1). Its owner drains up to
  :data:`RECLAIM_BUDGET` lines per :meth:`EpochReclaimer.advance`
  between batches, and :meth:`EpochReclaimer.quiesce` drains
  everything for audits, persistence images and replication FORGET
  flushing. A running drain holds the store too, which is what keeps
  the frees it causes queued instead of nested.

**Capacity contract.** Dead lines never cost capacity: when
``_allocate`` finds a bucket's ways full while the queue is not empty,
it drains the queue to empty (counted in ``pressure_drains``) and
claims a way again before it spills to the overflow area. A held store
therefore spills and refuses (``MemoryExhaustedError``) exactly when an
unheld store holding the same live lines in the same slots would. The
slots can differ only after a lookup resurrects a dead line that an
unheld store had already freed: the resurrected line keeps its old
slot. Between drains the queue grows by one entry per release to zero.

:class:`SlotAllocator` is the overflow area's free list, a LIFO stack
of recycled overflow PLIDs, so
:meth:`~repro.memory.dedup_store.DedupStore._allocate` reuses freed
overflow slots instead of growing the PLID space under churn. A
bucket's free ways need no list: a way is free exactly when its byte in
the store's signature array is zero, and the lowest free way is one
``bytearray.find`` over the bucket's row. PLID assignment — and
therefore machine images and modeled paper statistics — is the lowest
free way, then the most recently freed overflow slot.

Two consequences of deferral in a held store are deliberate:

* **dealloc listeners fire at drain time**, not at release time. The
  memo invalidation, index unindex, RC-cache drop and replication
  FORGET hooks all key off a PLID that is about to be *reused* — and a
  deferred line's slot is not reusable until it is actually freed, so
  firing late is not just safe but required for the FORGET protocol's
  "a known PLID is never silently reused" invariant.
* **deferred-dead lines can resurrect**: the content indexes still map
  their content, so a lookup landing on a count-zero line simply
  increments it back to one (a dedup hit). The drain recognizes the
  resurrection (count > 0) and skips the queue entry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

#: Deferred lines a held store's owner drains per epoch advance: between
#: a shard's commit batches, between a follower's applied root advances.
#: The queue carries at most one batch's frees past it.
RECLAIM_BUDGET = 512


class SlotAllocator:
    """The overflow area's free list: recycled overflow PLIDs, reused
    LIFO exactly as the store always has. (A bucket's free ways need no
    list: they are its zero signature bytes.)"""

    def __init__(self) -> None:
        #: overflow slots claimed off the stack
        self.overflow_reused = 0
        #: recycled overflow-area PLIDs (LIFO); persistence serializes
        #: this list verbatim under the image's ``free_overflow`` key
        self.free_overflow: List[int] = []

    def claim_overflow(self) -> Optional[int]:
        """Pop a recycled overflow PLID, or None when the stack is empty."""
        if self.free_overflow:
            self.overflow_reused += 1
            return self.free_overflow.pop()
        return None

    def release_overflow(self, plid: int) -> None:
        """Push a freed overflow PLID for reuse."""
        self.free_overflow.append(plid)

    def snapshot(self) -> Dict:
        """JSON-safe free-list state."""
        return {"free_overflow": len(self.free_overflow),
                "overflow_reused": self.overflow_reused}


@dataclass
class ReclaimStats:
    """Lifecycle counters of the epoch reclaimer."""

    deferred_total: int = 0       # release-to-zero pushes (O(1) frees)
    drained_freed: int = 0        # deferred lines actually deallocated
    drained_resurrected: int = 0  # entries skipped: content re-looked-up
    drained_stale: int = 0        # entries skipped: already freed
    epochs_advanced: int = 0
    quiesces: int = 0
    max_pending: int = 0          # deepest the deferral queue has been
    pressure_drains: int = 0      # full drains forced by a full bucket


class EpochReclaimer:
    """The queue every released-to-zero line goes through.

    Owned by every :class:`~repro.memory.dedup_store.DedupStore`; the
    store routes every release-to-zero through :meth:`on_zero` and
    performs the actual per-line free when the drain calls back into
    ``DedupStore._reclaim_one``. Each method that may free takes that
    store as its argument rather than keeping it: a reclaimer pointing
    back at its owner would make every machine a reference cycle.
    """

    def __init__(self) -> None:
        #: PLIDs in deferral order; children freed by the drain
        #: re-defer to the tail, keeping any single drain step
        #: O(fanout)
        self._pending: Deque[int] = deque()
        #: counted holds: owners that drain between batches, plus a
        #: running drain. While any is taken, a release only queues.
        self.holds = 0
        self.epoch = 0
        self.stats = ReclaimStats()

    # ------------------------------------------------------------------
    # hot path

    def on_zero(self, store, plid: int) -> None:
        """Queue a released-to-zero line — O(1), no subtree walk — and,
        unless the store is held, drain the queue to empty."""
        pending = self._pending
        pending.append(plid)
        self.stats.deferred_total += 1
        if len(pending) > self.stats.max_pending:
            self.stats.max_pending = len(pending)
        if not self.holds:
            self.drain(store)

    # ------------------------------------------------------------------
    # drains

    def pending(self) -> int:
        """Deferred lines awaiting reclamation."""
        return len(self._pending)

    def drain(self, store, budget: Optional[int] = None) -> int:
        """Free up to ``budget`` deferred lines (all of them if None).

        Children-first in effect: freeing a line decrements its
        children through the store's normal decref, and any child
        reaching zero re-defers to the tail of this same queue — so an
        unbudgeted drain reclaims whole subtrees and a budgeted one
        makes monotonic progress without ever exceeding
        ``budget * fanout`` decrements. The drain holds the store while
        it runs, so the decrements it makes only queue. Returns the
        lines freed.
        """
        freed = 0
        self.holds += 1
        try:
            while self._pending and (budget is None or freed < budget):
                plid = self._pending.popleft()
                if plid not in store._lines:
                    # freed by an earlier queue entry for the same PLID
                    self.stats.drained_stale += 1
                    continue
                if store._refcounts.get(plid, 0) > 0:
                    # resurrected: a content lookup found the dead line
                    # and revived it (dedup hit); it is live again, skip
                    self.stats.drained_resurrected += 1
                    continue
                store._reclaim_one(plid)
                self.stats.drained_freed += 1
                freed += 1
        finally:
            self.holds -= 1
        return freed

    def advance(self, store, budget: Optional[int] = None) -> int:
        """Seal the current epoch and drain up to ``budget`` lines.

        A held store's owner calls this between commit batches: frees
        deferred by one batch are reclaimed — bounded — before the
        next batch commits. Returns the lines freed.
        """
        self.epoch += 1
        self.stats.epochs_advanced += 1
        return self.drain(store, budget)

    def quiesce(self, store) -> int:
        """Drain *everything* synchronously; returns the lines freed.

        The contract point for every observer of exact state: machine
        audits, history-independence fingerprints, persistence images
        and replication FORGET flushing all quiesce first (wired
        through :meth:`repro.memory.system.MemorySystem.drain`), after
        which a held store holds exactly the lines an unheld store that
        ran the same workload holds.
        """
        self.stats.quiesces += 1
        self.epoch += 1
        self.stats.epochs_advanced += 1
        return self.drain(store)

    # ------------------------------------------------------------------
    # accounting

    def snapshot(self) -> Dict:
        """JSON-safe view (obs adapter / ``stats json``)."""
        return {
            "epoch": self.epoch,
            "pending_lines": len(self._pending),
            "deferred_total": self.stats.deferred_total,
            "drained_freed": self.stats.drained_freed,
            "drained_resurrected": self.stats.drained_resurrected,
            "drained_stale": self.stats.drained_stale,
            "epochs_advanced": self.stats.epochs_advanced,
            "quiesces": self.stats.quiesces,
            "max_pending": self.stats.max_pending,
            "pressure_drains": self.stats.pressure_drains,
        }
