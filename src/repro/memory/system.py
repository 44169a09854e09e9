"""The composed HICAMP memory system: deduplicating DRAM behind the
HICAMP cache.

This is the interface the rest of the simulator programs against. It
exposes the architecture's two fundamental operations plus hardware
reference counting:

* :meth:`MemorySystem.read` — line by PLID;
* :meth:`MemorySystem.lookup` — find-or-allocate by content (the returned
  reference is counted);
* :meth:`MemorySystem.incref` / :meth:`MemorySystem.decref` — reference
  management, with recursive deallocation handled by the store.
"""

from __future__ import annotations

from typing import Optional

from repro.memory.cache import HicampCache
from repro.memory.dedup_store import DedupStore
from repro.memory.line import Line, zero_line
from repro.memory.stats import DramStats
from repro.params import MachineConfig


class MemorySystem:
    """Deduplicated DRAM + HICAMP cache, with unified traffic accounting."""

    def __init__(self, config: Optional[MachineConfig] = None) -> None:
        self.config = config or MachineConfig()
        self.store = DedupStore(self.config.memory)
        self.cache = HicampCache(self.store, self.config.cache)
        #: the store's structural memo (:mod:`repro.memory.memo`):
        #: disabled by default so modeled statistics are untouched; the
        #: serving stack enables it for host-level speed
        self.memo = self.store.memo
        # The geometry table: fixed for the life of the machine, read on
        # every DAG step, so plain attributes rather than config lookups.
        #: data words per leaf line
        self.words_per_line = self.config.memory.words_per_line
        #: child entries per interior line (the DAG fan-out)
        self.fanout = self.config.memory.fanout
        #: line size in bytes
        self.line_bytes = self.config.memory.line_bytes
        #: ``spans[level]``: words under one entry at ``level``; extended
        #: on demand by :func:`repro.segments.dag.entry_capacity`
        self.spans = [self.words_per_line]
        self._zero = zero_line(self.words_per_line)

    # ------------------------------------------------------------------

    @property
    def dram(self) -> DramStats:
        """Off-chip DRAM access counters (the paper's headline metric)."""
        return self.store.stats

    def dram_probe(self):
        """Context manager capturing the DRAM-access delta of a block.

        The observability layer's attribution primitive::

            with mem.dram_probe() as probe:
                kvp.put(key, value)
            probe.delta  # a DramStats of just this operation's traffic

        Deferred traffic (cache writebacks, RC evictions) lands when it
        reaches DRAM, not necessarily inside the probed block — call
        :meth:`drain` first for exact per-operation attribution.
        """
        from repro.obs.trace import DramProbe
        return DramProbe(self.dram)

    def read(self, plid: int) -> Line:
        """Read a line by PLID through the cache."""
        return self.cache.read(plid)

    def lookup(self, line: Line, consume: bool = False) -> int:
        """Find-or-allocate a line by content; the reference is counted.

        ``consume`` hands the caller's references on the line's child
        PLIDs to the line (:meth:`HicampCache.lookup`)."""
        return self.cache.lookup(line, consume)

    def incref(self, plid: int, count: int = 1) -> None:
        """Add references to a line (a PLID value was copied/stored)."""
        self.store.incref(plid, count)

    def decref(self, plid: int, count: int = 1) -> None:
        """Drop references; lines reaching zero are recursively freed."""
        self.store.decref(plid, count)

    def refcount(self, plid: int) -> int:
        """Current reference count of a line."""
        return self.store.refcount(plid)

    def zero(self) -> Line:
        """The all-zero line for this geometry."""
        return self._zero

    # ------------------------------------------------------------------
    # replication surface

    def has_line(self, plid: int) -> bool:
        """True when ``plid`` names an allocated line (known-PLID test)."""
        return self.store.is_allocated(plid)

    def export_line(self, plid: int) -> Line:
        """A line's content for shipping to another machine (uncharged)."""
        return self.store.export_line(plid)

    def install_line(self, line: Line) -> "tuple[int, bool]":
        """Install a received line by content; returns ``(plid, created)``.

        Idempotent: already-present content dedups to its existing PLID.
        The returned reference is counted and owned by the caller.
        """
        return self.store.install_line(line)

    # ------------------------------------------------------------------

    def footprint_lines(self) -> int:
        """Unique allocated lines in DRAM."""
        return self.store.footprint_lines()

    def footprint_bytes(self) -> int:
        """Bytes of DRAM consumed by unique lines."""
        return self.store.footprint_bytes()

    def drain(self) -> None:
        """Flush caches so all deferred traffic reaches the DRAM counters.

        Call at the end of a measured run before reading :attr:`dram`.
        Quiesces the reclaimer first (its queue is already empty unless
        the store is held), so every observer that drains before
        looking — machine auditors, HI fingerprints, persistence
        images — sees only live lines. The quiesce runs before
        the cache flush so dealloc listeners can invalidate cached
        copies of freed lines before they would be written back.
        """
        self.store.reclaim_quiesce()
        self.cache.flush()
        self.store.flush_rc_cache()
