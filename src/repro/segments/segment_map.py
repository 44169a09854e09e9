"""The virtual segment map (section 2.3).

Software names segments by Virtual Segment IDs (VSIDs); the map translates
a VSID to ``[root PLID, height, flags]``. The indirection gives HICAMP its
protection model — a process can only reach content whose VSID (or PLID)
it was explicitly given — and its update model: committing a new version
of a segment is a single compare-and-swap of the root PLID in the map
entry, which is also the only mutable, coherence-requiring state in the
architecture.

Deviations from the paper, documented:

* entries also record the segment's logical ``length`` in words. Hardware
  would leave this to software conventions (e.g. a length header word);
  the library keeps it in the map entry for convenience, and structures
  that need content-unique identity across lengths (HString) additionally
  embed a length header in the segment content itself.
* the map is held in conventional memory (a dict); the paper also allows
  a map implemented as a HICAMP segment for atomic multi-segment commit,
  which :class:`repro.segments.hicamp_map.HicampSegmentMap` implements.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from repro.errors import BadVsidError, ReadOnlyError
from repro.memory.system import MemorySystem
from repro.segments import dag
from repro.segments.dag import Entry


class SegmentFlags(enum.IntFlag):
    """Per-entry flags (section 2.3)."""

    NONE = 0
    #: Holders of this reference may not update the root PLID.
    READ_ONLY = 1
    #: CAS failures on this segment should attempt merge-update (§3.4).
    MERGE_UPDATE = 2
    #: Weak reference: zeroed on reclamation instead of pinning content.
    WEAK = 4


@dataclass
class MapEntry:
    """One segment-map entry: ``[root, height, flags]`` plus length."""

    root: Entry
    height: int
    length: int
    flags: SegmentFlags = SegmentFlags.NONE
    #: bumped on every root swap; cheap staleness check for iterators.
    version: int = 0


class SegmentMap:
    """VSID → segment-map-entry translation table."""

    def __init__(self, mem: MemorySystem) -> None:
        self.mem = mem
        self._entries: Dict[int, MapEntry] = {}
        self._next_vsid = 1
        #: weak aliases per target VSID, zeroed when the target is dropped
        self._weak_aliases: Dict[int, List[int]] = {}
        self._weak_target: Dict[int, int] = {}  # alias -> live target
        #: counters for CAS outcomes (feeds the §5.1.1 conflict analysis)
        self.cas_attempts = 0
        self.cas_failures = 0

    # ------------------------------------------------------------------

    def create(self, root: Entry = 0, height: int = 0, length: int = 0,
               flags: SegmentFlags = SegmentFlags.NONE) -> int:
        """Allocate a VSID for a segment.

        Takes over the caller's reference on ``root`` — the map entry now
        owns it.
        """
        vsid = self._next_vsid
        self._next_vsid += 1
        self._entries[vsid] = MapEntry(root=root, height=height,
                                       length=length, flags=flags)
        return vsid

    def entry(self, vsid: int) -> MapEntry:
        """The live entry for ``vsid`` (raises :class:`BadVsidError`).

        A weak alias resolves to its target's current entry while the
        target lives; afterwards it resolves to its own zeroed entry.
        """
        target = self._weak_target.get(vsid)
        if target is not None and target in self._entries:
            live = self._entries[target]
            weak = self._entries[vsid]
            # mirror the target (read-only view of the current version)
            weak.root, weak.height = live.root, live.height
            weak.length, weak.version = live.length, live.version
            return weak
        try:
            return self._entries[vsid]
        except KeyError:
            raise BadVsidError("VSID %d is not mapped" % vsid)

    def exists(self, vsid: int) -> bool:
        """True when ``vsid`` names a live segment."""
        return vsid in self._entries

    def is_read_only(self, vsid: int) -> bool:
        """True when the entry is flagged read-only."""
        return bool(self.entry(vsid).flags & SegmentFlags.READ_ONLY)

    def writable(self, vsid: int, action: str = "write") -> MapEntry:
        """The live entry for ``vsid``; a read-only reference raises
        :class:`ReadOnlyError`. A writer asks before it builds, so a
        refused write holds no version it must release."""
        entry = self.entry(vsid)
        if entry.flags & SegmentFlags.READ_ONLY:
            raise ReadOnlyError("%s through read-only reference to VSID %d"
                                % (action, vsid))
        return entry

    # ------------------------------------------------------------------

    def cas_root(self, vsid: int, expected_root: Entry, expected_height: int,
                 new_root: Entry, new_height: int, new_length: int) -> bool:
        """Atomically replace the root if it is still the expected one.

        This is the architecture's commit primitive (section 2.2 step 3).
        On success the map takes over the caller's reference on
        ``new_root`` and drops its reference on the old root; on failure
        the caller keeps its reference on ``new_root`` (and typically
        retries or merges).
        """
        entry = self.writable(vsid, "CAS")
        self.cas_attempts += 1
        if (entry.height != expected_height
                or entry.root != expected_root):
            self.cas_failures += 1
            return False
        old_root = entry.root
        entry.root = new_root
        entry.height = new_height
        entry.length = new_length
        entry.version += 1
        dag.release_entry(self.mem, old_root)
        return True

    def set_root(self, vsid: int, new_root: Entry, new_height: int,
                 new_length: int) -> None:
        """Unconditional root replacement (single-writer update).

        Takes over the caller's reference on ``new_root``.
        """
        entry = self.writable(vsid)
        old_root = entry.root
        entry.root = new_root
        entry.height = new_height
        entry.length = new_length
        entry.version += 1
        dag.release_entry(self.mem, old_root)

    # ------------------------------------------------------------------

    def share_read_only(self, vsid: int) -> int:
        """A new VSID for the same segment content, flagged read-only.

        Passing such a reference gives another thread access to the data
        with the same protection as a separate address space but no copy
        (section 2.3). The new entry snapshots the current root.
        """
        entry = self.entry(vsid)
        dag.retain_entry(self.mem, entry.root)
        return self.create(entry.root, entry.height, entry.length,
                           entry.flags | SegmentFlags.READ_ONLY)

    def create_weak_alias(self, vsid: int) -> int:
        """A weak reference to a segment (section 2.3).

        The alias does not pin the content: while the target lives, the
        alias tracks the target's current version; when the target is
        dropped, the alias is *zeroed* — rather than preventing
        reclamation — and reads as the empty segment. Aliases are always
        read-only.
        """
        self.entry(vsid)  # must exist
        alias = self.create(0, 0, 0, SegmentFlags.WEAK | SegmentFlags.READ_ONLY)
        self._weak_aliases.setdefault(vsid, []).append(alias)
        self._weak_target[alias] = vsid
        return alias

    def drop(self, vsid: int) -> None:
        """Delete a map entry, releasing its reference on the root DAG.

        Weak aliases of the dropped segment are zeroed (section 2.3's
        weak-reference semantics).
        """
        if vsid in self._weak_target:
            # an alias owns no reference — just unlink it
            target = self._weak_target.pop(vsid)
            if target in self._weak_aliases:
                self._weak_aliases[target] = [
                    a for a in self._weak_aliases[target] if a != vsid]
            del self._entries[vsid]
            return
        entry = self.entry(vsid)
        del self._entries[vsid]
        for alias in self._weak_aliases.pop(vsid, []):
            if alias in self._entries:
                weak = self._entries[alias]
                weak.root, weak.height, weak.length = 0, 0, 0
                weak.version += 1
            self._weak_target.pop(alias, None)
        dag.release_entry(self.mem, entry.root)

    def live_vsids(self) -> List[int]:
        """All mapped VSIDs (diagnostics)."""
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)
