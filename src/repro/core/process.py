"""Protected references: the HICAMP process model (sections 2.1, 2.3).

"There is no need for conventional address translation in HICAMP because
inter-process isolation is achieved by the protected references. In
particular, a process can only access data that it creates or to which
it is passed a reference. Moreover, a reference (VSID) can be passed as
read-only... achieving the same protection as separate address spaces
but without the IPC communication overheads."

:class:`Process` models that: a capability set of VSIDs. All segment
access goes through the process, which checks possession (PLIDs/VSIDs
are hardware-tagged and unforgeable, so possession *is* the access
right). Passing a reference to another process grants it — read-write,
read-only, or as a stable snapshot.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set

from repro.core.machine import Machine
from repro.errors import HicampError
from repro.segments.anon import AnonSegment
from repro.segments.iterator import IteratorRegister
from repro.segments.segment_map import SegmentFlags


class ProtectionError(HicampError):
    """A process touched a VSID it was never granted (it could not have
    held the tagged reference — hardware would fault the untagged word)."""


class Process:
    """One protection domain: a name plus the references it holds."""

    def __init__(self, machine: Machine, name: str) -> None:
        self.machine = machine
        self.name = name
        self._grants: Set[int] = set()

    # ------------------------------------------------------------------
    # capability management

    def holds(self, vsid: int) -> bool:
        """True when this process holds a reference to ``vsid``."""
        return vsid in self._grants

    def _check(self, vsid: int) -> int:
        if vsid not in self._grants:
            raise ProtectionError(
                "process %r holds no reference to VSID %d" % (self.name, vsid))
        return vsid

    def create_segment(self, words=(),
                       flags: SegmentFlags = SegmentFlags.NONE) -> int:
        """Create a segment; the creator holds the only reference."""
        vsid = self.machine.create_segment(words, flags=flags)
        self._grants.add(vsid)
        return vsid

    def grant(self, other: "Process", vsid: int) -> int:
        """Pass a read-write reference to another process.

        No copy, no message, no marshalling — the receiver simply gains
        the capability (this is the IPC the architecture eliminates).
        """
        self._check(vsid)
        other._grants.add(vsid)
        return vsid

    def grant_read_only(self, other: "Process", vsid: int) -> int:
        """Pass a read-only reference (a new VSID the receiver cannot
        commit through)."""
        self._check(vsid)
        ro = self.machine.share_read_only(vsid)
        other._grants.add(ro)
        return ro

    def revoke(self, vsid: int) -> None:
        """Drop this process's own reference."""
        self._check(vsid)
        self._grants.discard(vsid)

    # ------------------------------------------------------------------
    # checked access paths

    def read_word(self, vsid: int, offset: int):
        """Checked word read."""
        return self.machine.read_word(self._check(vsid), offset)

    def read_segment(self, vsid: int) -> List:
        """Checked full read."""
        return self.machine.read_segment(self._check(vsid))

    def write_word(self, vsid: int, offset: int, value) -> None:
        """Checked copy-on-write update (read-only refs are rejected by
        the segment map itself)."""
        self.machine.write_word(self._check(vsid), offset, value)

    def snapshot(self, vsid: int) -> AnonSegment:
        """Checked snapshot."""
        return self.machine.snapshot(self._check(vsid))

    def iterator(self, vsid: int, offset: int = 0) -> IteratorRegister:
        """Checked iterator-register load."""
        return self.machine.iterator(self._check(vsid), offset)

    def atomic_update(self, vsid: int,
                      update: Callable[[IteratorRegister], None],
                      merge: Optional[bool] = None) -> None:
        """Checked non-blocking atomic update."""
        self.machine.atomic_update(self._check(vsid), update, merge=merge)
