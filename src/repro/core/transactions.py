"""Non-blocking atomic update and multi-segment transactions.

The architecture's update protocol (section 2.2):

1. save the root PLID of the original segment;
2. modify the segment, producing a new root PLID;
3. CAS the new root over the original in the segment map, retrying on
   interference.

:func:`atomic_update` packages that loop over an iterator register,
whose :meth:`~repro.segments.iterator.IteratorRegister.try_commit` is
the one build-CAS-mCAS step (mCAS itself lives beside the merge, in
:mod:`repro.segments.merge`). :class:`MultiSegmentCommit` commits new
versions of several segments together, iff none of them changed since
the transaction enrolled it; the segment-backed map of section 2.3,
where one CAS publishes them all, is
:class:`repro.segments.hicamp_map.HicampSegmentMap`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import CasFailedError, MergeConflictError
from repro.memory.system import MemorySystem
from repro.segments import dag
from repro.segments.dag import Entry
from repro.segments.iterator import IteratorRegister
from repro.segments.segment_map import SegmentFlags, SegmentMap


def atomic_update(it: IteratorRegister, update: Callable[[IteratorRegister], None],
                  merge: Optional[bool] = None, max_retries: int = 64) -> None:
    """Run ``update(it)`` against a snapshot and commit atomically.

    The register must already be loaded. ``merge`` None follows the
    segment's MERGE_UPDATE flag; an explicit True or False wins over
    it. On a lost CAS a plain commit reloads the snapshot and re-runs
    ``update``, while a merge commit folds its changes into the
    winner's version without re-running. Raises
    :class:`CasFailedError` after ``max_retries`` lost races and
    :class:`MergeConflictError` on a true merge conflict.
    """
    vsid = it.vsid
    if merge is None:
        merge = bool(it.segmap.entry(vsid).flags & SegmentFlags.MERGE_UPDATE)
    for _ in range(max_retries):
        update(it)
        if it.try_commit(merge):
            return
        if merge:
            raise MergeConflictError(
                "merge-update failed with a true conflict on VSID %d" % vsid
            )
        it.load(vsid, it.offset)  # fresh snapshot, then re-run update
    raise CasFailedError("atomic update on VSID %d exceeded %d retries"
                         % (vsid, max_retries))


class MultiSegmentCommit:
    """Atomic update of several segments at once.

    It records the version of each enrolled segment, buffers new roots,
    and applies all of them only if no enrolled entry changed in
    between. (When the segment map is itself a HICAMP segment, one CAS
    publishes every revised segment, section 2.3: that map is
    :class:`repro.segments.hicamp_map.HicampSegmentMap`.)
    """

    def __init__(self, mem: MemorySystem, segmap: SegmentMap) -> None:
        self._mem = mem
        self._segmap = segmap
        self._base_versions: Dict[int, int] = {}
        self._staged: Dict[int, Tuple[Entry, int, int]] = {}

    def enroll(self, vsid: int) -> None:
        """Include a segment in the transaction's conflict footprint."""
        if vsid not in self._base_versions:
            self._base_versions[vsid] = self._segmap.entry(vsid).version

    def stage(self, vsid: int, new_root: Entry, new_height: int,
              new_length: int) -> None:
        """Buffer a new version for ``vsid`` (takes over the caller's
        reference on ``new_root``); not visible until :meth:`commit`."""
        self.enroll(vsid)
        if vsid in self._staged:
            dag.release_entry(self._mem, self._staged[vsid][0])
        self._staged[vsid] = (new_root, new_height, new_length)

    def commit(self) -> bool:
        """Apply all staged roots iff no enrolled segment changed.

        Returns False (and discards the staged versions) on conflict —
        the revised segments were never visible to other threads.
        """
        for vsid, version in self._base_versions.items():
            if self._segmap.entry(vsid).version != version:
                self.abort()
                return False
        for vsid, (root, height, length) in self._staged.items():
            self._segmap.set_root(vsid, root, height, length)
        self._staged.clear()
        self._base_versions.clear()
        return True

    def abort(self) -> None:
        """Discard staged versions, releasing their references."""
        for root, _, _ in self._staged.values():
            dag.release_entry(self._mem, root)
        self._staged.clear()
        self._base_versions.clear()
