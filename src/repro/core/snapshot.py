"""Segment snapshots.

Passing a segment reference hands the receiver a stable snapshot of the
content at essentially no cost (section 2.2): the snapshot pins the root
it observed with one reference, and copy-on-write means no later commit
can disturb it. A snapshot is therefore the unit of read-only sharing and
of long-running read transactions (the paper's bank-audit example).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.memory.system import MemorySystem
from repro.segments import dag
from repro.segments.dag import Entry


class Snapshot:
    """An immutable view of one segment version.

    Create via :meth:`repro.core.machine.Machine.snapshot`; use as a
    context manager (or call :meth:`release`) so the pinned version can be
    reclaimed.
    """

    def __init__(self, mem: MemorySystem, root: Entry, height: int,
                 length: int) -> None:
        self._mem = mem
        self._root = root  # owned reference
        self._height = height
        self._length = length
        self._released = False

    # ------------------------------------------------------------------

    @property
    def root(self) -> Entry:
        """The pinned root entry (identity of this content version)."""
        return self._root

    @property
    def height(self) -> int:
        """DAG height of the pinned version."""
        return self._height

    @property
    def length(self) -> int:
        """Logical length in words."""
        return self._length

    def key(self) -> bytes:
        """Canonical content key — equal iff snapshot contents are equal
        (the single-instruction segment compare of section 2.2)."""
        return dag.entry_key(self._root) + bytes((self._height,))

    # ------------------------------------------------------------------

    def read(self, offset: int, count: int = 1):
        """Word at ``offset`` (zero beyond the written content).

        ``count > 1`` reads that many consecutive words as a list, in one
        descent when they share a leaf line (:func:`dag.read_word`)."""
        if offset + count <= self._length:
            return dag.read_word(self._mem, self._root, self._height,
                                 offset, count)
        if count == 1:
            return 0
        words = self.read_range(offset, count)
        return words + [0] * (count - len(words))

    def read_range(self, start: int, count: int) -> List:
        """``count`` consecutive words starting at ``start``."""
        count = max(0, min(count, self._length - start))
        if count == 0:
            return []
        return dag.gather_words(self._mem, self._root, self._height, start, count)

    def words(self) -> List:
        """The entire content as a word list."""
        return self.read_range(0, self._length)

    def iter_nonzero(self, start: int = 0) -> Iterator[Tuple[int, object]]:
        """Iterate ``(offset, word)`` over non-null elements."""
        return dag.iter_nonzero(self._mem, self._root, self._height,
                                start=start, stop=self._length)

    # ------------------------------------------------------------------

    def release(self) -> None:
        """Drop the snapshot's reference (idempotent)."""
        if not self._released:
            dag.release_entry(self._mem, self._root)
            self._released = True

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.release()
