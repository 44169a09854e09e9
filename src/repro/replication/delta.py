"""The structural delta engine.

A segment update on HICAMP is fully described by (a) the lines the
receiver has never seen and (b) the new root — everything else is shared
structure the receiver already holds. The delta engine is therefore just
the deterministic children-first reachability walk of
:func:`repro.segments.dag.walk_lines`, pruned at every subtree root the
follower is known to hold: knowledge of a line implies knowledge of its
entire subtree (a line's content embeds its children's PLIDs, and the
follower's install pinned them), so the walk never descends into shared
history. What remains is, by construction, the minimal set of lines the
follower needs, in an order where every child precedes its parent.

The engine runs against a *retained* root entry: the caller takes a
reference before computing and releases it after shipping, so a
concurrent commit on the leader cannot deallocate a line mid-delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Set, Tuple

from repro.memory.line import Line, is_ref, ref, ref_path, ref_plid
from repro.segments.dag import Entry, walk_lines


@dataclass
class Delta:
    """One stream's update: new lines (children first) plus the new root."""

    stream: int
    vsid: int
    root: Entry          # leader-side entry; the follower translates
    height: int
    length: int
    lines: List[Tuple[int, Line]] = field(default_factory=list)

    @property
    def line_count(self) -> int:
        return len(self.lines)


def delta_lines(store, entry: Entry,
                known: Set[int]) -> Iterator[Tuple[int, Line]]:
    """Yield ``(plid, line)`` the follower is missing, children first.

    ``known`` is the per-follower set of leader PLIDs already shipped
    (and not since forgotten); subtrees rooted at a known PLID are
    pruned without being read.
    """
    return walk_lines(store, entry, skip=known)


def compute_delta(store, stream: int, vsid: int, entry: Entry, height: int,
                  length: int, known: Set[int]) -> Delta:
    """Materialize the delta for one stream against a known-PLID set."""
    delta = Delta(stream=stream, vsid=vsid, root=entry, height=height,
                  length=length)
    delta.lines.extend(delta_lines(store, entry, known))
    return delta


def translate_line(line: Line, plid_map) -> Line:
    """Rewrite a shipped line's child references into local PLIDs.

    Raises ``KeyError`` with the missing leader PLID when a child was
    never installed — the caller turns that into a NACK.
    """
    if not any(is_ref(w) for w in line):
        return line
    return tuple(ref(plid_map[ref_plid(w)], ref_path(w)) if is_ref(w) else w
                 for w in line)
