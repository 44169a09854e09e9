"""Segment DAG inspection: structure dumps, sharing analysis, Graphviz.

Debugging a content-addressed memory means looking at DAGs: which lines
a segment touches, where path/data compaction kicked in, and what is
shared with what. These helpers render that:

* :func:`dump_entry` — an indented text tree of a subtree;
* :func:`segment_report` — per-segment line/compaction statistics;
* :func:`sharing_matrix` — pairwise line sharing between segments;
* :func:`to_dot` — a Graphviz document of one or more DAGs (shared
  lines appear once, with multiple parents — dedup made visible).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.memory.line import (
    ZERO_PLID, is_pack, is_ref, pack_fields, ref_path, ref_plid)
from repro.memory.system import MemorySystem
from repro.segments import dag
from repro.segments.dag import Entry


def _word_label(word) -> str:
    if is_ref(word):
        path = ref_path(word)
        return "->%d%s" % (ref_plid(word),
                           ("@" + "".join(map(str, path))) if path else "")
    if is_pack(word):
        width, values, _ = pack_fields(word)
        return "inl%d%r" % (width, list(values))
    return hex(word) if word > 9 else str(word)


def dump_entry(mem: MemorySystem, entry: Entry, level: int,
               max_depth: int = 6) -> str:
    """Indented text rendering of a subtree (down to ``max_depth``)."""
    lines: List[str] = []

    def visit(entry: Entry, level: int, indent: int) -> None:
        pad = "  " * indent
        if entry == 0:
            lines.append(pad + "(zero)")
            return
        if is_pack(entry):
            width, values, _ = pack_fields(entry)
            lines.append(pad + "inline w=%d values=%r" % (width, list(values)))
            return
        digits = tuple(ref_path(entry))
        path = ("path=%s " % (digits,)) if digits else ""
        lines.append(pad + "line %d %s(level %d)"
                     % (ref_plid(entry), path, level - len(digits)))
        if indent >= max_depth:
            lines.append(pad + "  ...")
            return
        actual_level = level - len(digits)
        content = mem.store.peek(ref_plid(entry))
        if actual_level == 0:
            lines.append(pad + "  [%s]"
                         % " ".join(_word_label(w) for w in content))
            return
        for child in content:
            visit(child, actual_level - 1, indent + 1)

    visit(entry, level, 0)
    return "\n".join(lines)


@dataclass
class SegmentReport:
    """Structural statistics of one segment DAG."""

    vsid: int
    length: int
    height: int
    total_lines: int = 0
    leaf_lines: int = 0
    interior_lines: int = 0
    inline_entries: int = 0
    compacted_paths: int = 0
    bytes: int = 0

    def as_text(self) -> str:
        """One-line summary."""
        return ("VSID %d: %d words, height %d, %d lines "
                "(%d leaves, %d interior), %d inline entries, "
                "%d compacted paths, %d bytes"
                % (self.vsid, self.length, self.height, self.total_lines,
                   self.leaf_lines, self.interior_lines,
                   self.inline_entries, self.compacted_paths, self.bytes))


def segment_report(machine, vsid: int) -> SegmentReport:
    """Walk a segment's DAG and collect structural statistics."""
    entry = machine.segmap.entry(vsid)
    mem = machine.mem
    report = SegmentReport(vsid=vsid, length=entry.length,
                           height=entry.height)
    seen: Set[int] = set()

    def visit(entry: Entry, level: int) -> None:
        if entry == 0:
            return
        if is_pack(entry):
            report.inline_entries += 1
            return
        path, plid = ref_path(entry), ref_plid(entry)
        if path:
            report.compacted_paths += 1
        actual_level = level - len(path)
        if plid in seen:
            return
        seen.add(plid)
        report.total_lines += 1
        if actual_level == 0:
            report.leaf_lines += 1
            return
        report.interior_lines += 1
        for child in mem.store.peek(plid):
            visit(child, actual_level - 1)

    visit(entry.root, entry.height)
    report.bytes = report.total_lines * mem.line_bytes
    return report


def sharing_matrix(machine, vsids: Sequence[int]) -> Dict[Tuple[int, int], int]:
    """Pairwise count of lines shared between segments' DAGs."""
    line_sets = {vsid: {plid for plid, _ in dag.walk_lines(
        machine.mem.store, machine.segmap.entry(vsid).root)}
        for vsid in vsids}
    out: Dict[Tuple[int, int], int] = {}
    for i, a in enumerate(vsids):
        for b in vsids[i + 1:]:
            out[(a, b)] = len(line_sets[a] & line_sets[b])
    return out


def to_dot(machine, vsids: Sequence[int], max_lines: int = 400) -> str:
    """Graphviz rendering of one or more segment DAGs.

    Deduplicated lines appear once with edges from all their parents —
    the sharing structure of Figure 1, ready for ``dot -Tsvg``.
    """
    mem = machine.mem
    emitted: Set[int] = set()
    lines: List[str] = ["digraph hicamp {", "  rankdir=TB;",
                        "  node [shape=record, fontsize=9];"]

    def visit(plid: int, level: int) -> None:
        if plid in emitted or len(emitted) >= max_lines:
            return
        emitted.add(plid)
        content = mem.store.peek(plid)
        label = "|".join(_word_label(w).replace("<", "(").replace(">", ")")
                         for w in content)
        shape = "leaf" if level == 0 else "node"
        lines.append('  L%d [label="{%d (%s)|{%s}}"];'
                     % (plid, plid, shape, label))
        if level > 0:
            for word in content:
                if is_ref(word) and ref_plid(word) != ZERO_PLID:
                    lines.append("  L%d -> L%d;" % (plid, ref_plid(word)))
                    visit(ref_plid(word), level - 1 - len(ref_path(word)))

    for vsid in vsids:
        entry = machine.segmap.entry(vsid)
        lines.append('  V%d [shape=ellipse, label="VSID %d"];'
                     % (vsid, vsid))
        root = entry.root
        if is_ref(root):
            lines.append("  V%d -> L%d;" % (vsid, ref_plid(root)))
            visit(ref_plid(root), entry.height - len(ref_path(root)))
    lines.append("}")
    return "\n".join(lines)
