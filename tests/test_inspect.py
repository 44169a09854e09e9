"""Tests for DAG inspection/visualization tools."""

import pytest

from repro.analysis.inspect import (
    dump_entry,
    segment_report,
    sharing_matrix,
    to_dot,
)
from repro.memory.line import ref_plid


class TestDump:
    def test_dense_segment_dump(self, machine):
        # wide values so leaves stay real lines (no data compaction)
        vsid = machine.create_segment([(1 << 40) + i for i in range(40)])
        entry = machine.segmap.entry(vsid)
        text = dump_entry(machine.mem, entry.root, entry.height)
        assert "line" in text
        assert "level 0" in text

    def test_inline_segment_dump(self, machine):
        vsid = machine.create_segment([1, 2, 3])
        entry = machine.segmap.entry(vsid)
        text = dump_entry(machine.mem, entry.root, entry.height)
        assert "inline" in text

    def test_zero_segment_dump(self, machine):
        text = dump_entry(machine.mem, 0, 2)
        assert "(zero)" in text

    def test_depth_limit(self, machine):
        vsid = machine.create_segment([])
        machine.write_word(vsid, 10**12, 1 << 50)
        entry = machine.segmap.entry(vsid)
        text = dump_entry(machine.mem, entry.root, entry.height, max_depth=1)
        assert text  # renders without exploding


class TestReport:
    def test_counts_add_up(self, machine):
        vsid = machine.create_segment(list(range(1000, 1128)))
        report = segment_report(machine, vsid)
        assert report.total_lines == report.leaf_lines + report.interior_lines
        assert report.bytes == report.total_lines * machine.mem.line_bytes
        assert report.length == 128
        assert "VSID" in report.as_text()

    def test_sparse_shows_compaction(self, machine):
        # the off-position value forces a real leaf line, so the chain of
        # single-child ancestors collapses into one compacted path
        vsid = machine.create_segment([])
        machine.write_word(vsid, (1 << 30) + 5, 1 << 50)
        report = segment_report(machine, vsid)
        assert report.compacted_paths >= 1
        assert report.total_lines <= 2

    def test_single_small_value_is_pure_inline(self, machine):
        # a lone small word propagates as a pack entry all the way up:
        # even path compaction is unnecessary
        vsid = machine.create_segment([])
        machine.write_word(vsid, 1 << 30, 7)
        report = segment_report(machine, vsid)
        assert report.total_lines <= 1
        assert report.inline_entries >= 1

    def test_inline_counted(self, machine):
        vsid = machine.create_segment([1, 2, 3])
        report = segment_report(machine, vsid)
        assert report.inline_entries == 1
        assert report.total_lines == 0


class TestSharing:
    def test_duplicate_segments_fully_shared(self, machine):
        a = machine.create_segment(list(range(500, 564)))
        b = machine.create_segment(list(range(500, 564)))
        matrix = sharing_matrix(machine, [a, b])
        report = segment_report(machine, a)
        assert matrix[(a, b)] == report.total_lines

    def test_disjoint_segments_share_nothing(self, machine):
        a = machine.create_segment([1 << 40, 2 << 40])
        b = machine.create_segment([3 << 40, 4 << 40])
        assert sharing_matrix(machine, [a, b])[(a, b)] == 0

    def test_partial_sharing(self, machine):
        base = list(range(7000, 7128))
        a = machine.create_segment(base)
        modified = list(base)
        modified[0] = 1
        b = machine.create_segment(modified)
        shared = sharing_matrix(machine, [a, b])[(a, b)]
        assert 0 < shared < segment_report(machine, a).total_lines


class TestDot:
    def test_renders_valid_shape(self, machine):
        a = machine.create_segment(list(range(900, 964)))
        dot = to_dot(machine, [a])
        assert dot.startswith("digraph hicamp {")
        assert dot.endswith("}")
        assert "VSID %d" % a in dot
        assert "->" in dot

    def test_shared_lines_appear_once(self, machine):
        a = machine.create_segment(list(range(800, 864)))
        b = machine.create_segment(list(range(800, 864)))
        dot = to_dot(machine, [a, b])
        # both VSIDs point at the same root node
        entry = machine.segmap.entry(a)
        root_decl = dot.count('L%d [' % ref_plid(entry.root))
        assert root_decl == 1
        assert "V%d -> L%d;" % (a, ref_plid(entry.root)) in dot
        assert "V%d -> L%d;" % (b, ref_plid(entry.root)) in dot

    def test_max_lines_cap(self, machine):
        a = machine.create_segment(list(range(4000, 4512)))
        dot = to_dot(machine, [a], max_lines=5)
        assert dot.count("[label=\"{") <= 6
