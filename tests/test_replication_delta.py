"""The delta engine: reachability walks, pruning, cross-machine install.

These tests exercise the replication building blocks without sockets:
the deterministic children-first walk, known-set pruning (minimality),
line translation between PLID spaces, idempotent installs through the
dedup store, and the machine-independent content fingerprints that stand
in for the paper's O(1) root compare across machines.
"""

from repro import Machine
from repro.memory.line import is_ref, ref, ref_path, ref_plid
from repro.replication.delta import compute_delta, translate_line
from repro.segments import dag

import pytest


def build(machine, words):
    """Build a segment; returns (root, height) with a caller-owned ref."""
    return dag.build_segment(machine.mem, words)


class TestWalkLines:
    def test_children_strictly_before_parents(self, machine):
        root, _ = build(machine, list(range(300)))
        seen = set()
        for plid, line in dag.walk_lines(machine.mem.store,
                                         root):
            for word in line:
                if is_ref(word):
                    assert ref_plid(word) in seen, "parent before child"
            assert plid not in seen, "line yielded twice"
            seen.add(plid)
        dag.release_entry(machine.mem, root)

    def test_walk_is_deterministic(self, machine):
        root, _ = build(machine, list(range(150)))
        first = [p for p, _ in dag.walk_lines(machine.mem.store, root)]
        second = [p for p, _ in dag.walk_lines(machine.mem.store, root)]
        assert first == second and first
        dag.release_entry(machine.mem, root)

    def test_skip_prunes_whole_subtrees(self, machine):
        root, _ = build(machine, list(range(200)))
        full = [p for p, _ in dag.walk_lines(machine.mem.store, root)]
        # knowing everything but the root prunes the walk to nothing new
        known = set(full[:-1])
        rest = [p for p, _ in dag.walk_lines(machine.mem.store, root,
                                             skip=known)]
        assert rest == [full[-1]]
        dag.release_entry(machine.mem, root)

    def test_zero_entry_walks_empty(self, machine):
        assert list(dag.walk_lines(machine.mem.store, 0)) == []


class TestComputeDelta:
    def test_second_delta_ships_only_new_lines(self, machine):
        words = list(range(256))
        root_a, ha = build(machine, words)
        known = set()
        delta_a = compute_delta(machine.mem.store, 0, 1, root_a, ha,
                                len(words), known)
        known.update(p for p, _ in delta_a.lines)
        assert delta_a.line_count > 0

        words[3] = 999_999  # one leaf changes: one spine of new lines
        root_b, hb = build(machine, words)
        delta_b = compute_delta(machine.mem.store, 0, 1, root_b, hb,
                                len(words), known)
        assert 0 < delta_b.line_count < delta_a.line_count
        # everything shipped twice would be a pruning failure
        assert not {p for p, _ in delta_b.lines} & known
        dag.release_entry(machine.mem, root_a)
        dag.release_entry(machine.mem, root_b)


class TestTranslateLine:
    def test_rewrites_references_only(self):
        line = (ref(10, (1,)), 5, 0, ref(20))
        out = translate_line(line, {10: 100, 20: 200})
        assert out == (ref(100, (1,)), 5, 0, ref(200))

    def test_data_only_line_passes_through_unchanged(self):
        line = (1, 2, 3, 4)
        assert translate_line(line, {}) is line

    def test_missing_translation_raises_keyerror(self):
        with pytest.raises(KeyError):
            translate_line((ref(10),), {})


class TestCrossMachineInstall:
    def install_tree(self, src, dst, root):
        """Ship a whole tree between machines; returns the plid map."""
        plid_map = {}
        for plid, line in dag.walk_lines(src.mem.store, root):
            local, _ = dst.install_line(translate_line(line, plid_map))
            plid_map[plid] = local
        return plid_map

    def translated_root(self, plid_map, root):
        if is_ref(root):
            return ref(plid_map[ref_plid(root)], ref_path(root))
        return root

    def release_map(self, dst, plid_map):
        for local in plid_map.values():
            dst.mem.decref(local)

    def test_fingerprints_equal_after_install(self, machine, machine_audit):
        other = Machine(machine.config)
        words = [7, 8, 9] * 60
        vsid = machine.create_segment(words)
        entry = machine.segmap.entry(vsid)

        plid_map = self.install_tree(machine, other, entry.root)
        new_root = self.translated_root(plid_map, entry.root)
        dag.retain_entry(other.mem, new_root)  # segmap takes this ref over
        other_vsid = other.segmap.create(new_root, entry.height,
                                         entry.length, entry.flags)
        self.release_map(other, plid_map)

        assert dag.segment_fingerprint(machine, vsid) == \
            dag.segment_fingerprint(other, other_vsid)
        assert other.read_segment(other_vsid) == words
        machine_audit(other, strict=True)

    def test_double_install_dedups_and_keeps_refcounts_exact(
            self, machine, machine_audit):
        """Satellite: identical lines installed twice via export/install."""
        other = Machine(machine.config)
        root, height = build(machine, list(range(128)))

        first = self.install_tree(machine, other, root)
        baseline = other.footprint_lines()
        # the second install is pure dedup: same PLIDs, no new lines
        second = self.install_tree(machine, other, root)
        assert second == first
        assert other.footprint_lines() == baseline
        for plid, line in dag.walk_lines(machine.mem.store, root):
            local, created = other.install_line(translate_line(line, first))
            assert not created and local == first[plid]
            other.mem.decref(local)

        # releasing every counted install reference reclaims everything
        self.release_map(other, first)
        self.release_map(other, second)
        assert other.footprint_lines() == 0
        machine_audit(other, strict=True)
        dag.release_entry(machine.mem, root)

    def test_install_rejects_unknown_children(self, machine):
        other = Machine(machine.config)
        root, _ = build(machine, list(range(64)))
        lines = list(dag.walk_lines(machine.mem.store, root))
        parent = lines[-1][1]  # references children `other` has never seen
        from repro.errors import BadPlidError
        with pytest.raises(BadPlidError):
            other.install_line(parent)
        dag.release_entry(machine.mem, root)


class TestContentFingerprint:
    def test_same_content_same_fingerprint_across_machines(self, machine):
        other = Machine(machine.config)
        a = machine.create_segment([5] * 100)
        b = other.create_segment([5] * 100)
        assert dag.segment_fingerprint(machine, a) == \
            dag.segment_fingerprint(other, b)

    def test_different_content_different_fingerprint(self, machine):
        a = machine.create_segment([5] * 100)
        b = machine.create_segment([5] * 99 + [6])
        assert dag.segment_fingerprint(machine, a) != \
            dag.segment_fingerprint(machine, b)

    def test_empty_segments_agree(self, machine):
        other = Machine(machine.config)
        assert dag.segment_fingerprint(machine, machine.create_segment([])) \
            == dag.segment_fingerprint(other, other.create_segment([]))
