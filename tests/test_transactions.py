"""Unit tests for mCAS and multi-segment commit."""

import pytest

from repro.core.transactions import MultiSegmentCommit, atomic_update
from repro.errors import MergeConflictError
from repro.segments import dag
from repro.segments.iterator import IteratorRegister
from repro.segments.merge import MergeStats, mcas


class TestMcas:
    def test_clean_cas_path(self, machine):
        vsid = machine.create_segment([1, 2, 3])
        entry = machine.segmap.entry(vsid)
        base = (entry.root, entry.height)
        new_root, nh = dag.build_segment(machine.mem, [9, 2, 3])
        assert mcas(machine.mem, machine.segmap, vsid, base,
                    (new_root, nh), 3)
        assert machine.read_segment(vsid) == [9, 2, 3]

    def test_merges_on_interference(self, machine):
        vsid = machine.create_segment([10, 20, 30])
        entry = machine.segmap.entry(vsid)
        base = (entry.root, entry.height)
        dag.retain_entry(machine.mem, base[0])  # keep base alive
        # another thread commits first
        machine.write_word(vsid, 1, 25)
        # our update was computed against the old base
        mine, mh = dag.build_segment(machine.mem, [11, 20, 30])
        stats = MergeStats()
        assert mcas(machine.mem, machine.segmap, vsid, base,
                    (mine, mh), 3, stats=stats)
        assert machine.read_segment(vsid) == [11, 25, 30]
        dag.release_entry(machine.mem, base[0])

    def test_true_conflict_fails(self, machine):
        value_a = machine.create_segment(list(range(40)))
        value_b = machine.create_segment(list(range(40, 80)))
        ea = machine.segmap.entry(value_a)
        eb = machine.segmap.entry(value_b)
        w = machine.mem.words_per_line
        vsid = machine.create_segment([0] * (2 * w))
        entry = machine.segmap.entry(vsid)
        base = (entry.root, entry.height)
        dag.retain_entry(machine.mem, base[0])
        # thread 1 stores ref A at slot 0 and commits
        dag.retain_entry(machine.mem, ea.root)
        r1 = dag.write_words_bulk(machine.mem, dag.retain_entry(
            machine.mem, base[0]) and base[0], base[1], {0: ea.root})
        machine.segmap.set_root(vsid, r1, base[1], 2 * w)
        # thread 2 computed ref B at slot 0 against the old base
        mine = dag.write_words_bulk(machine.mem, dag.retain_entry(
            machine.mem, base[0]) and base[0], base[1], {0: eb.root})
        assert not mcas(machine.mem, machine.segmap, vsid, base,
                        (mine, base[1]), 2 * w)
        dag.release_entry(machine.mem, base[0])
        machine.mem.store.check_refcounts()


class TestAtomicUpdateMerge:
    def test_concurrent_counter_updates_sum(self, machine):
        vsid = machine.create_segment([100])
        it = IteratorRegister(machine.mem, machine.segmap).load(vsid)

        def add_three(it):
            # interference lands after the snapshot, before commit
            if not getattr(add_three, "poked", False):
                add_three.poked = True
                machine.write_word(vsid, 0, 105)  # another thread's +5
            it.put(it.get(0) + 3, offset=0)

        atomic_update(it, add_three, merge=True)
        assert machine.read_word(vsid, 0) == 108  # 100 + 5 + 3
        it.reset()

    def test_merge_conflict_raises(self, machine):
        w = machine.mem.words_per_line
        vsid = machine.create_segment([0] * (2 * w))
        a = machine.create_segment(list(range(40)))
        b = machine.create_segment(list(range(40, 80)))
        ra = machine.segmap.entry(a).root
        rb = machine.segmap.entry(b).root
        it = IteratorRegister(machine.mem, machine.segmap).load(vsid)

        def store_ref(it):
            if not getattr(store_ref, "poked", False):
                store_ref.poked = True
                machine.write_word(vsid, 0, rb)
            it.put(ra, offset=0)

        with pytest.raises(MergeConflictError):
            atomic_update(it, store_ref, merge=True)
        it.reset()


class TestMultiSegmentCommit:
    def test_commit_applies_all(self, machine):
        a = machine.create_segment([1])
        b = machine.create_segment([2])
        txn = MultiSegmentCommit(machine.mem, machine.segmap)
        ra, ha = dag.build_segment(machine.mem, [10])
        rb, hb = dag.build_segment(machine.mem, [20])
        txn.stage(a, ra, ha, 1)
        txn.stage(b, rb, hb, 1)
        # nothing visible before commit
        assert machine.read_segment(a) == [1]
        assert txn.commit()
        assert machine.read_segment(a) == [10]
        assert machine.read_segment(b) == [20]

    def test_conflict_discards_everything(self, machine):
        a = machine.create_segment([1])
        b = machine.create_segment([2])
        txn = MultiSegmentCommit(machine.mem, machine.segmap)
        ra, ha = dag.build_segment(machine.mem, [10])
        rb, hb = dag.build_segment(machine.mem, [20])
        txn.stage(a, ra, ha, 1)
        txn.stage(b, rb, hb, 1)
        machine.write_word(b, 0, 99)  # interference on an enrolled segment
        assert not txn.commit()
        assert machine.read_segment(a) == [1]
        assert machine.read_segment(b) == [99]
        machine.mem.store.check_refcounts()

    def test_enroll_without_stage_guards_reads(self, machine):
        a = machine.create_segment([1])
        b = machine.create_segment([2])
        txn = MultiSegmentCommit(machine.mem, machine.segmap)
        txn.enroll(a)  # read dependency only
        rb, hb = dag.build_segment(machine.mem, [20])
        txn.stage(b, rb, hb, 1)
        machine.write_word(a, 0, 5)  # the read dependency changed
        assert not txn.commit()
        assert machine.read_segment(b) == [2]

    def test_abort_releases(self, machine):
        a = machine.create_segment([1])
        txn = MultiSegmentCommit(machine.mem, machine.segmap)
        ra, ha = dag.build_segment(machine.mem, list(range(3000, 3100)))
        txn.stage(a, ra, ha, 100)
        lines_with_staged = machine.footprint_lines()
        txn.abort()
        assert machine.footprint_lines() < lines_with_staged


class TestMergeUpdateFlag:
    def test_segment_flag_enables_merge_automatically(self, machine):
        # a segment created with MERGE_UPDATE merges without the caller
        # passing merge=True (the §2.3 flags drive the behaviour)
        from repro.segments.segment_map import SegmentFlags
        vsid = machine.create_segment([100],
                                      flags=SegmentFlags.MERGE_UPDATE)

        def bump(it):
            if not getattr(bump, "poked", False):
                bump.poked = True
                machine.write_word(vsid, 0, 105)
            it.put(it.get(0) + 3, offset=0)

        machine.atomic_update(vsid, bump)  # no merge=True needed
        assert machine.read_word(vsid, 0) == 108

    def test_unflagged_segment_retries_instead(self, machine):
        vsid = machine.create_segment([100])
        calls = []

        def bump(it):
            calls.append(1)
            if len(calls) == 1:
                machine.write_word(vsid, 0, 105)
            it.put(it.get(0) + 3, offset=0)

        machine.atomic_update(vsid, bump)
        assert len(calls) == 2          # re-ran from a fresh snapshot
        assert machine.read_word(vsid, 0) == 108


class TestOneCommitStep:
    """A commit builds its new version once per attempt: a lost CAS on a
    merge-update segment hands the version it built to mCAS."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        real = dag.new_version

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(dag, "new_version", counting)
        return calls

    def test_lost_merge_commit_through_atomic_update(self, machine, builds):
        from repro.segments.segment_map import SegmentFlags
        vsid = machine.create_segment([100, 0],
                                      flags=SegmentFlags.MERGE_UPDATE)
        segmap = machine.segmap

        def bump(it):
            if not getattr(bump, "poked", False):
                bump.poked = True
                machine.write_word(vsid, 1, 7)  # commits in the window
                builds.clear()
                bump.cas = (segmap.cas_attempts, segmap.cas_failures)
            it.put(it.get(0) + 3, offset=0)

        machine.atomic_update(vsid, bump)
        assert len(builds) == 1
        # the register's lost CAS, mCAS's retry of it, the merged CAS
        assert (segmap.cas_attempts - bump.cas[0],
                segmap.cas_failures - bump.cas[1]) == (3, 2)
        assert machine.read_segment(vsid) == [103, 7]
        machine.mem.store.check_refcounts()

    def test_lost_merge_commit_through_put_steps(self, machine, builds):
        from repro.structures import HMap
        kvp = HMap.create(machine)
        gen = kvp.put_steps(b"a", b"1")
        next(gen)  # staged; the update window is open
        kvp.put(b"b", b"2")
        builds.clear()
        with pytest.raises(StopIteration) as done:
            next(gen)
        assert done.value.value == 0  # no true conflict
        assert len(builds) == 1
        assert (kvp.get(b"a"), kvp.get(b"b"), len(kvp)) == (b"1", b"2", 2)
        machine.mem.store.check_refcounts()

    def test_put_steps_takes_presence_from_the_read_table(self, machine,
                                                          monkeypatch):
        from repro.structures import HMap
        machine.mem.memo.enable()
        kvp = HMap.create(machine)
        kvp.put(b"k", b"old")
        assert kvp.get(b"k") == b"old"  # the read table answers it now
        memo = machine.mem.memo
        asked, reads = [], []
        real_get_read, real_get = memo.get_read, IteratorRegister.get

        def get_read(vsid, version, key):
            answer = real_get_read(vsid, version, key)
            asked.append((key, answer))
            return answer

        def get(it, offset=None):
            reads.append(offset)
            return real_get(it, offset)

        monkeypatch.setattr(memo, "get_read", get_read)
        monkeypatch.setattr(IteratorRegister, "get", get)
        for _ in kvp.put_steps(b"k", b"new"):
            pass
        assert asked == [(b"k", b"old")]
        assert reads == []  # no slot descent for the key's presence
        monkeypatch.undo()
        assert (kvp.get(b"k"), len(kvp)) == (b"new", 1)


class TestDrainIdempotence:
    def test_drain_twice_adds_nothing(self, machine):
        machine.create_segment(list(range(3000, 3200)))
        machine.drain()
        total = machine.dram.total()
        machine.drain()
        assert machine.dram.total() == total
