"""The single-descent DAG rebuild against the level-at-a-time oracle.

``tests/reference_dag.py`` is the recursive write path and merge-update
as they stood before :mod:`repro.segments.dag` learnt to cross a run of
elided levels in one step. Here the two run side by side on twin
machines — production code on one, the oracle on the other — and after
every operation the twins must agree on everything the memory system can
observe: the root entry, the reference count of every line, the modeled
DRAM counters, cache and memo traffic. Equal counters after every step
of a long random run mean the ``lookup``/``read``/``incref``/``decref``
sequences were equal, not just their sums (the cache is small enough to
evict, so a reordering shows up as different traffic).
"""

import cProfile
import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Machine, MachineConfig, MemoryConfig
from repro.errors import MergeConflictError, SegmentRangeError
from repro.memory.line import is_pack, is_ref, pack_values, ref_path
from repro.params import CacheGeometry
from repro.segments import dag, merge
from repro.segments.merge import MergeStats
from repro.structures.hmap import HMap
from repro.testing.auditors import audit_machine

from tests import reference_dag

LINE_SIZES = (16, 32, 64)
PROFILES = ("paper", "serving")
#: HMap-sized offsets: ``SLOT_BASE + 4 * index`` with indices past 2**120
WIDE = 1 << 120


def make_machine(line_bytes, profile, rc_entries=None):
    """A small machine as the paper runners use it (frees at once, memo
    off) or as ``ShardRouter`` does (store held, so frees wait for a
    drain; memo on). ``rc_entries`` shrinks the RC cache."""
    machine = Machine(MachineConfig(
        memory=MemoryConfig(line_bytes=line_bytes, num_buckets=1 << 8,
                            data_ways=12, overflow_lines=1 << 14),
        cache=CacheGeometry(size_bytes=8 * 1024, ways=4,
                            line_bytes=line_bytes)))
    if rc_entries is not None:
        machine.mem.store._rc_cache._capacity = rc_entries
    if profile == "serving":
        machine.mem.memo.enable()
        machine.mem.store.hold_reclaim()
    return machine


def observables(machine):
    mem = machine.mem
    store = mem.store
    return {
        "refcounts": {plid: store.refcount(plid)
                      for plid in store.live_plids()},
        "dram": mem.dram.as_dict(),
        "cache": dataclasses.asdict(mem.cache.traffic),
        "memo": mem.memo.snapshot(),
        # the open DRAM row and the RC cache's LRU order: a touch moved,
        # dropped or added shows here before it shows in the counters
        "rows": dataclasses.asdict(store.rows),
        "rc_lru": list(store._rc_cache._entries),
    }


class Twins:
    """One segment, and a pool of referenced value segments, held twice:
    on ``new`` every rebuild goes through :mod:`repro.segments.dag`, on
    ``old`` through the oracle."""

    def __init__(self, line_bytes=16, profile="paper", rc_entries=None):
        self.sides = ((make_machine(line_bytes, profile, rc_entries), dag,
                       merge),
                      (make_machine(line_bytes, profile, rc_entries),
                       reference_dag, reference_dag))
        self.new, self.old = self.sides[0][0], self.sides[1][0]
        self.vsid = self._both(lambda m, impl, _: m.segmap.create(0, 0, 0))
        self.refs = []
        self.check()

    def _both(self, step):
        """Run ``step(machine, dag impl, merge impl)`` on each side; the
        two outcomes must be equal."""
        new, old = (step(*side) for side in self.sides)
        assert new == old
        return new

    def add_ref(self, words):
        """Build a value segment on both sides and return its root as a
        tagged word (the map entry keeps it alive)."""
        def step(machine, impl, _):
            root, height = impl.build_segment(machine.mem, words)
            machine.segmap.create(root, height, len(words))
            return root
        root = self._both(step)
        assert is_ref(root)
        self.refs.append(root)
        self.check()
        return root

    @staticmethod
    def _updated(machine, impl, root, height, length, updates):
        """``Machine.write_words`` minus the map update."""
        mem = machine.mem
        dag.retain_entry(mem, root)
        needed = impl.height_for(mem, max(1, length))
        if needed > height:
            root = impl.grow_entry(mem, root, height, needed)
            height = needed
        return impl.write_words_bulk(mem, root, height, updates), height

    def write(self, updates):
        def step(machine, impl, _):
            entry = machine.segmap.entry(self.vsid)
            length = max(entry.length, max(updates) + 1)
            root, height = self._updated(machine, impl, entry.root,
                                         entry.height, length, updates)
            machine.segmap.set_root(self.vsid, root, height, length)
            return root, height
        self._both(step)
        self.check()

    def merge(self, mine_updates, theirs_updates):
        """Fork the segment twice, merge-update the forks and install
        the result — or agree that the merge conflicts."""
        def step(machine, impl, merge_impl):
            mem = machine.mem
            entry = machine.segmap.entry(self.vsid)
            base = (entry.root, entry.height)
            forks, length = [], entry.length
            for updates in (mine_updates, theirs_updates):
                fork_length = max(entry.length, max(updates) + 1)
                forks.append(self._updated(machine, impl, entry.root,
                                           entry.height, fork_length,
                                           updates))
                length = max(length, fork_length)
            stats = MergeStats()
            try:
                root, height = merge_impl.merge_roots(
                    mem, base, forks[0], forks[1], stats)
            except MergeConflictError as exc:
                return "conflict", str(exc), dataclasses.asdict(stats)
            finally:
                for fork_root, _ in forks:
                    dag.release_entry(mem, fork_root)
            machine.segmap.set_root(self.vsid, root, height, length)
            return root, height, dataclasses.asdict(stats)
        outcome = self._both(step)
        self.check()
        return outcome

    def words(self):
        """The non-zero content, by ``iter_nonzero``."""
        def step(machine, impl, _):
            entry = machine.segmap.entry(self.vsid)
            return dict(impl.iter_nonzero(machine.mem, entry.root,
                                          entry.height))
        return self._both(step)

    def read(self, rng, offsets):
        """Point reads, range reads and bounded scans around ``offsets``
        through the three read entry points."""
        offsets = list(offsets)

        def step(machine, impl, _):
            mem = machine.mem
            entry = machine.segmap.entry(self.vsid)
            cap = impl.entry_capacity(mem, entry.height)
            seen = []
            for offset in offsets:
                offset %= cap
                count = min(rng_count, cap - offset)
                seen.append(impl.read_word(mem, entry.root, entry.height,
                                           offset))
                seen.append(impl.gather_words(mem, entry.root, entry.height,
                                              offset, count))
                seen.append(list(impl.iter_nonzero(
                    mem, entry.root, entry.height, start=offset,
                    stop=offset + stop_delta)))
            return seen
        rng_count = rng.randrange(1, 40)
        stop_delta = rng.choice((-3, 0, 1, 9, 1 << 70))
        self._both(step)
        self.check()

    def check(self):
        assert observables(self.new) == observables(self.old)
        for machine in (self.new, self.old):
            audit_machine(machine, strict=True).raise_if_failed()
        assert observables(self.new) == observables(self.old)

    def release(self):
        """Dropping every segment returns both machines to baseline."""
        for machine, _, _ in self.sides:
            for vsid in machine.segmap.live_vsids():
                machine.segmap.drop(vsid)
            machine.drain()
            assert machine.footprint_lines() == 0
        self.check()


# ----------------------------------------------------------------------
# seeded runs


class Workload:
    """Seeded updates aimed at the rebuild's corners: offsets that share
    a long compacted path and part from it at a random depth, the count
    word and its packed neighbours at the bottom, words that pack and
    words that do not, tagged references, and deletes."""

    def __init__(self, seed, twins):
        self.rng = random.Random(seed)
        self.twins = twins
        self.anchors = [WIDE + self.rng.getrandbits(124) for _ in range(3)]
        self.written = []

    def offset(self):
        rng = self.rng
        kind = rng.randrange(6)
        if kind == 0:
            return rng.randrange(20)                  # count word region
        if kind == 1 and self.written:
            return rng.choice(self.written)           # overwrite
        anchor = rng.choice(self.anchors)
        if kind == 2:
            return anchor + rng.randrange(16)         # same slot / leaf
        if kind == 3:                                 # part at any depth
            return anchor ^ (1 << rng.randrange(anchor.bit_length()))
        if kind == 4:
            return rng.getrandbits(rng.randrange(1, 130))
        return anchor + 4 * rng.randrange(1 << 12)    # neighbouring slots

    def value(self):
        rng = self.rng
        kind = rng.randrange(6)
        if kind == 0:
            return rng.randrange(1, 200)              # packs at width 1
        if kind == 1:
            return rng.getrandbits(32) | 1            # packs at width 4
        if kind == 2:
            return rng.getrandbits(64) | (1 << 63)    # packs only alone
        if kind == 3 and self.twins.refs:
            return rng.choice(self.twins.refs)        # tagged reference
        if kind == 4:
            return 0                                  # delete
        return rng.randrange(1, 1 << 16)

    def updates(self, most=6):
        count = self.rng.choice((1, 1, 1, 2, 4, 5, most))
        updates = {self.offset(): self.value() for _ in range(count)}
        if self.rng.randrange(4) == 0 and self.written:
            # collapse a branch: zero a few words written earlier
            for offset in self.rng.sample(self.written,
                                          min(3, len(self.written))):
                updates[offset] = 0
        self.written.extend(updates)
        return updates


def add_refs(twins, rng):
    """Value roots with and without a compacted path of their own."""
    twins.add_ref([rng.getrandbits(64) | (1 << 63) for _ in range(2)])
    twins.add_ref([rng.getrandbits(64) | (1 << 63) for _ in range(11)])
    twins.add_ref([0] * 300 + [rng.getrandbits(64) | (1 << 63)])


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("line_bytes", LINE_SIZES)
def test_seeded_writes_match_oracle(line_bytes, profile):
    twins = Twins(line_bytes, profile)
    work = Workload(line_bytes * 7 + len(profile), twins)
    add_refs(twins, work.rng)
    for round_ in range(70):
        twins.write(work.updates())
        if round_ % 5 == 0:
            twins.read(work.rng, [work.offset() for _ in range(4)])
    # delete everything that is left, a few words at a time
    left = sorted(twins.words())
    work.rng.shuffle(left)
    for start in range(0, len(left), 5):
        twins.write({offset: 0 for offset in left[start:start + 5]})
    assert twins.words() == {}
    assert twins.new.segmap.entry(twins.vsid).root == 0
    twins.release()


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("line_bytes", LINE_SIZES)
def test_seeded_merges_match_oracle(line_bytes, profile):
    twins = Twins(line_bytes, profile)
    work = Workload(line_bytes * 11 + len(profile), twins)
    add_refs(twins, work.rng)
    for _ in range(10):
        twins.write(work.updates())
    merged = 0
    for round_ in range(40):
        outcome = twins.merge(work.updates(4), work.updates(4))
        merged += outcome[0] != "conflict"
        if round_ % 8 == 0:
            # both forks bump the count word: the packed spine at the
            # bottom is descended and re-emitted by all three versions
            twins.merge({0: 1 + round_, work.offset(): 7},
                        {0: 2 + round_, work.offset(): 9})
    assert merged > 20
    twins.release()


@pytest.mark.parametrize("profile", PROFILES)
def test_an_rc_cache_smaller_than_the_fanout_sees_the_same_touches(profile):
    """A built interior keeps its builder's child references, where the
    oracle takes new ones and drops the old: both touch each child's RC
    entry twice, in the same order. With 2 RC entries under a fan-out
    of 4 every touch decides a fill or a spill, so a touch dropped or
    moved changes the counters, not only the LRU order."""
    twins = Twins(16, profile, rc_entries=2)
    assert twins.new.mem.fanout > 2
    work = Workload(5 + len(profile), twins)
    add_refs(twins, work.rng)
    for _ in range(30):
        twins.write(work.updates())
    for _ in range(8):
        twins.merge(work.updates(4), work.updates(4))
    rc = twins.new.mem.store._rc_cache
    assert rc.fills > 0 and rc.spills > 0
    twins.release()


def test_merge_stats_count_elided_levels():
    """A run crossed in one step still reports one descended level and
    ``fanout - 1`` skipped siblings per elided level."""
    twins = Twins()
    deep = WIDE + 12345
    twins.write({0: 5, deep: 1 << 63, deep + 1: 1 << 62})
    _, height, stats = twins.merge({0: 6, deep: 3 << 62},
                                   {0: 7, deep + 1: 3 << 61})
    assert stats["levels_descended"] >= height
    assert stats["subtrees_skipped"] >= (twins.new.mem.fanout - 1) * height
    assert twins.words() == {0: 8, deep: 3 << 62, deep + 1: 3 << 61}
    twins.release()


def test_out_of_range_writes_are_refused(mem):
    with pytest.raises(SegmentRangeError, match="write at 4 beyond capacity 2"):
        dag.write_words_bulk(mem, 0, 0, {1: 7, 4: 7})
    with pytest.raises(SegmentRangeError, match="write at -1 "):
        dag.write_words_bulk(mem, 0, 3, {5: 7, -1: 7})
    assert dag.write_words_bulk(mem, 0, 3, {}) == 0


@pytest.mark.parametrize("line_bytes", LINE_SIZES)
def test_parting_from_a_compacted_path_at_every_depth(line_bytes):
    """One leaf deep in a sparse segment is a single line under a long
    path. Writing beside it splits that path at the level where the two
    offsets part; deleting the newcomer collapses the branch back."""
    twins = Twins(line_bytes)
    mem = twins.new.mem
    anchor = WIDE + (0x5A5A5A5A5A5A5A5A << 40) + 1232
    lone_words = {anchor: 1 << 63, anchor + 1: 1 << 62}  # does not pack
    twins.write(lone_words)
    lone = twins.new.segmap.entry(twins.vsid)
    lone_root = lone.root
    assert is_ref(lone_root)
    assert len(ref_path(lone.root)) == lone.height
    for level in range(lone.height):
        other = anchor ^ dag.entry_capacity(mem, level)
        twins.write({other: 3 << 62})
        assert twins.words() == {**lone_words, other: 3 << 62}
        twins.write({other: 0})
        entry = twins.new.segmap.entry(twins.vsid)
        assert entry.root == lone_root
    twins.release()


@pytest.mark.parametrize("line_bytes", LINE_SIZES)
def test_inline_to_line_and_back(line_bytes):
    twins = Twins(line_bytes)
    twins.write({0: 1, 1: 2, 2: 3})
    assert is_pack(twins.new.segmap.entry(twins.vsid).root)
    twins.write({WIDE: 9})                  # packed spine under a huge root
    twins.write({1: 1 << 40})               # no longer packs
    assert is_ref(twins.new.segmap.entry(twins.vsid).root)
    twins.write({1: 2, WIDE: 0})            # packs again
    root = twins.new.segmap.entry(twins.vsid).root
    assert is_pack(root) and pack_values(root) == (1, 2, 3)
    twins.write({7: 200, 2: 0})
    twins.write({0: 0, 1: 0, 7: 0})
    assert twins.new.segmap.entry(twins.vsid).root == 0
    twins.release()


def test_compaction_switches_match_oracle():
    """Without path or data compaction every level materializes; the
    run steps must fall back to one interior per level."""
    for switches in ({"path_compaction": False}, {"data_compaction": False},
                     {"path_compaction": False, "data_compaction": False}):
        twins = Twins()
        for machine, _, _ in twins.sides:
            machine.mem.config = dataclasses.replace(machine.mem.config,
                                                     **switches)
        work = Workload(99, twins)
        work.anchors = [1 << 20, (1 << 20) + 77]
        for _ in range(25):
            updates = {offset % (1 << 22): value
                       for offset, value in work.updates(4).items()}
            twins.write(updates)
        twins.merge({5: 1, 1 << 21: 4}, {5: 2, 1 << 19: 6})
        twins.release()


@pytest.mark.parametrize("line_bytes", LINE_SIZES)
def test_build_and_grow_match_oracle(line_bytes):
    rng = random.Random(line_bytes)
    twins = Twins(line_bytes)
    shapes = ([], [0] * 40, [1, 2, 3], [0] * 37 + [1 << 50],
              [rng.getrandbits(64) for _ in range(97)],
              [rng.choice((0, 0, 0, rng.getrandbits(20))) for _ in range(260)],
              [7] * 64, list(range(1, 130)))
    for words in shapes:
        for extra in (0, 1, 5):
            def step(machine, impl, _):
                mem = machine.mem
                level = impl.height_for(mem, max(1, len(words))) + extra
                built = impl.build_entry(mem, words, level)
                grown = impl.grow_entry(mem, built, level, level + 3)
                machine.segmap.create(grown, level + 3, len(words))
                return grown
            twins._both(step)
            twins.check()
    twins.release()


# ----------------------------------------------------------------------
# hypothesis

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

offsets = st.one_of(
    st.integers(0, 40),
    st.integers(0, 6).map(lambda k: WIDE + 16 + 4 * 0xABCDEF + k),
    st.integers(0, 128).map(lambda bit: (WIDE + 16 + 4 * 0xABCDEF) ^ (1 << bit)),
    st.integers(0, (1 << 130) - 1),
)
values = st.one_of(
    st.just(0), st.integers(1, 255), st.integers(1, (1 << 32) - 1),
    st.integers(1 << 40, (1 << 64) - 1),
    st.integers(0, 2).map(lambda i: ("ref", i)),
)
batches = st.lists(st.dictionaries(offsets, values, min_size=1, max_size=6),
                   min_size=1, max_size=12)


def _resolved(twins, updates):
    return {offset: twins.refs[value[1]] if isinstance(value, tuple) else value
            for offset, value in updates.items()}


@SETTINGS
@given(ops=batches, line_bytes=st.sampled_from(LINE_SIZES),
       profile=st.sampled_from(PROFILES))
def test_random_writes_match_oracle(ops, line_bytes, profile):
    twins = Twins(line_bytes, profile)
    add_refs(twins, random.Random(1))
    model = {}
    for updates in ops:
        updates = _resolved(twins, updates)
        twins.write(updates)
        model.update(updates)
    assert twins.words() == {k: v for k, v in model.items() if v != 0}
    twins.release()


@SETTINGS
@given(setup=batches, mine=st.dictionaries(offsets, values, min_size=1,
                                           max_size=4),
       theirs=st.dictionaries(offsets, values, min_size=1, max_size=4),
       line_bytes=st.sampled_from(LINE_SIZES),
       profile=st.sampled_from(PROFILES))
def test_random_merges_match_oracle(setup, mine, theirs, line_bytes, profile):
    twins = Twins(line_bytes, profile)
    add_refs(twins, random.Random(2))
    for updates in setup[:4]:
        twins.write(_resolved(twins, updates))
    twins.merge(_resolved(twins, mine), _resolved(twins, theirs))
    twins.merge(_resolved(twins, theirs), _resolved(twins, mine))
    twins.release()


# ----------------------------------------------------------------------
# host cost: a guard that does not read a clock

#: Python calls (cProfile, builtins included) per single-key put into a
#: 1 000-key map on a held, memo-on store (as a shard router has it),
#: CPython 3.11: 6 586 with the level-at-a-time rebuild, 3 204 with the
#: single descent, 2 040 on the flat store with a line memo probed
#: before every lookup, 1 823 without it, 1 309.6 by the time a
#: reference word was an object, 1 308.2 once it is an int. The ceiling
#: sits ~10 % above the last, so a probe put back in front of each
#: lookup fails it.
PUT_CALL_CEILING = 1435


def test_put_call_budget():
    machine = Machine()
    machine.mem.memo.enable()
    machine.mem.store.hold_reclaim()
    hmap = HMap.create(machine)
    rng = random.Random(2012)
    items = [(b"key:%06d:%08x" % (i, rng.getrandbits(32)), rng.randbytes(64))
             for i in range(1200)]
    for key, value in items[:1000]:
        hmap.put(key, value)
    profile = cProfile.Profile()
    profile.enable()
    for key, value in items[1000:]:
        hmap.put(key, value)
    profile.disable()
    calls = sum(entry.callcount for entry in profile.getstats()) / 200
    assert calls <= PUT_CALL_CEILING, calls
    assert len(hmap) == 1200


#: Python calls (cProfile, builtins included) per get of a present key
#: from the same 1 000-key map, memo on, CPython 3.11: 123.0 crossing a
#: compacted path one level at a time (a ``divmod`` per elided level)
#: and building the key's segment for its reference; 86.7 crossing each
#: path in one step and addressing the slot from the memo's root; 91.7
#: once a get also records its answer in the memo's read table (these
#: are first gets: a repeated one is answered from the table in 5.0,
#: ``tests/test_hmap_read_table.py``); 90.7 once a reference word is an
#: int. Putting back either the per-digit walk or the key's reference
#: pair fails the ceiling.
GET_CALL_CEILING = 93


def test_get_call_budget():
    machine = Machine()
    machine.mem.memo.enable()
    machine.mem.store.hold_reclaim()
    hmap = HMap.create(machine)
    rng = random.Random(2012)
    items = [(b"key:%06d:%08x" % (i, rng.getrandbits(32)), rng.randbytes(64))
             for i in range(1000)]
    for key, value in items:
        hmap.put(key, value)
    profile = cProfile.Profile()
    profile.enable()
    for key, value in items[:200]:
        assert hmap.get(key) == value
    profile.disable()
    calls = sum(entry.callcount for entry in profile.getstats()) / 200
    assert calls <= GET_CALL_CEILING, calls
