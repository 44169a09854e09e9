"""The read path, pinned by count.

A slot pair of a map is two words of one leaf line, so reading it is one
root-to-leaf descent (the path an iterator register keeps, section 3.3):
``dag.read_word(..., count=k)`` returns what ``k`` single reads return,
an ``HMap.get`` enters ``dag.read_word`` once and makes a literal number
of line reads per line size, and the modeled cost of a cold get is the
one recorded from the commit before the descents were shared.
"""

import random

import pytest

from repro import Machine, MachineConfig, MemoryConfig
from repro.errors import BadVsidError, SegmentRangeError
from repro.memory.line import is_pack, is_ref, ref, ref_path, ref_plid
from repro.memory.stats import DramStats
from repro.memory.system import MemorySystem
from repro.params import CacheGeometry
from repro.segments import dag
from repro.segments.hicamp_map import HicampSegmentMap
from repro.structures.hmap import HMap
from tests import reference_dag
from tests.conftest import small_config


def memory_system(line_bytes: int, compaction: bool = True,
                  plid_bytes: int = 4) -> MemorySystem:
    """A bare memory system: 24-byte lines (3-word leaves, where a slot
    pair can straddle two of them) have no :class:`Machine`."""
    return MemorySystem(MachineConfig(
        memory=MemoryConfig(line_bytes=line_bytes, num_buckets=1 << 10,
                            data_ways=12, overflow_lines=1 << 12,
                            plid_bytes=plid_bytes),
        cache=CacheGeometry(size_bytes=line_bytes * 8 * 64, ways=8,
                            line_bytes=line_bytes),
        path_compaction=compaction, data_compaction=compaction))


class ReadCounter:
    """Counts the two entry points the ledger counts, the way it wraps
    them: ``MemorySystem.read`` on the class, ``read_word`` on the
    module."""

    def __init__(self, monkeypatch) -> None:
        self.line_reads = 0
        self.descents = 0
        read, read_word = MemorySystem.read, dag.read_word

        def counted_read(mem, plid):
            self.line_reads += 1
            return read(mem, plid)

        def counted_read_word(*args, **kwargs):
            self.descents += 1
            return read_word(*args, **kwargs)

        monkeypatch.setattr(MemorySystem, "read", counted_read)
        monkeypatch.setattr(dag, "read_word", counted_read_word)

    def reset(self) -> None:
        self.line_reads = self.descents = 0


def segments(mem: MemorySystem, rng: random.Random):
    """``(root, height)`` of segments that exercise every entry kind."""
    dense = [rng.randrange(1, 1 << 40) for _ in range(90)]
    yield dag.build_segment(mem, dense)
    # packed leaves and packed interiors (data compaction)
    yield dag.build_segment(mem, [rng.randrange(4) for _ in range(70)])
    yield dag.build_segment(mem, [3, 1, 2])
    # zero subtrees between islands of content
    holes = [0] * 200
    for start in (5, 64, 190):
        holes[start:start + 4] = [rng.randrange(1, 1 << 50) for _ in range(4)]
    yield dag.build_segment(mem, holes)
    # compacted paths: a few words far apart in a tall, sparse segment
    height = dag.height_for(mem, 1 << 40)
    sparse = dag.write_words_bulk(mem, 0, height, {
        16 + 4 * (1 << 30) + k: rng.randrange(1, 1 << 60) for k in range(4)})
    sparse = dag.write_words_bulk(mem, sparse, height, {
        (1 << 39) + 2: 9, (1 << 39) + 3: ref(0, (1,)), 7: 1})
    yield sparse, height
    yield 0, 3


def _kind(word) -> str:
    return "ref" if is_ref(word) else "pack" if is_pack(word) else "data"


@pytest.mark.parametrize("compaction", [True, False])
@pytest.mark.parametrize("line_bytes", [16, 24, 32, 64])
def test_read_word_count_equals_single_reads(line_bytes, compaction):
    mem = memory_system(line_bytes, compaction)
    rng = random.Random(line_bytes)
    kinds = set()
    for root, height in segments(mem, rng):
        capacity = dag.entry_capacity(mem, height)
        interesting = [0, 5, 7, 14, 16, 62, 64, 188, 190,
                       16 + 4 * (1 << 30), (1 << 39) + 1, capacity - 9]
        for _ in range(120):
            index = max(0, min(rng.choice(interesting) + rng.randrange(8),
                               capacity - 1))
            count = rng.randrange(1, 7)
            if index + count > capacity:
                with pytest.raises(SegmentRangeError):
                    dag.read_word(mem, root, height, index, count)
                continue
            singles = [dag.read_word(mem, root, height, index + k)
                       for k in range(count)]
            found = dag.read_word(mem, root, height, index, count)
            assert found == (singles[0] if count == 1 else singles)
            kinds.update(_kind(word) for word in singles)
        kinds.add(_kind(root))
    # the segments held what they were built to hold
    assert {"data", "ref"} <= kinds
    assert ("pack" in kinds) == compaction


@pytest.mark.parametrize("compaction", [True, False])
@pytest.mark.parametrize("line_bytes", [16, 24, 32, 64])
def test_gather_reads_the_lines_the_oracle_reads(line_bytes, compaction,
                                                 monkeypatch):
    """``gather_words`` returns the oracle's words after reading the same
    PLIDs in the same order, over compacted paths, packs and zero
    subtrees (the leaf copy is a slice; only branch points recurse)."""
    mem = memory_system(line_bytes, compaction)
    rng = random.Random(line_bytes)
    built = list(segments(mem, rng))
    plids = []
    read = MemorySystem.read

    def recorded(mem, plid):
        plids.append(plid)
        return read(mem, plid)

    monkeypatch.setattr(MemorySystem, "read", recorded)
    ranges = 0
    for root, height in built:
        capacity = dag.entry_capacity(mem, height)
        starts = [0, 1, 5, 14, 62, 63, 186, 16 + 4 * (1 << 30) - 3,
                  (1 << 39) - 2]
        for start in starts:
            for count in (1, 2, 5, 17, 90, 250):
                if start + count > capacity:
                    continue
                sequences = []
                for impl in (dag, reference_dag):
                    del plids[:]
                    words = impl.gather_words(mem, root, height, start, count)
                    sequences.append((words, list(plids)))
                assert sequences[0] == sequences[1]
                ranges += bool(sequences[0][1])
    assert ranges > 50  # most ranges read lines


# ----------------------------------------------------------------------
# compacted paths crossed in one step

#: ``(line_bytes, plid_bytes)``: fan-outs 2, 3, 4, 6, 8 and 16, and one
#: (160-byte lines, fan-out 40) past the 36 digits ``int()`` parses
GEOMETRIES = [(line, plid) for line in (16, 24, 32, 64) for plid in (4, 8)] \
    + [(160, 4)]


def test_path_value_reads_the_digits_as_one_number():
    rng = random.Random(4)
    for fan in range(2, 41):
        for length in (1, 2, 5, 13):
            path = tuple(rng.randrange(fan) for _ in range(length))
            value = 0
            for digit in path:
                value = value * fan + digit
            assert dag._path_value(bytes(path), fan) == value


def compacted_paths(mem, entry, level, base=0):
    """``(level, base, path)`` of every path-carrying reference under
    ``entry`` (a subtree at ``level`` whose first word is ``base``),
    found without a charged read."""
    if not is_ref(entry):
        return
    if ref_path(entry):
        yield level, base, ref_path(entry)
        for digit in ref_path(entry):
            level -= 1
            base += digit * mem.spans[level]
    if level:
        span = mem.spans[level - 1]
        for j, child in enumerate(mem.store.peek(ref_plid(entry))):
            yield from compacted_paths(mem, child, level - 1, base + j * span)


def path_probes(mem, level, base, path):
    """Indexes that leave ``path`` (a reference at ``level`` whose
    subtree starts at ``base``) at its first, a middle and its last
    digit, the two ends of the line it leads to, and the words just
    outside those ends."""
    fan, inner = mem.fanout, level - len(path)
    span = mem.spans[inner]
    first = base + dag._path_value(path, fan) * span
    probes = {first, first + span - 1, first - 1, first + span}
    for at in {0, len(path) // 2, len(path) - 1}:
        for step in (1, fan - 1):
            digits = list(path)
            digits[at] = (digits[at] + step) % fan
            probes.add(base + dag._path_value(bytes(digits), fan) * span)
    return probes


def tall_sparse_segments(mem, rng):
    """``(root, height)`` of tall segments whose few words sit far apart,
    so nearly every level is elided into some compacted path."""
    height = dag.height_for(mem, 1 << 44)
    cap = dag.entry_capacity(mem, height)
    wide = [(1 << 40) + k for k in range(mem.words_per_line)]
    # one leaf line: the root itself is the only path
    yield dag.write_words_bulk(mem, 0, height, {
        cap // 3 + k: word for k, word in enumerate(wide)}), height
    # leaf lines, packed words and a reference word, scattered
    updates = {}
    for _ in range(6):
        start = rng.randrange(cap - 8)
        for k in range(rng.choice((1, 2, mem.words_per_line))):
            updates[start + k] = rng.randrange(1, 1 << 62)
    updates[rng.randrange(cap)] = ref(0, (1,))
    updates[cap - 1] = 5
    yield dag.write_words_bulk(mem, 0, height, updates), height


@pytest.mark.parametrize("line_bytes,plid_bytes", GEOMETRIES)
def test_walkers_cross_paths_as_the_oracle_does(line_bytes, plid_bytes,
                                                monkeypatch):
    """``read_word`` (one word and two), ``gather_words`` and
    ``iter_nonzero`` return the level-at-a-time oracle's words after
    passing the same PLIDs to ``MemorySystem.read`` in the same order,
    at every way of leaving or entering a compacted path."""
    mem = memory_system(line_bytes, plid_bytes=plid_bytes)
    built = list(tall_sparse_segments(mem, random.Random(line_bytes)))
    plids = []
    read = MemorySystem.read

    def recorded(mem, plid):
        plids.append(plid)
        return read(mem, plid)

    def run(fn, *args):
        del plids[:]
        return fn(*args), list(plids)

    monkeypatch.setattr(MemorySystem, "read", recorded)
    paths = probes = 0
    for root, height in built:
        cap = dag.entry_capacity(mem, height)
        found = list(compacted_paths(mem, root, height))
        assert any(len(path) > 2 for _, _, path in found)
        paths += len(found)
        indexes = set()
        for where in found:
            indexes |= path_probes(mem, *where)
        for index in sorted(i for i in indexes if 0 <= i < cap):
            probes += 1
            assert run(dag.read_word, mem, root, height, index) \
                == run(reference_dag.read_word, mem, root, height, index)
            if index + 1 < cap:
                pair, pair_reads = run(dag.read_word, mem, root, height,
                                       index, 2)
                oracle = run(reference_dag.gather_words, mem, root, height,
                             index, 2)
                if index // mem.spans[0] == (index + 1) // mem.spans[0]:
                    # one leaf: the one descent a single read makes
                    oracle = (oracle[0], run(reference_dag.read_word, mem,
                                             root, height, index)[1])
                assert (pair, pair_reads) == oracle
            lo, hi = max(0, index - 2), min(cap, index + 3)
            assert run(dag.gather_words, mem, root, height, lo, hi - lo) \
                == run(reference_dag.gather_words, mem, root, height,
                       lo, hi - lo)
            window = (max(0, index - line_bytes), min(cap, index + line_bytes))
            assert run(lambda: list(dag.iter_nonzero(mem, root, height,
                                                     *window))) \
                == run(lambda: list(reference_dag.iter_nonzero(
                    mem, root, height, *window)))
        assert run(lambda: list(dag.iter_nonzero(mem, root, height))) \
            == run(lambda: list(reference_dag.iter_nonzero(mem, root,
                                                           height)))
    assert paths >= 4 and probes > 20


#: too wide to pack inline: every level of their segment is a line
WIDE_WORDS = [(1 << 40) + i for i in range(200)]


@pytest.mark.parametrize("line_bytes", [16, 32, 64])
def test_words_of_one_leaf_cost_one_descent(line_bytes, monkeypatch):
    mem = memory_system(line_bytes)
    root, height = dag.build_segment(mem, WIDE_WORDS)
    counter = ReadCounter(monkeypatch)
    dag.read_word(mem, root, height, 100)
    single = counter.line_reads
    counter.reset()
    assert dag.read_word(mem, root, height, 100, 2) == WIDE_WORDS[100:102]
    assert counter.line_reads == single == height + 1


def test_straddling_words_fall_back_to_gather(monkeypatch):
    mem = memory_system(24)  # 3-word leaves: words 2 and 3 part company
    root, height = dag.build_segment(mem, WIDE_WORDS)
    counter = ReadCounter(monkeypatch)
    assert dag.read_word(mem, root, height, 2, 2) == WIDE_WORDS[2:4]
    # the shared path once, then the two leaves
    assert counter.line_reads == height + 2


@pytest.mark.parametrize("length", [3, 4, 9])
def test_snapshot_reads_zero_past_its_length(machine, length):
    vsid = machine.create_segment(list(range(1, length + 1)))
    with machine.snapshot(vsid) as snap:
        for offset in range(length + 3):
            pair = snap.read(offset, 2)
            assert pair == [snap.read(offset), snap.read(offset + 1)]
        assert snap.read(length - 1, 2) == [length, 0]
        assert snap.read(length + 50, 3) == [0, 0, 0]


# ----------------------------------------------------------------------
# HMap.get

#: ``MemorySystem.read`` calls of one hit on ``populated`` below, by line
#: size: one slot descent plus the value's words (19 / 11 / 13 when the
#: slot's two words were two descents)
LINE_READS_PER_GET = {16: 11, 32: 6, 64: 7}

#: DRAM accesses of the same get on a drained (cold) machine, recorded
#: from the commit before the descents were shared: the second descent
#: only ever re-read lines the first had just made most recently used
COLD_GET_DRAM = {
    16: DramStats(reads=11, refcount=1),
    32: DramStats(reads=6, refcount=1),
    64: DramStats(reads=7, refcount=1),
}


def populated(line_bytes: int):
    machine = Machine(small_config(line_bytes))
    kvp = HMap.create(machine)
    for i in range(40):
        kvp.put(b"key-%03d" % i, b"value-%03d-" % i * 3)
    kvp.delete(b"key-007")
    return machine, kvp


@pytest.mark.parametrize("line_bytes", [16, 32, 64])
def test_get_is_one_slot_descent(line_bytes, monkeypatch):
    machine, kvp = populated(line_bytes)
    counter = ReadCounter(monkeypatch)
    machine.drain()
    before = machine.dram.snapshot()
    assert kvp.get(b"key-011") == b"value-011-" * 3
    assert machine.dram.delta(before) == COLD_GET_DRAM[line_bytes]
    assert counter.descents == 1
    assert counter.line_reads == LINE_READS_PER_GET[line_bytes]
    # warm: the same reads, none of them from DRAM
    counter.reset()
    before = machine.dram.snapshot()
    assert kvp.get(b"key-011") == b"value-011-" * 3
    assert (counter.descents, counter.line_reads) \
        == (1, LINE_READS_PER_GET[line_bytes])
    assert machine.dram.delta(before).reads == 0


@pytest.mark.parametrize("line_bytes", [16, 32, 64])
def test_get_of_nothing_is_none(line_bytes, monkeypatch):
    machine, kvp = populated(line_bytes)
    counter = ReadCounter(monkeypatch)
    assert kvp.get(b"key-007") is None          # deleted
    assert kvp.get(b"absent-key-0123456789") is None
    assert counter.descents == 2
    assert not kvp.contains(b"key-007")
    # a slot beyond the segment's length: nothing is read at all
    empty = HMap.create(machine)
    assert machine.segment_length(empty.vsid) == 16
    counter.reset()
    assert empty.get(b"key-011") is None
    assert counter.line_reads == 0
    assert dict(kvp.items())[b"key-011"] == b"value-011-" * 3


# ----------------------------------------------------------------------
# HicampSegmentMap.entry: the same two-word slot

def test_segment_map_entry_is_one_descent(machine, monkeypatch):
    segmap = HicampSegmentMap(machine.mem)
    vsids = []
    for i in range(12):
        root, height = dag.build_segment(machine.mem,
                                         list(range(i + 1, i + 30)))
        vsids.append(segmap.create(root, height, 29))
    segmap.drop(vsids[4])
    counter = ReadCounter(monkeypatch)
    view = segmap.entry(vsids[7])
    assert counter.descents == 1
    assert (view.height, view.length) == (dag.height_for(machine.mem, 29), 29)
    assert segmap.read_segment(vsids[7]) == list(range(8, 37))
    with pytest.raises(BadVsidError):
        segmap.entry(vsids[4])      # dropped: slot zeroed
    with pytest.raises(BadVsidError):
        segmap.entry(vsids[-1] + 1)  # allocated capacity, never written
    with pytest.raises(BadVsidError):
        segmap.entry(1 << 40)       # beyond the map segment's capacity
