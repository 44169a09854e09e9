"""Property-based tests (hypothesis) on the core invariants:

* canonical form — any build path for the same content yields the same root;
* read-your-writes over arbitrary update sequences;
* full reclamation — releasing all roots returns the store to empty;
* merge-update — disjoint merges compose, counter merges sum;
* structure laws — HMap behaves like a dict, HQueue like a deque;
* word codecs — an image and the replication wire carry every word,
  packs included, as the int it is, so content and PLIDs survive both.
"""

import json
from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Machine, MachineConfig, MemoryConfig
from repro.core.persistence import machine_image, restore_machine
from repro.memory.line import encode_line, is_pack
from repro.params import CacheGeometry
from repro.replication import wire
from repro.segments import dag
from repro.segments.merge import merge_roots
from repro.structures import HMap, HQueue

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def fresh_machine(line_bytes=16):
    return Machine(MachineConfig(
        memory=MemoryConfig(line_bytes=line_bytes, num_buckets=1 << 12,
                            data_ways=12, overflow_lines=1 << 16),
        cache=CacheGeometry(size_bytes=64 * 1024, ways=8, line_bytes=line_bytes),
    ))


# Words biased toward interesting values: zeros, small ints (inline),
# 32-bit edge, large values.
word_values = st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
)

word_lists = st.lists(word_values, min_size=0, max_size=80)


class TestCanonicalForm:
    @SETTINGS
    @given(words=word_lists, line_bytes=st.sampled_from([16, 32, 64]))
    def test_bulk_equals_incremental(self, words, line_bytes):
        machine = fresh_machine(line_bytes)
        bulk = machine.create_segment(words)
        incremental = machine.create_segment([0] * len(words))
        for i, w in enumerate(words):
            if w:
                machine.write_word(incremental, i, w)
        assert machine.segments_equal(bulk, incremental)

    @SETTINGS
    @given(words=word_lists)
    def test_roundtrip(self, words):
        machine = fresh_machine()
        vsid = machine.create_segment(words)
        assert machine.read_segment(vsid) == list(words)

    @SETTINGS
    @given(words=word_lists, updates=st.dictionaries(
        st.integers(min_value=0, max_value=100), word_values, max_size=10))
    def test_update_then_rebuild_matches(self, words, updates):
        machine = fresh_machine()
        vsid = machine.create_segment(words)
        machine.write_words(vsid, updates)
        expected = list(words) + [0] * (max(
            [len(words)] + [i + 1 for i in updates]) - len(words))
        for i, w in updates.items():
            expected[i] = w
        rebuilt = machine.create_segment(expected)
        assert machine.segments_equal(vsid, rebuilt)
        assert machine.read_segment(vsid) == expected


class TestReclamation:
    @SETTINGS
    @given(contents=st.lists(word_lists, min_size=1, max_size=6))
    def test_all_memory_reclaimed(self, contents):
        machine = fresh_machine()
        vsids = [machine.create_segment(words) for words in contents]
        for vsid in vsids:
            machine.drop_segment(vsid)
        assert machine.footprint_lines() == 0
        machine.mem.store.check_refcounts()

    @SETTINGS
    @given(words=word_lists,
           updates=st.lists(st.tuples(
               st.integers(min_value=0, max_value=60), word_values),
               max_size=12))
    def test_cow_chain_reclaims(self, words, updates):
        machine = fresh_machine()
        vsid = machine.create_segment(words)
        for offset, value in updates:
            machine.write_word(vsid, offset, value)
        machine.drop_segment(vsid)
        assert machine.footprint_lines() == 0


class TestMergeProperties:
    @SETTINGS
    @given(base=st.lists(st.integers(min_value=0, max_value=1 << 40),
                         min_size=1, max_size=40),
           mine_updates=st.dictionaries(
               st.integers(min_value=0, max_value=39),
               st.integers(min_value=0, max_value=1 << 40), max_size=6),
           theirs_updates=st.dictionaries(
               st.integers(min_value=0, max_value=39),
               st.integers(min_value=0, max_value=1 << 40), max_size=6))
    def test_counter_merge_is_sum_of_diffs(self, base, mine_updates,
                                           theirs_updates):
        machine = fresh_machine()
        mem = machine.mem
        n = len(base)
        mine = list(base)
        for i, v in mine_updates.items():
            if i < n:
                mine[i] = v
        theirs = list(base)
        for i, v in theirs_updates.items():
            if i < n:
                theirs[i] = v
        b, bh = dag.build_segment(mem, base)
        m, mh = dag.build_segment(mem, mine)
        t, th = dag.build_segment(mem, theirs)
        root, h = merge_roots(mem, (b, bh), (m, mh), (t, th))
        got = dag.gather_words(mem, root, h, 0, n)
        # The word-level rule is the spec (section 3.4, including the
        # identical-sub-DAG skip); this property checks the whole-tree
        # merge machinery against it.
        from repro.segments.merge import three_way_merge_word
        expected = [
            three_way_merge_word(base[i], mine[i], theirs[i]) for i in range(n)
        ]
        assert got == expected
        for e in (b, m, t, root):
            dag.release_entry(mem, e)
        assert mem.footprint_lines() == 0


class TestStructureLaws:
    @SETTINGS
    @given(ops=st.lists(st.tuples(
        st.sampled_from(["put", "get", "delete"]),
        st.binary(min_size=1, max_size=12),
        st.binary(max_size=20)), max_size=25))
    def test_hmap_matches_dict(self, ops):
        machine = fresh_machine()
        m = HMap.create(machine)
        model = {}
        for op, key, value in ops:
            if op == "put":
                m.put(key, value)
                model[key] = value
            elif op == "get":
                assert m.get(key) == model.get(key)
            else:
                assert m.delete(key) == (key in model)
                model.pop(key, None)
        assert len(m) == len(model)
        assert dict(m.items()) == model

    @SETTINGS
    @given(ops=st.lists(st.one_of(
        st.tuples(st.just("push"), st.binary(max_size=10)),
        st.tuples(st.just("pop"), st.just(b""))), max_size=30))
    def test_hqueue_matches_deque(self, ops):
        machine = fresh_machine()
        q = HQueue.create(machine)
        model = deque()
        for op, payload in ops:
            if op == "push":
                q.enqueue(payload)
                model.append(payload)
            else:
                expected = model.popleft() if model else None
                assert q.dequeue() == expected


# Small values, so data compaction packs them: roots, interior children
# and (through the map) leaf slot words that are packs.
small_lists = st.lists(st.one_of(st.just(0), st.integers(0, 255),
                                 st.integers(0, (1 << 16) - 1)),
                       min_size=1, max_size=40)


class TestWordCodecs:
    @SETTINGS
    @given(contents=st.lists(small_lists, min_size=1, max_size=4),
           items=st.dictionaries(st.binary(min_size=1, max_size=6),
                                 st.binary(max_size=6), max_size=6))
    def test_image_and_wire_keep_every_word(self, contents, items):
        machine = fresh_machine()
        vsids = [machine.create_segment(words) for words in contents]
        kvp = HMap.create(machine)
        # a 7-byte key no drawn one equals: its slot holds packed roots
        for key, value in [(b"\xff" * 7, b"v")] + list(items.items()):
            kvp.put(key, value)
        vsids.append(kvp.vsid)
        store = machine.mem.store
        image = machine_image(machine)
        # the image through JSON text, and each line and root through
        # its wire frame, into a second image of the same machine
        via_json = restore_machine(json.loads(json.dumps(image)))
        shipped = json.loads(json.dumps(image))
        for plid in store.live_plids():
            line = store.peek(plid)
            got, words = wire.decode_line_payload(
                wire.encode_line_payload(plid, line))
            assert got == plid and encode_line(words) == encode_line(line)
            shipped["lines"][str(plid)] = list(words)
        for vsid in vsids:
            entry = machine.segmap.entry(vsid)
            *_, length, root = wire.decode_advance_payload(
                wire.encode_advance_payload(0, 1, vsid, entry.root,
                                            entry.height, entry.length))
            assert (length, root) == (entry.length, entry.root)
            shipped["segmap"][str(vsid)]["root"] = root
        via_wire = restore_machine(shipped)
        for copy in (via_json, via_wire):
            for plid in store.live_plids():
                assert encode_line(copy.mem.store.peek(plid)) \
                    == encode_line(store.peek(plid))
            for vsid in vsids:
                assert dag.segment_fingerprint(copy, vsid) \
                    == dag.segment_fingerprint(machine, vsid)
        assert any(is_pack(w) for plid in store.live_plids()
                   for w in store.peek(plid))
