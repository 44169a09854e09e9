"""Structural memo: differential correctness, invalidation, bounds.

The memo (:mod:`repro.memory.memo`) may change *how fast* a canonical
structure is found, never *which* structure — every test here compares a
memo-enabled machine against an identically-configured plain one, or
proves the refcount books still balance with memo hits in the mix.
"""

import dataclasses
import random

import pytest

from repro import Machine, MachineConfig, MemoryConfig
from repro.apps.memcached.server import HicampMemcached
from repro.memory.line import (
    is_ref, pack_words, ref, ref_path, ref_plid, unpack_words)
from repro.memory.memo import StructuralMemo
from repro.memory.system import MemorySystem
from repro.obs import adapters
from repro.obs.registry import MetricsRegistry, parse_exposition, sample
from repro.params import CacheGeometry
from repro.segments import dag
from repro.segments.anon import (AnonSegment, pack_meta, read_ref_slot,
                                 unpack_meta)
from repro.segments.merge import merge_roots
from repro.structures.hmap import HMap
from repro.testing.auditors import audit_machine
from tests.conftest import small_config


def _pair():
    """Two identical machines: plain, and memo-enabled."""
    plain = Machine(small_config())
    memoized = Machine(small_config())
    memoized.mem.memo.enable()
    return plain, memoized


PAYLOADS = [b"payload-%03d-" % i * 9 for i in range(12)]
# repeats drive memo hits on the memoized machine
WORKLOAD = PAYLOADS + PAYLOADS[::2] + PAYLOADS + PAYLOADS[3:7]


class TestDifferentialBuild:
    def test_same_roots_same_footprint_as_unmemoized(self):
        plain, memoized = _pair()
        kept = {plain: [], memoized: []}
        for machine in (plain, memoized):
            for payload in WORKLOAD:
                kept[machine].append(
                    AnonSegment.from_bytes(machine.mem, payload))
        # identical canonical identities, in order
        assert [s.key() for s in kept[plain]] \
            == [s.key() for s in kept[memoized]]
        # identical dedup outcome: same unique-line footprint
        assert plain.footprint_lines() == memoized.footprint_lines()
        assert memoized.mem.memo.stats["segment"].hits > 0
        # refcount exactness: releasing every handle reclaims everything
        # on both machines — a memo hit took exactly the references a
        # full rebuild would have netted
        for machine in (plain, memoized):
            for seg in kept[machine]:
                seg.release()
        assert plain.footprint_lines() == 0
        assert memoized.footprint_lines() == 0
        # and deallocation invalidated the now-stale memo entries
        assert memoized.mem.memo.sizes() == {"segment": 0, "digest": 0,
                                             "read": 0}

    def test_contents_roundtrip_through_memo_hits(self):
        _, memoized = _pair()
        pins = [AnonSegment.from_bytes(memoized.mem, p) for p in PAYLOADS]
        for payload in PAYLOADS:  # second pass: memo hits
            seg = AnonSegment.from_bytes(memoized.mem, payload)
            assert seg.to_bytes(len(payload)) == payload
            seg.release()
        assert memoized.mem.memo.stats["segment"].hits >= len(PAYLOADS)
        for seg in pins:
            seg.release()


class TestNoLineTable:
    """Lookup-by-content is the store's own intern operation (§3.1), so
    the memo puts no ``line → PLID`` table in front of it."""

    def test_only_a_whole_repeated_payload_short_circuits(self, monkeypatch):
        # every leaf line repeats inside the payload; the payload itself
        # has never been seen whole
        data = b"0123456789abcdef" * 40
        machines = _pair()
        calls = [0, 0]
        for side, machine in enumerate(machines):
            lookup = machine.mem.lookup

            def counted(*args, side=side, lookup=lookup):
                calls[side] += 1
                return lookup(*args)
            monkeypatch.setattr(machine.mem, "lookup", counted)
        plain, memoized = machines
        segs = [AnonSegment.from_bytes(m.mem, data) for m in machines]
        built = calls[0]
        assert built > 0 and calls == [built, built]
        assert plain.mem.dram.as_dict() == memoized.mem.dram.as_dict()
        # the same bytes again: the segment memo answers without a lookup
        segs += [AnonSegment.from_bytes(m.mem, data) for m in machines]
        assert calls == [2 * built, built]
        assert memoized.mem.memo.stats["segment"].hits == 1
        for seg in segs:
            seg.release()


def _slot(mem, data):
    """Build ``data`` as a map value would be: its handle and meta word."""
    seg = AnonSegment.from_bytes(mem, data)
    return seg, pack_meta(seg.height, seg.length, len(data))


def _walk(mem, entry, meta):
    """The DAG walk: what ``read_ref_slot`` returns when the table
    cannot answer."""
    height, word_len, byte_len = unpack_meta(meta)
    if not word_len:
        return b""
    return unpack_words(dag.gather_words(mem, entry, height, 0, word_len),
                        byte_len)


@pytest.fixture
def line_reads(monkeypatch):
    """``MemorySystem.read`` calls per memory system, counted on the
    class as the ledger counts them."""
    counts = {}
    read = MemorySystem.read

    def counted(mem, plid):
        counts[mem] = counts.get(mem, 0) + 1
        return read(mem, plid)

    monkeypatch.setattr(MemorySystem, "read", counted)
    return counts


def _reads_of(counts, mem, fn, *args):
    before = counts.get(mem, 0)
    result = fn(*args)
    return result, counts.get(mem, 0) - before


class TestPayloadRead:
    """The segment table read backwards: a live root answers with the
    bytes it was built from, and only then."""

    #: 16-byte lines (2-word leaves, fan-out 4); every value is read
    #: both ways
    PAYLOADS = [
        b"abc", b"abc\0",                      # packed roots: walked
        b"abc" * 10, b"abc" * 10 + b"\0",      # one root, two payloads
        b"abc" * 10 + b"\0\0",
        bytes(16) + b"\xff" * 16,              # root with a path ...
        b"\xff" * 16 + bytes(16),              # ... its mirror: only the
        b"\xff" * 16,                          # path differs; this one's PLID
        b"\x01\x02", b"", bytes(24),           # packed, empty, zero root
        b"payload-" * 40,
    ]

    def test_every_read_equals_the_walk(self, line_reads):
        _, memoized = _pair()
        mem = memoized.mem
        slots = [_slot(mem, data) for data in self.PAYLOADS]
        roots = {data: seg.root for data, (seg, _) in zip(self.PAYLOADS,
                                                          slots)}
        # the shapes the payloads were chosen for
        assert roots[b"abc" * 10] == roots[b"abc" * 10 + b"\0"]
        shared = ref_plid(roots[b"\xff" * 16])
        assert roots[bytes(16) + b"\xff" * 16] == ref(shared, (1,))
        assert roots[b"\xff" * 16 + bytes(16)] == ref(shared, (0,))
        tabled = [data for data in self.PAYLOADS
                  if is_ref(roots[data])]
        assert len(tabled) == 7
        hits = mem.memo.stats["segment"].hits
        for data, (seg, meta) in zip(self.PAYLOADS, slots):
            got, reads = _reads_of(line_reads, mem, read_ref_slot, mem,
                                   seg.root, meta)
            assert got == _walk(mem, seg.root, meta) == data
            assert reads == 0 or data not in tabled
        assert mem.memo.stats["segment"].hits == hits + len(tabled)
        for seg, _ in slots:
            seg.release()

    def test_a_reused_plid_is_never_answered_stale(self):
        mem = MemorySystem(MachineConfig(
            memory=MemoryConfig(line_bytes=16, num_buckets=1, data_ways=8,
                                overflow_lines=64),
            cache=CacheGeometry(size_bytes=16 * 64, ways=4, line_bytes=16)))
        mem.memo.enable()
        mem.store.hold_reclaim()
        old, new = b"A" * 16, b"B" * 16
        seg, meta = _slot(mem, old)
        root = seg.root
        assert read_ref_slot(mem, root, meta) == old
        seg.release()
        mem.store.reclaim_quiesce()
        assert mem.memo.stats["segment"].invalidations == 1
        # rebuilt without the table, then through it: the one free way
        # takes the freed root's PLID both times
        for build in ("words", "bytes"):
            if build == "words":
                entry, _ = dag.build_segment(mem, pack_words(new))
            else:
                entry = AnonSegment.from_bytes(mem, new).root
            assert entry == root
            assert read_ref_slot(mem, root, meta) == _walk(mem, root, meta) \
                == new
            dag.release_entry(mem, entry)
            mem.store.reclaim_quiesce()

    def _walks(self, mem, line_reads, seg, meta, data):
        walked, walk_reads = _reads_of(line_reads, mem, _walk, mem,
                                       seg.root, meta)
        got, reads = _reads_of(line_reads, mem, read_ref_slot, mem,
                               seg.root, meta)
        assert got == walked == data
        assert reads == walk_reads > 0

    def test_evicted_entry_walks(self, line_reads):
        _, memoized = _pair()
        mem = memoized.mem
        mem.memo._max_segments = 1
        first, second = b"first-value-" * 5, b"second-value-" * 5
        kept = [_slot(mem, first), _slot(mem, second)]  # evicts ``first``
        assert mem.memo.stats["segment"].evictions == 1
        self._walks(mem, line_reads, *kept[0], first)
        seg, meta = kept[1]
        assert _reads_of(line_reads, mem, read_ref_slot, mem,
                         seg.root, meta) == (second, 0)

    def test_memo_off_walks(self, line_reads):
        plain, _ = _pair()
        data = b"plain-value-" * 5
        self._walks(plain.mem, line_reads, *_slot(plain.mem, data), data)

    def test_verifying_store_walks(self, line_reads):
        config = small_config()
        config = dataclasses.replace(config, memory=dataclasses.replace(
            config.memory, verify_reads=True))
        machine = Machine(config)
        mem = machine.mem
        mem.memo.enable()
        data = b"verified-value-" * 5
        seg, meta = _slot(mem, data)
        assert mem.memo.get_segment(data) == (seg.root, seg.height,
                                              seg.length)  # tabled
        self._walks(mem, line_reads, seg, meta, data)

    def test_served_get_skips_the_value_lines(self, line_reads):
        machines = _pair()
        maps = []
        for machine in machines:
            machine.mem.store.hold_reclaim()  # as ShardRouter does
            kvp = HMap.create(machine)
            for i in range(40):
                kvp.put(b"key-%03d" % i, b"value-%03d-" % i * 3)
            maps.append(kvp)
        plain, memoized = (m.mem for m in machines)
        value = b"value-011-" * 3
        got, plain_reads = _reads_of(line_reads, plain, maps[0].get,
                                     b"key-011")
        assert got == value
        value_seg, meta = _slot(plain, value)
        _, value_lines = _reads_of(line_reads, plain, _walk, plain,
                                   value_seg.root, meta)
        value_seg.release()
        got, reads = _reads_of(line_reads, memoized, maps[1].get,
                               b"key-011")
        assert got == value
        assert value_lines > 0
        assert reads == plain_reads - value_lines


class TestKeyAddressedRead:
    """A get or membership test of a key the segment memo knows computes
    the slot from the memo's root: no key segment, no reference."""

    #: tiny keys (packed roots), keys whose root carries a path, one-line
    #: and many-line keys: every kind of root a slot index is taken from
    KEYS = [b"k", b"key-%d" % 7, bytes(16) + b"\xff" * 16,
            b"\xff" * 16 + bytes(16), b"Q" * 16, b"long-key-" * 12] \
        + [b"key:%03d" % i for i in range(10)]
    VALUES = [b"", b"v", b"value-" * 11, b"\x00" * 9, b"other-value"]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("memo_cap", [4, 1 << 13])
    def test_memo_on_answers_as_memo_off(self, seed, memo_cap):
        """Seeded set/delete/get/add/replace on a memo-on machine (held
        store, as a shard router has it) and a memo-off twin; a small
        memo cap mixes evicted keys in."""
        plain, memoized = _pair()
        memoized.mem.store.hold_reclaim()
        memoized.mem.memo._max_segments = memo_cap
        servers = [HicampMemcached(plain), HicampMemcached(memoized)]
        rng = random.Random(seed)
        for step in range(400):
            verb = rng.choice(("set", "delete", "get", "get", "add",
                               "replace", "contains"))
            key = rng.choice(self.KEYS)
            value = rng.choice(self.VALUES)
            if verb in ("set", "add", "replace"):
                results = [getattr(server, verb)(key, value)
                           for server in servers]
            elif verb == "contains":
                results = [server.kvp.contains(key) for server in servers]
            else:
                results = [getattr(server, verb)(key) for server in servers]
            assert results[0] == results[1], (step, verb, key)
            if rng.random() < 0.1:
                memoized.mem.store.reclaim_quiesce()
        assert dict(servers[0].kvp.items()) == dict(servers[1].kvp.items())
        assert memoized.mem.memo.stats["segment"].hits > 0
        memoized.mem.store.reclaim_quiesce()
        assert audit_machine(memoized, strict=True).ok

    def test_a_freed_key_root_reused_by_another_key_reads_nothing(self):
        """Key A is deleted and its root line freed; key B, as long as A,
        takes the freed PLID. A stale ``A -> root`` entry would address
        B's slot; the dealloc listener drops it, so A is built afresh."""
        machine = Machine(MachineConfig(
            memory=MemoryConfig(line_bytes=16, num_buckets=1, data_ways=64,
                                overflow_lines=64),
            cache=CacheGeometry(size_bytes=16 * 64, ways=4, line_bytes=16)))
        mem = machine.mem
        mem.memo.enable()
        mem.store.hold_reclaim()
        kvp = HMap.create(machine)
        first, second = b"A" * 16, b"B" * 16
        kvp.put(first, b"first-value")
        root = mem.memo.get_segment(first)[0]
        assert is_ref(root) and not ref_path(root)
        assert kvp.delete(first)
        mem.store.reclaim_quiesce()
        assert not mem.store.is_allocated(ref_plid(root))
        kvp.put(second, b"second-value")
        assert mem.memo.get_segment(second)[0] == root  # the reused PLID
        assert kvp.get(first) is None
        assert not kvp.contains(first)
        assert kvp.get(second) == b"second-value"
        mem.store.reclaim_quiesce()
        assert audit_machine(machine, strict=True).ok

    @staticmethod
    def _served(count=40):
        machine = Machine(small_config())
        machine.mem.memo.enable()
        machine.mem.store.hold_reclaim()
        kvp = HMap.create(machine)
        for i in range(count):
            kvp.put(b"served-key-%03d-" % i, b"value-%03d-" % i * 3)
        machine.mem.store.reclaim_quiesce()
        return machine, kvp

    @staticmethod
    def _refcounts(mem):
        store = mem.store
        return {plid: store.refcount(plid) for plid in store.live_plids()}

    @staticmethod
    def _spy(monkeypatch, name):
        calls = []
        real = getattr(MemorySystem, name)

        def spied(mem, plid, *args):
            calls.append(plid)
            return real(mem, plid, *args)

        monkeypatch.setattr(MemorySystem, name, spied)
        return calls

    def test_a_known_key_takes_no_reference(self, monkeypatch):
        machine, kvp = self._served()
        mem = machine.mem
        key = b"served-key-011-"
        key_root = mem.memo.get_segment(key)[0]
        assert is_ref(key_root)  # a line, not a packed word
        map_root = machine.segmap.entry(kvp.vsid).root
        before = self._refcounts(mem)
        increfs = self._spy(monkeypatch, "incref")
        decrefs = self._spy(monkeypatch, "decref")
        lookups = self._spy(monkeypatch, "lookup")
        assert kvp.get(key) == b"value-011-" * 3
        assert kvp.contains(key)  # the read table's answer: no snapshot
        # the snapshot's pin on the map root, once: the get read the map
        assert increfs == decrefs == [ref_plid(map_root)]
        assert ref_plid(key_root) not in increfs
        assert lookups == []
        assert self._refcounts(mem) == before

    def test_an_evicted_or_unknown_key_is_built_and_freed(self,
                                                          monkeypatch):
        machine, kvp = self._served()
        mem = machine.mem
        mem.memo._max_segments = 1
        for i in range(mem.memo.sizes()["segment"]):  # evict every entry
            mem.memo.put_segment(b"filler-%d" % i, 0, 0, 0)
        assert mem.memo.get_segment(b"served-key-011-") is None
        before = self._refcounts(mem)
        lookups = self._spy(monkeypatch, "lookup")
        assert kvp.get(b"served-key-011-") == b"value-011-" * 3  # evicted
        assert kvp.contains(b"served-key-011-")
        built = len(lookups)
        assert built > 0
        assert kvp.get(b"never-seen-key-0123") is None  # never built
        assert not kvp.contains(b"never-seen-key-4567")
        assert len(lookups) > built
        mem.store.reclaim_quiesce()
        assert self._refcounts(mem) == before
        assert audit_machine(machine, strict=True).ok


class TestDifferentialMerge:
    def _merge_twice(self, machine):
        mem = machine.mem
        base, h = dag.build_segment(mem, list(range(1, 40)))
        mine = dag.write_words_bulk(mem, dag.retain_entry(mem, base), h,
                                    {0: 101, 5: 105})
        theirs = dag.write_words_bulk(mem, dag.retain_entry(mem, base), h,
                                      {30: 202, 38: 203})
        outs, roots = [], []
        for _ in range(2):  # the same divergence folded twice
            root, height = merge_roots(mem, (base, h), (mine, h),
                                       (theirs, h))
            outs.append(dag.gather_words(mem, root, height, 0, 39))
            roots.append(root)
        for e in (base, mine, theirs, *roots):
            dag.release_entry(mem, e)
        return outs

    def test_memoized_merge_matches_plain(self):
        plain, memoized = _pair()
        plain_outs = self._merge_twice(plain)
        memo_outs = self._merge_twice(memoized)
        assert plain_outs == memo_outs
        assert plain_outs[0] == plain_outs[1]
        assert audit_machine(memoized).ok

    def test_map_merge_commits_audit_clean_with_memo(self):
        _, memoized = _pair()
        kvp = HMap.create(memoized)
        # repeated interleaved rounds over the same key pairs: the same
        # divergence is folded again and again
        for round_ in range(4):
            for a, b in ((b"k0", b"k1"), (b"k2", b"k3"), (b"k0", b"k2")):
                left = kvp.put_steps(a, b"round-%d" % round_)
                right = kvp.put_steps(b, b"round-%d" % round_)
                next(left)
                next(right)  # both staged: second commit must merge
                for gen in (left, right):
                    for _ in gen:
                        pass
        assert len(kvp) == 4
        assert memoized.segmap.cas_failures > 0  # merges happened
        assert audit_machine(memoized).ok


class TestFingerprintMemo:
    def test_digest_stable_and_machine_independent(self):
        plain, memoized = _pair()
        words = list(range(5000, 5200))
        vp = plain.create_segment(words)
        vm = memoized.create_segment(words)
        expected = dag.segment_fingerprint(plain, vp)
        first = dag.segment_fingerprint(memoized, vm)
        second = dag.segment_fingerprint(memoized, vm)  # digest-cache hit
        assert first == expected
        assert second == expected
        assert memoized.mem.memo.stats["digest"].hits > 0

    def test_write_invalidates_stale_digests(self):
        _, memoized = _pair()
        words = list(range(7000, 7100))
        vsid = memoized.create_segment(words)
        before = dag.segment_fingerprint(memoized, vsid)
        memoized.write_word(vsid, 42, 999999)
        after = dag.segment_fingerprint(memoized, vsid)
        assert after != before
        # ground truth: a fresh plain machine with the updated content
        fresh = Machine(small_config())
        words[42] = 999999
        assert dag.segment_fingerprint(
            fresh, fresh.create_segment(words)) == after


class TestInvalidationAndRebuild:
    def test_dealloc_then_rebuild_is_correct(self):
        _, memoized = _pair()
        mem = memoized.mem
        data = b"ephemeral-content-" * 8
        seg = AnonSegment.from_bytes(mem, data)
        seg.release()  # refcount hits zero: lines dealloc, memo drops
        assert memoized.footprint_lines() == 0
        assert mem.memo.sizes()["segment"] == 0
        rebuilt = AnonSegment.from_bytes(mem, data)  # PLIDs may be reused
        assert rebuilt.to_bytes(len(data)) == data
        rebuilt.release()
        assert mem.memo.stats["segment"].invalidations >= 1


class TestBoundsStandalone:
    """LRU caps and reverse-map hygiene on a bare StructuralMemo."""

    def test_segment_table_bounded(self):
        memo = StructuralMemo().enable()
        memo._max_segments = 2
        for i in range(5):
            memo.put_segment(b"data-%d" % i, ref(50 + i), 1, 4)
        assert memo.sizes()["segment"] == 2
        assert memo.stats["segment"].evictions == 3

    def test_digest_cache_trims_wholesale(self):
        memo = StructuralMemo().enable()
        memo._max_digests = 8
        for plid in range(10):
            memo.digests[plid] = b"d%d" % plid
        memo.trim_digests()
        assert memo.digests == {}
        assert memo.stats["digest"].evictions == 10


class TestObsIntegration:
    def test_register_memo_exposes_ops_and_sizes(self):
        registry = MetricsRegistry()
        memo = StructuralMemo().enable()
        adapters.register_memo(registry, memo)
        memo.put_segment(b"a", ref(7), 0, 1)
        assert memo.get_segment(b"a") == (ref(7), 0, 1)
        assert memo.get_segment(b"b") is None
        parsed = parse_exposition(registry.exposition())
        ops = "repro_memo_ops_total"
        assert sample(parsed, ops, table="segment", outcome="hit") == 1
        assert sample(parsed, ops, table="segment", outcome="miss") == 1
        sizes = {labels: n for (name, labels), n in parsed.items()
                 if name == "repro_memo_entries"}
        assert sizes == {(("table", t),): n for t, n
                         in (("segment", 1), ("digest", 0), ("read", 0))}
        assert sample(parsed, "repro_memo_enabled") == 1

    def test_router_registers_memo_metrics(self):
        from repro.net.router import ShardRouter

        router = ShardRouter(shard_count=1)
        assert router.machine.mem.memo.enabled
        assert "repro_memo_enabled" in router.registry
