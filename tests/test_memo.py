"""Structural memo: differential correctness, invalidation, bounds.

The memo (:mod:`repro.memory.memo`) may change *how fast* a canonical
structure is found, never *which* structure — every test here compares a
memo-enabled machine against an identically-configured plain one, or
proves the refcount books still balance with memo hits in the mix.
"""

import pytest

from repro import Machine
from repro.memory.line import PlidRef
from repro.memory.memo import MISS, StructuralMemo
from repro.obs import adapters
from repro.obs.registry import MetricsRegistry
from repro.segments import dag
from repro.segments.merge import merge_roots
from repro.structures.anon import AnonSegment
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
        assert memoized.mem.memo.sizes() == {
            "line": 0, "segment": 0, "merge": 0, "digest": 0}

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


class TestDifferentialMerge:
    def _merge_twice(self, machine):
        mem = machine.mem
        base, h = dag.build_segment(mem, list(range(1, 40)))
        mine = dag.write_words_bulk(mem, dag.retain_entry(mem, base), h,
                                    {0: 101, 5: 105})
        theirs = dag.write_words_bulk(mem, dag.retain_entry(mem, base), h,
                                      {30: 202, 38: 203})
        outs, roots = [], []
        # pin each result until the end: releasing a result deallocs its
        # lines, which (correctly) invalidates the memo entry — the
        # serving path keeps committed results alive via the segment map
        for _ in range(2):  # the second fold hits the merge memo
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
        assert memoized.mem.memo.stats["merge"].hits > 0
        assert audit_machine(memoized).ok

    def test_map_merge_commits_audit_clean_with_memo(self):
        _, memoized = _pair()
        kvp = HMap.create(memoized)
        # repeated interleaved rounds over the same key pairs: the same
        # divergence is folded again and again, exercising memo hits
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

    def test_line_table_bounded_with_evictions(self):
        memo = StructuralMemo(max_lines=4).enable()
        for i in range(7):
            memo.put_line(("line", i), 100 + i)
        assert memo.sizes()["line"] == 4
        assert memo.stats["line"].evictions == 3
        assert memo.get_line(("line", 0)) is None  # evicted
        assert memo.get_line(("line", 6)) == 106

    def test_segment_table_bounded(self):
        memo = StructuralMemo(max_segments=2).enable()
        for i in range(5):
            memo.put_segment(b"data-%d" % i, PlidRef(50 + i), 1, 4)
        assert memo.sizes()["segment"] == 2
        assert memo.stats["segment"].evictions == 3

    def test_merge_dealloc_cleans_all_dep_entries(self):
        memo = StructuralMemo().enable()
        deps = (PlidRef(1), PlidRef(2), PlidRef(3), PlidRef(4))
        memo.put_merge(("a", "b", "c", 0), deps[3], deps)
        memo.on_dealloc(2)  # any dep's reuse kills the entry
        assert memo.get_merge(("a", "b", "c", 0)) is MISS
        assert memo.stats["merge"].invalidations == 1
        assert memo._merge_rev == {}  # no dangling reverse entries

    def test_digest_cache_trims_wholesale(self):
        memo = StructuralMemo(max_digests=8).enable()
        for plid in range(10):
            memo.digests[plid] = b"d%d" % plid
        memo.trim_digests()
        assert memo.digests == {}
        assert memo.stats["digest"].evictions == 10

    def test_disable_drops_state(self):
        memo = StructuralMemo().enable()
        memo.put_line(("x",), 9)
        memo.disable()
        assert not memo.enabled
        assert memo.sizes()["line"] == 0


class TestObsIntegration:
    def test_register_memo_exposes_ops_and_sizes(self):
        registry = MetricsRegistry()
        memo = StructuralMemo().enable()
        adapters.register_memo(registry, memo)
        memo.put_line(("a",), 7)
        assert memo.get_line(("a",)) == 7
        assert memo.get_line(("b",)) is None
        ops = dict(registry.get("repro_memo_ops_total").snapshot_value())
        assert ops["line,hit"] == 1
        assert ops["line,miss"] == 1
        sizes = dict(registry.get("repro_memo_entries").snapshot_value())
        assert sizes["line"] == 1
        assert registry.get("repro_memo_enabled").snapshot_value() == 1

    def test_router_registers_memo_metrics(self):
        from repro.net.router import ShardRouter

        router = ShardRouter(shard_count=1)
        assert router.machine.mem.memo.enabled
        assert router.registry.get("repro_memo_enabled") is not None
