"""Cuckoo lookup-by-content index: unit, store integration, obs, and
persistence coverage (repro.memory.index and the store's use of it)."""

import pytest

from repro.core.machine import Machine
from repro.core.persistence import machine_image, restore_machine
from repro.memory.dedup_store import DedupStore
from repro.memory.index import (
    MAX_FP_BITS,
    MIN_FP_BITS,
    CuckooIndex,
    compute_fp_bits,
)
from repro.memory.line import encode_line, make_leaf
from repro.obs.registry import MetricsRegistry
from repro.obs import adapters
from repro.params import MachineConfig, MemoryConfig
from repro.testing.auditors import audit_index, audit_machine
from tests.dedup_model import ModelledStore


def _key(i: int) -> int:
    return CuckooIndex.key_of(b"content-%06d" % i)


def _leaf(i: int):
    return make_leaf((i + 1, (i * 2654435761 + 7) & ((1 << 64) - 1)), 2)


# ----------------------------------------------------------------------
# CuckooIndex unit behaviour


class TestCuckooIndexUnit:
    def _matcher(self, owned):
        """Verification callback: candidate plid must own the probed key
        (the store's full-content compare, modelled)."""
        probe = {}

        def match(plid):
            return owned.get(plid) == probe["key"]

        return probe, match

    def test_roundtrip_insert_get_remove(self):
        index = CuckooIndex(initial_buckets=8, slots_per_bucket=2)
        owned = {}
        probe, match = self._matcher(owned)
        for i in range(64):
            key = _key(i)
            owned[i] = key
            index.insert(key, i)
        assert len(index) == 64
        for i in range(64):
            probe["key"] = owned[i]
            assert index.get(owned[i], match) == i
        probe["key"] = _key(10_000)
        assert index.get(_key(10_000), match) is None
        for i in range(0, 64, 2):
            assert index.remove(owned[i], i)
            assert not index.remove(owned[i], i)  # already gone
        assert len(index) == 32
        probe["key"] = owned[2]
        assert index.get(owned[2], match) is None

    def test_displacement_and_depth_histogram(self):
        index = CuckooIndex(initial_buckets=4, slots_per_bucket=1,
                            max_load=0.99)
        owned = {}
        probe, match = self._matcher(owned)
        for i in range(48):
            owned[i] = _key(i)
            index.insert(owned[i], i)
        # collisions at one-slot buckets force kick paths
        assert index.stats.displacements > 0
        assert sum(index.stats.depth_hist.values()) >= 48
        assert any(depth > 0 for depth in index.stats.depth_hist)
        for i in range(48):
            probe["key"] = owned[i]
            assert index.get(owned[i], match) == i, "entry lost in kicks"

    def test_adaptive_fp_width_growth(self):
        assert compute_fp_bits(0, 0.02) == MIN_FP_BITS
        # widths grow monotonically with occupancy and cap at 16
        widths = [compute_fp_bits(n, 0.02) for n in range(0, 9)]
        assert widths == sorted(widths)
        assert compute_fp_bits(8, 0.0001) == MAX_FP_BITS
        index = CuckooIndex(initial_buckets=2, slots_per_bucket=8,
                            target_fp_rate=0.001, max_load=1.0)
        for i in range(12):
            index.insert(_key(i), i)
        assert index.stats.fp_growth_events > 0
        assert any(w > MIN_FP_BITS for w in index.bucket_width_counts())

    def test_online_resize_serves_during_migration(self):
        # one migrated bucket per op keeps the resize window open across
        # many lookups; every entry must stay reachable throughout
        index = CuckooIndex(initial_buckets=4, slots_per_bucket=2,
                            migrate_step=1)
        owned = {}
        probe, match = self._matcher(owned)
        for i in range(40):
            owned[i] = _key(i)
            index.insert(owned[i], i)
        assert index.stats.resizes_started >= 1
        saw_resizing = False
        for i in range(40):
            saw_resizing = saw_resizing or index.resizing
            probe["key"] = owned[i]
            assert index.get(owned[i], match) == i
        for _ in range(200):  # drive remaining migration to completion
            probe["key"] = owned[0]
            index.get(owned[0], match)
        assert not index.resizing
        assert index.stats.resizes_completed >= 1
        assert index.stats.migrated_entries > 0
        assert len(index) == 40

    def test_stash_absorbs_placement_failure_and_stays_servable(self):
        index = CuckooIndex(initial_buckets=2, slots_per_bucket=1,
                            max_kick_depth=1, max_bfs_nodes=2)
        owned = {}
        probe, match = self._matcher(owned)
        # force placements with resize forbidden: overflow must stash,
        # never refuse or drop
        for i in range(8):
            owned[i] = _key(i)
            index._place(index._active, owned[i], i, allow_resize=False)
        assert index.stats.stash_inserts > 0
        for i in range(8):
            probe["key"] = owned[i]
            assert index.get(owned[i], match) == i
        for i in range(8):
            assert index.remove(owned[i], i)
        assert len(index) == 0

    def test_audit_detects_missing_stale_and_mismatched(self):
        index = CuckooIndex(initial_buckets=8)
        expected = {}
        for i in range(16):
            key = _key(i)
            index.insert(key, i)
            expected[i] = key
        assert index.audit(expected) == []
        # stale: an entry whose plid is no longer live
        del expected[3]
        assert any("stale" in f for f in index.audit(expected))
        expected[3] = _key(3)
        # missing: a live plid the index lost
        index.remove(_key(5), 5)
        assert any("not indexed" in f for f in index.audit(expected))
        index.insert(_key(5), 5)
        # mismatch: live content no longer matching the indexed key
        expected[7] = _key(9_999)
        assert any("does not match" in f for f in index.audit(expected))

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            CuckooIndex(initial_buckets=3)
        with pytest.raises(ValueError):
            CuckooIndex(initial_buckets=8, slots_per_bucket=0)


# ----------------------------------------------------------------------
# DedupStore integration


def _cfg(**over):
    # 8 buckets x 2 ways: every bucket spills within a few dozen lines,
    # so the store hands all of them to its index
    base = dict(num_buckets=8, data_ways=2, index_buckets=8)
    base.update(over)
    return MemoryConfig(**base)


class TestStoreIntegration:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            MemoryConfig(index_buckets=12)
        with pytest.raises(TypeError):
            MemoryConfig(index_kind="cuckoo")

    def test_plid_parity_and_identical_state_across_kinds(self):
        """Was a comparison with the overflow-chain store; the same
        script now runs against the dict model."""
        store = DedupStore(_cfg())
        modelled = ModelledStore(store)
        plids = []
        for i in range(600):
            plid, created = modelled.lookup(_leaf(i))
            assert created
            plids.append(plid)
        assert len(store.index) == store.footprint_lines() == 600
        # dedup hits resolve to the PLIDs the misses allocated
        for i in range(0, 600, 7):
            assert modelled.lookup(_leaf(i)) == (plids[i], False)
        # interleaved churn
        for i in range(0, 600, 2):
            modelled.decref(plids[i], 2 if i % 7 == 0 else 1)
        assert store.footprint_bytes() == 300 * store.config.line_bytes
        assert len(store.index) == store.footprint_lines()
        # what is left: the odd lines, those hit above still held twice
        modelled.release_all(plids[1::2] + plids[7::14])

    def test_dealloc_listener_and_overflow_slot_reuse(self):
        store = DedupStore(_cfg(num_buckets=2))
        seen = []
        store.dealloc_listeners.append(seen.append)
        plids = [store.lookup(_leaf(i))[0] for i in range(40)]
        assert store.counters.overflow_allocations > 0
        for plid in plids:
            store.decref(plid)
        assert set(seen) == set(plids)
        assert store.footprint_lines() == 0
        assert len(store.index) == 0
        assert store.index_failures() == []
        # freed overflow slots are recycled, and the index re-learns them
        again = [store.lookup(_leaf(i))[0] for i in range(40)]
        assert set(again) == set(plids)
        assert store.index_failures() == []

    @pytest.mark.parametrize("resolved_by", ["cuckoo", "bucket"])
    def test_corrupt_line_flagged_then_deallocates_cleanly(
            self, resolved_by):
        # one bucket: the third line spills it into the cuckoo index
        store = DedupStore(_cfg(num_buckets=1))
        plid = store.lookup(_leaf(1))[0]
        store.lookup(_leaf(2))
        if resolved_by == "cuckoo":
            store.lookup(_leaf(3))
        assert len(store.index) == (3 if resolved_by == "cuckoo" else 0)
        before = store.footprint_lines()
        store.corrupt_line_for_test(plid, _leaf(999))
        failures = store.index_failures()
        assert failures, "stale index entry for corrupted line not flagged"
        assert any(str(plid) in f for f in failures)
        # dealloc keys off the captured allocation-time encoding, so the
        # corrupted line still unindexes without raising
        store.decref(plid)
        assert store.footprint_lines() == before - 1
        assert store.index_failures() == []

    @pytest.mark.parametrize("lost_from", ["cuckoo", "bucket"])
    def test_audit_machine_includes_index(self, lost_from):
        machine = Machine(MachineConfig(memory=_cfg(num_buckets=2)))
        vsid = machine.create_segment([i + 1 for i in range(64)])
        assert audit_machine(machine, strict=True).ok
        store = machine.mem.store
        # manually lose an entry from either lookup structure: the
        # auditor must notice
        victim = store.live_plids()[0]
        enc = store._enc_by_plid[victim]
        if lost_from == "cuckoo":
            assert store.index.remove(CuckooIndex.key_of(enc), victim)
        else:
            store._plid_by_enc.pop(enc)
        failures = audit_index(machine)
        assert any("not" in f and str(victim) in f for f in failures)
        assert not audit_machine(machine).ok
        machine.drop_segment(vsid)

    def test_install_line_dedups_through_cuckoo(self):
        src = DedupStore(_cfg())
        dst = DedupStore(_cfg())
        plids = [src.lookup(_leaf(i))[0] for i in range(50)]
        for plid in plids:
            line = src.export_line(plid)
            p1, created1 = dst.install_line(line)
            p2, created2 = dst.install_line(line)
            assert created1 and not created2 and p1 == p2
        assert dst.index_failures() == []


# ----------------------------------------------------------------------
# persistence


def test_persistence_roundtrip_rebuilds_cuckoo_index():
    machine = Machine(MachineConfig(memory=_cfg(num_buckets=2)))
    vsid = machine.create_segment([(i * 31 + 5) for i in range(200)])
    image = machine_image(machine)
    restored = restore_machine(image)
    store = restored.mem.store
    assert len(store.index) == store.footprint_lines()
    assert store.index_failures() == []
    # content lookups after restore dedup to the pre-existing lines
    for plid in list(store.live_plids())[:20]:
        line = store.peek(plid)
        found, created = store.lookup(line, encode_line(line))
        assert (found, created) == (plid, False)
        store.decref(plid)  # release the extra lookup reference
    assert audit_machine(restored, strict=True).ok
    assert restored.read_segment(vsid) == machine.read_segment(vsid)


# ----------------------------------------------------------------------
# observability


def test_register_index_exposes_cuckoo_metrics():
    store = DedupStore(_cfg())
    registry = MetricsRegistry()
    adapters.register_index(registry, store)
    for i in range(200):
        store.lookup(_leaf(i))
    store.lookup(_leaf(0))
    text = registry.exposition()
    assert not [line for line in text.splitlines()
                if line.startswith("repro_index_kind")]
    for metric in ("repro_index_store_ops_total",
                   "repro_index_cuckoo_events_total",
                   "repro_index_displacement_depth_total",
                   "repro_index_buckets_by_fp_bits",
                   "repro_index_occupancy"):
        assert metric in text, metric
    events = registry.get("repro_index_cuckoo_events_total") \
        .snapshot_value()
    assert events["inserts"] == store.index.stats.inserts == 200
    assert events["hits"] == 1
    store_ops = registry.get("repro_index_store_ops_total") \
        .snapshot_value()
    assert store_ops["lookups"] == store.counters.lookups == 201
    widths = registry.get("repro_index_buckets_by_fp_bits") \
        .snapshot_value()
    assert sum(widths.values()) == store.index.num_buckets
    # 200 lines into 8 x 2 ways: every bucket has been handed over
    assert registry.get("repro_index_indexed_buckets") \
        .snapshot_value() == store.index_snapshot()["indexed_buckets"] == 8


def test_router_defaults_to_cuckoo_and_snapshots_index():
    from repro.net.router import ShardRouter

    router = ShardRouter(shard_count=1)
    assert router.machine.config.memory == MemoryConfig()
    snap = router.snapshot()
    assert "kind" not in snap["index"]
    assert snap["index"]["cuckoo"]["entries"] == 0
    assert snap["index"]["indexed_buckets"] == 0
    # another geometry serves through the same store
    small = ShardRouter(shard_count=1, memory=MemoryConfig(num_buckets=16))
    assert sorted(small.snapshot()["index"]) == sorted(snap["index"])
