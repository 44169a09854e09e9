"""Lookup-by-content in a bucket that has spilled into the overflow area.

The store resolves lookup-by-content inside the hash bucket, charge for
charge the Figure-2 path, while the bucket has no overflow lines. A
bucket with overflow lines compares each line's 8-bit fingerprint
instead, over its ways and its overflow list together: one
signature-line read (the fingerprints sit in the same DRAM row), one
candidate read per match, and the answer comes from the store's
``content -> PLID`` dict either way. Which compare serves a bucket is a
function of its live lines, which is what these tests pin — with the
audit (``index_failures``) run after every operation where it matters.
"""

import random
import sys

import pytest

from repro.core.machine import Machine
from repro.core.persistence import machine_image, restore_machine
from repro.memory import hashing
from repro.memory.dedup_store import DedupStore, StoreCounters
from repro.memory.line import ref, encode_line, make_leaf
from repro.memory.stats import DramStats, RowBuffer
from repro.memory.system import MemorySystem
from repro.obs import adapters
from repro.obs.registry import MetricsRegistry, parse_exposition, sample
from repro.params import WORD_MASK, MachineConfig, MemoryConfig
from repro.segments import dag
from repro.testing.auditors import audit_index, audit_machine
from tests.dedup_model import ModelledStore
from tests.dedup_model import indexed_plids as _spilled

#: an unheld store frees at once; a held one (as a shard router holds
#: it) frees in epochs, when a drain runs
HELD = pytest.mark.parametrize("held", [False, True],
                               ids=["immediate", "epoch"])
#: the geometry of ``SPILLED``: 4 buckets x 2 ways
SMALL = dict(num_buckets=4, data_ways=2)


def _store(held: bool = False, **geometry) -> DedupStore:
    store = DedupStore(MemoryConfig(**geometry))
    if held:
        store.hold_reclaim()
    return store


def _leaf(i: int):
    return make_leaf((i + 1, (i * 2654435761 + 7) & WORD_MASK), 2)


def _leaves_in_bucket(bucket: int, count: int, num_buckets: int = 4):
    """The first ``count`` test leaves whose content hashes to ``bucket``."""
    found, i = [], 0
    while len(found) < count:
        line = _leaf(i)
        i += 1
        if hashing.bucket_hash(encode_line(line), num_buckets) == bucket:
            found.append(line)
    return found


def _fp(line, num_buckets: int) -> int:
    return hashing.fingerprint(encode_line(line), num_buckets)


def _release(store: DedupStore, plid: int) -> None:
    """Drop a reference and let deferred reclamation run."""
    store.decref(plid)
    store.reclaim_advance()


# ----------------------------------------------------------------------
# (a) default geometry: every charge is a Figure-2 charge

#: What the seeded script below charged on the overflow-chain store this
#: store replaced (recorded from its last commit, 2f10719): the
#: Figure-2 charge list, pinned by number.
FIGURE2_CHARGES = {
    False: (
        DramStats(lookups=6486, dealloc=2399),
        RowBuffer(last_row=30669, hits=3270, misses=5615),
        StoreCounters(lookups=3241, lookup_hits=429, allocations=2812,
                      deallocations=2399, signature_false_positives=4,
                      false_positive_scans=4)),
    True: (
        DramStats(lookups=6505, dealloc=1192),
        RowBuffer(last_row=41422, hits=3267, misses=4430),
        StoreCounters(lookups=3241, lookup_hits=1184, allocations=2057,
                      deallocations=1192, signature_false_positives=23,
                      false_positive_scans=23)),
}


@HELD
def test_default_geometry_is_charge_for_charge_legacy(held):
    store = _store(held)
    modelled = ModelledStore(store)
    rng = random.Random(2012)
    owned = []
    for step in range(6000):
        roll = rng.random()
        if roll < 0.55 or not owned:
            # small pool -> dedup hits and epoch resurrections
            plid, _created = modelled.lookup(_leaf(rng.randrange(1500)))
            owned.append(plid)
        else:
            modelled.decref(owned.pop(rng.randrange(len(owned))))
        if step % 40 == 0:
            modelled.advance(8)
    stats, rows, counters = FIGURE2_CHARGES[held]
    assert store.stats == stats
    assert store.rows == rows  # open row, hits and misses
    assert store.counters == counters
    assert store.counters.overflow_allocations == 0
    assert store.index_snapshot()["indexed_buckets"] == 0
    modelled.release_all(owned)


def _calls(fn, *args) -> int:
    """Python + C calls made by ``fn(*args)`` (no clock)."""
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def _warm_memory() -> MemorySystem:
    """A default-geometry memory holding 64 leaves."""
    mem = MemorySystem(MachineConfig())
    for i in range(64):
        mem.lookup(_leaf(i))
    return mem


def test_serving_lookup_miss_call_ceiling():
    """Indexing every line again (a key hash, two index probes and a
    placement per miss: 92 calls against 55 before lookups were resolved
    in the bucket, 38 after), or a second content table in the cache
    (31 calls with one, 24 after), cannot return unnoticed."""
    assert _calls(_warm_memory().lookup, _leaf(10_000)) <= 28


def test_interior_line_miss_call_ceiling():
    """A built interior line keeps its builder's references on its
    children: taking new ones and dropping the old (98 calls with four
    children, 50 after, 45 once a reference word is an int) cannot
    return unnoticed."""
    mem = _warm_memory()
    children = [ref(mem.lookup(_leaf(20_000 + i)))
                for i in range(mem.fanout)]
    assert mem.fanout == 4
    assert _calls(dag._canonical_interior, mem, children, 1) <= 54


def test_build_segment_call_ceiling():
    """32 distinct words: 16 leaf misses and 5 interior misses (1 168
    calls before a line was interned once, 816 after, 780 once an entry
    is tested by truth value rather than by a reference object's
    ``__eq__``, 759 once a reference word is an int, not an object
    built per line)."""
    rng = random.Random(5)
    words = [rng.getrandbits(64) | 1 for _ in range(32)]
    assert len(set(words)) == 32
    mem = _warm_memory()
    assert _calls(dag.build_segment, mem, words) <= 778


def test_gather_words_call_ceiling():
    """64 words over 32 leaf lines: an interior line's leaf children are
    read in its frame (376 calls with a recursive call and a reference
    object's ``__eq__`` per leaf, 237 after)."""
    rng = random.Random(7)
    words = [rng.getrandbits(64) | 1 for _ in range(64)]
    mem = _warm_memory()
    root, height = dag.build_segment(mem, words)
    assert len(words) // mem.words_per_line == 32
    assert dag.gather_words(mem, root, height, 0, 64) == words
    assert _calls(dag.gather_words, mem, root, height, 0, 64) <= 320


# ----------------------------------------------------------------------
# (b) a bucket switches compare with its overflow list, and back


@HELD
def test_spilled_bucket_compares_fingerprints_until_it_empties(held):
    store = _store(held, **SMALL)
    a = _leaves_in_bucket(0, 4)
    b = _leaves_in_bucket(1, 2)

    def lookup(line):
        result = store.lookup(line)
        assert store.index_failures() == []
        return result

    def release(plid):
        _release(store, plid)
        assert store.index_failures() == []

    a0, a1 = lookup(a[0])[0], lookup(a[1])[0]
    b0, b1 = lookup(b[0])[0], lookup(b[1])[0]
    assert _spilled(store) == set()  # both buckets full, none spilled

    a2, created = lookup(a[2])  # first spill of bucket 0
    assert created and a2 >= store._overflow_base
    assert _spilled(store) == {a0, a1, a2}
    assert store.index_snapshot()["indexed_buckets"] == 1
    # its ways' fingerprints were stored when they were allocated
    assert list(store._fps[1:3]) == [_fp(a[0], 4), _fp(a[1], 4)]
    assert list(store._overflow_fps[0]) == [_fp(a[2], 4)]

    # bucket 0 compares fingerprints, bucket 1 still signatures
    matches = sum(_fp(line, 4) == _fp(a[0], 4) for line in a[:3])
    signatures = store.counters.signature_false_positives
    before = store.stats.lookups
    assert lookup(a[0]) == (a0, False)
    assert store.stats.lookups - before == 1 + matches
    assert store.counters.signature_false_positives == signatures
    assert lookup(b[0]) == (b0, False)
    release(a0)
    release(b0)

    # a way freed under a spilled bucket: the bucket stays spilled and
    # the next allocation takes that way, fingerprint and all
    release(a0)
    assert _spilled(store) == {a1, a2}
    a3, created = lookup(a[3])
    assert created and a3 == a0  # lowest free way reused
    assert _spilled(store) == {a1, a2, a3}

    # freeing the last overflow line returns the bucket to the
    # signature compare
    store.decref(a2)
    if held:
        # deferred-dead: still resident, still spilled, resurrectable
        assert store.refcount(a2) == 0
        assert _spilled(store) == {a1, a2, a3}
        assert lookup(a[2]) == (a2, False)
        store.reclaim_advance()
        assert store.reclaim_stats.drained_resurrected == 1
        assert _spilled(store) == {a1, a2, a3}
        store.decref(a2)
        store.reclaim_advance()
    assert store.index_failures() == []
    assert _spilled(store) == set()
    assert store.index_snapshot()["indexed_buckets"] == 0
    assert store._overflow_fps == {}

    # and the bucket is served by its signatures again
    assert lookup(a[1]) == (a1, False)
    for plid in (a1, a1, a3, b0, b1):
        release(plid)
    assert store.footprint_lines() == 0
    assert store._fps.count(0) == len(store._fps)


@HELD
def test_flapping_costs_the_same_every_flip(held):
    """One bucket crossing the spill boundary back and forth: with no
    hand-over, every flip charges exactly what the first one did."""
    store = _store(held, **SMALL)
    ways = store.config.data_ways
    lines = _leaves_in_bucket(2, ways + 1)
    for line in lines[:ways]:
        store.lookup(line)
    charges = set()
    for _flip in range(10):
        before = store.stats.total()
        spilled, created = store.lookup(lines[ways])
        assert created and store.indexed_buckets() == 1
        _release(store, spilled)
        assert store.indexed_buckets() == 0
        assert store.index_failures() == []
        charges.add(store.stats.total() - before)
    assert len(charges) == 1


def test_pressure_drain_returns_a_bucket_before_it_spills():
    """A held store whose spilled bucket is full of dead lines drains
    them before it spills. The drain frees the last overflow line, so
    the bucket is back on its signatures, and the new line takes a
    freed way."""
    store = _store(True, **SMALL)
    a = _leaves_in_bucket(0, 4)
    a0, a1 = store.lookup(a[0])[0], store.lookup(a[1])[0]
    a2 = store.lookup(a[2])[0]  # first spill
    assert _spilled(store) == {a0, a1, a2}
    store.decref(a2)
    store.decref(a0)
    assert store.pending_lines() == 2  # dead, still spilled
    a3, created = store.lookup(a[3])
    assert created and a3 == a0  # a0's way, freed by the drain
    assert store.reclaim_stats.pressure_drains == 1
    assert store.pending_lines() == 0
    assert _spilled(store) == set()
    assert store.index_failures() == []


# ----------------------------------------------------------------------
# (c) what a fingerprint collision costs


def test_fingerprint_collision_charges_one_extra_read():
    """One bucket, two ways, spilled: a miss whose fingerprint matches a
    resident line pays one candidate read more than a miss that matches
    none, and counts one false-positive scan but no signature one."""
    store = _store(num_buckets=1, data_ways=2)
    leaves = [_leaf(i) for i in range(2000)]
    resident = leaves[:3]  # two ways, then the spill
    fps = [_fp(line, 1) for line in resident]
    assert len(set(fps)) == 3
    for line in resident:
        store.lookup(line)
    assert store.indexed_buckets() == 1
    colliding = next(line for line in leaves[3:]
                     if _fp(line, 1) == fps[0])
    clean = next(line for line in leaves[3:] if _fp(line, 1) not in fps)

    def charge(line):
        stats, counters = store.stats.lookups, store.counters
        scans = counters.false_positive_scans
        signatures = counters.signature_false_positives
        plid, created = store.lookup(line)
        assert created
        return (store.stats.lookups - stats,
                counters.false_positive_scans - scans,
                counters.signature_false_positives - signatures)

    # signature-line read + overflow pointer update
    assert charge(clean) == (2, 0, 0)
    # ... + one candidate read of the resident line it collides with
    assert charge(colliding) == (3, 1, 0)
    assert store.index_failures() == []


#: The retired ``bench dedup-index --smoke`` workload, read-only: 30 000
#: unique lines into 256 buckets x 12 ways (11.07x resident capacity),
#: then 8 000 lookups alternating resident and fresh content, then
#: 8 000 resident re-lookups. Modeled DRAM totals per phase, all
#: lookup-category charges.
PROBE_DRAM = {"populate": 86755, "mixed": 19979, "hits": 20235}

#: the cuckoo index's last mixed-phase figure on this workload
#: (docs/performance.md, "Why the legacy index went")
INDEX_MIXED_OPS_PER_LOOKUP = 3.05


def _probe_content(i: int):
    return make_leaf(((i + 1) & WORD_MASK,
                      (i * 0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03)
                      & WORD_MASK), 2)


def test_spill_regime_probe_charges():
    keys, measured = 30_000, 8_000
    store = _store(num_buckets=256, overflow_lines=1 << 22)
    totals = {}

    def phase(name, lines):
        before = store.stats.total()
        for line in lines:
            store.lookup(line)
        totals[name] = store.stats.total() - before

    phase("populate", (_probe_content(i) for i in range(keys)))
    phase("mixed", (_probe_content((j * 2654435761) % keys if j % 2 == 0
                                   else keys + j // 2)
                    for j in range(measured)))
    phase("hits", (_probe_content((j * 48271 + 11) % keys)
                   for j in range(measured)))
    assert totals == PROBE_DRAM
    assert store.stats == DramStats(lookups=sum(PROBE_DRAM.values()))
    assert totals["mixed"] / measured <= INDEX_MIXED_OPS_PER_LOOKUP
    assert round(store.footprint_lines() / (256 * 12), 2) == 11.07
    assert store.index_failures() == []
    store.check_refcounts()


# ----------------------------------------------------------------------
# (d) the store around the spilled buckets


def test_modelled_churn_through_spilled_buckets():
    store = _store(num_buckets=8, data_ways=2)
    modelled = ModelledStore(store)
    plids = []
    for i in range(600):
        plid, created = modelled.lookup(_leaf(i))
        assert created
        plids.append(plid)
    assert store.indexed_buckets() == 8
    # dedup hits resolve to the PLIDs the misses allocated
    for i in range(0, 600, 7):
        assert modelled.lookup(_leaf(i)) == (plids[i], False)
    # interleaved churn
    for i in range(0, 600, 2):
        modelled.decref(plids[i], 2 if i % 7 == 0 else 1)
    assert store.footprint_bytes() == 300 * store.config.line_bytes
    # what is left: the odd lines, those hit above still held twice
    modelled.release_all(plids[1::2] + plids[7::14])


def test_dealloc_listener_and_overflow_slot_reuse():
    store = _store(num_buckets=2, data_ways=2)
    seen = []
    store.dealloc_listeners.append(seen.append)
    plids = [store.lookup(_leaf(i))[0] for i in range(40)]
    assert store.counters.overflow_allocations > 0
    for plid in plids:
        store.decref(plid)
    assert set(seen) == set(plids)
    assert store.footprint_lines() == 0
    assert store.indexed_buckets() == 0
    assert store.index_failures() == []
    # freed overflow slots are recycled, fingerprints stored again
    again = [store.lookup(_leaf(i))[0] for i in range(40)]
    assert set(again) == set(plids)
    assert store.index_failures() == []


@pytest.mark.parametrize("resolved_by", ["fingerprint", "signature"])
def test_corrupt_line_flagged_then_deallocates_cleanly(resolved_by):
    # one bucket: the third line spills it
    store = _store(num_buckets=1, data_ways=2)
    plid = store.lookup(_leaf(1))[0]
    store.lookup(_leaf(2))
    if resolved_by == "fingerprint":
        store.lookup(_leaf(3))
    assert store.indexed_buckets() == (resolved_by == "fingerprint")
    before = store.footprint_lines()
    store.corrupt_line_for_test(plid, _leaf(999))
    failures = store.index_failures()
    assert any(str(plid) in f and "reachable" in f for f in failures)
    assert any(str(plid) in f and "fingerprint" in f for f in failures)
    # dealloc keys off the captured allocation-time encoding, so the
    # corrupted line still frees without raising
    store.decref(plid)
    assert store.footprint_lines() == before - 1
    assert store.index_failures() == []


@pytest.mark.parametrize("lost_from", ["fingerprint", "content"])
def test_audit_machine_includes_index(lost_from):
    machine = Machine(MachineConfig(memory=MemoryConfig(
        num_buckets=2, data_ways=2)))
    vsid = machine.create_segment([i + 1 for i in range(64)])
    assert audit_machine(machine, strict=True).ok
    store = machine.mem.store
    assert store.indexed_buckets() > 0
    # manually damage either lookup structure: the auditor must notice
    if lost_from == "fingerprint":
        bucket, plids = next(iter(store._overflow.items()))
        victim = plids[0]
        store._overflow_fps[bucket][0] ^= 0xFF
    else:
        victim = store.live_plids()[0]
        store._plid_by_line.pop(store.peek(victim))
    failures = audit_index(machine)
    assert any(str(victim) in f for f in failures)
    assert not audit_machine(machine).ok
    machine.drop_segment(vsid)


def test_install_line_dedups_through_spilled_buckets():
    src = _store(num_buckets=8, data_ways=2)
    dst = _store(num_buckets=8, data_ways=2)
    plids = [src.lookup(_leaf(i))[0] for i in range(50)]
    for plid in plids:
        line = src.peek(plid)
        p1, created1 = dst.install_line(line)
        p2, created2 = dst.install_line(line)
        assert created1 and not created2 and p1 == p2
    assert dst.indexed_buckets() > 0
    assert dst.index_failures() == []


def test_restore_of_a_spilled_store():
    """An image carries no fingerprints: restore derives them from the
    content, so the restored store spills exactly the buckets the saved
    one did and holds byte for byte the same fingerprints."""
    machine = Machine(MachineConfig(memory=MemoryConfig(
        num_buckets=16, data_ways=2)))
    machine.create_segment([(i * 31 + 5) for i in range(200)])
    store = machine.mem.store
    spilled = _spilled(store)
    # a mixed store: some buckets spilled, some still on signatures
    holding = {store.bucket_of(plid) for plid in store.live_plids()}
    assert 0 < store.indexed_buckets() < len(holding)
    assert 0 < len(spilled) < store.footprint_lines()

    rstore = restore_machine(machine_image(machine)).mem.store
    assert _spilled(rstore) == spilled
    assert rstore.indexed_buckets() == store.indexed_buckets()
    assert rstore._fps == store._fps
    assert rstore._overflow == store._overflow
    assert rstore._overflow_fps == store._overflow_fps
    assert rstore.index_failures() == []


def test_lookups_after_restore_dedup_at_the_saved_charges():
    """Content lookups after restore dedup to the pre-existing lines, at
    the charges the saved store pays, and the restored machine audits
    clean and reads back the same segment."""
    machine = Machine(MachineConfig(memory=MemoryConfig(
        num_buckets=2, data_ways=2)))
    vsid = machine.create_segment([(i * 31 + 5) for i in range(200)])
    store = machine.mem.store
    assert store.indexed_buckets() == 2  # every bucket has spilled

    restored = restore_machine(machine_image(machine))
    rstore = restored.mem.store
    assert rstore.index_failures() == []
    assert audit_machine(restored, strict=True).ok
    assert restored.read_segment(vsid) == machine.read_segment(vsid)
    for plid in sorted(store.live_plids())[:20]:
        line = store.peek(plid)
        charges = []
        for s in (store, rstore):
            before = s.stats.lookups
            assert s.lookup(line) == (plid, False)
            charges.append(s.stats.lookups - before)
            s.decref(plid)  # release the extra lookup reference
        assert charges[0] == charges[1]


# ----------------------------------------------------------------------
# (e) what is left of the index surface


def test_deleted_config_fields_are_refused():
    for field in ("index_buckets", "index_kind"):
        with pytest.raises(TypeError):
            MemoryConfig(**{field: 8})


def test_register_index_exposes_store_metrics():
    store = _store(num_buckets=8, data_ways=2)
    registry = MetricsRegistry()
    adapters.register_index(registry, store)
    for i in range(200):
        store.lookup(_leaf(i))
    store.lookup(_leaf(0))
    text = registry.exposition()
    assert "repro_index_store_ops_total" in text
    assert "repro_index_cuckoo" not in text
    parsed = parse_exposition(text)
    ops = "repro_index_store_ops_total"
    assert sample(parsed, ops, event="lookups") \
        == store.counters.lookups == 201
    assert sample(parsed, ops, event="lookup_hits") == 1
    # 200 lines into 8 x 2 ways: every bucket has spilled
    assert sample(parsed, "repro_index_indexed_buckets") \
        == store.index_snapshot()["indexed_buckets"] == 8


def test_router_snapshots_index():
    from repro.net.router import ShardRouter

    router = ShardRouter(shard_count=1)
    assert router.machine.config.memory == MemoryConfig()
    snap = router.snapshot()
    assert snap["index"] == {"false_positive_scans": 0,
                             "signature_false_positives": 0,
                             "indexed_buckets": 0}
    # another geometry serves through the same store
    small = ShardRouter(machine=Machine(MachineConfig(
        memory=MemoryConfig(num_buckets=16))), shard_count=1)
    assert sorted(small.snapshot()["index"]) == sorted(snap["index"])
