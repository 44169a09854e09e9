"""Cross-kind differentials: ``reclaim_kind`` must be invisible.

The epoch reclaimer changes *when* dead subtrees are walked, never
*what* the machine contains once quiesced. Each test here runs the
same deterministic workload under ``immediate`` and ``epoch``
reclamation and demands identical post-quiesce observables — segment
fingerprints, footprints, the refcount multiset — plus clean strict
audits, seed-identical fuzz traces, history-independence under the
epoch kind, and persistence images that exclude deferred-dead lines.
"""

import random

from repro.core.machine import Machine
from repro.core.persistence import machine_image, restore_machine
from repro.params import MachineConfig, MemoryConfig, WORD_MASK
from repro.structures import HMap
from repro.testing.auditors import audit_machine
from repro.testing.fuzz import EpisodeConfig, run_episode
from repro.testing.hi import HIConfig, verify_structure

KINDS = ("immediate", "epoch")


def _churn(machine, seed=7, rounds=200):
    """Deterministic mixed workload: map churn plus segment drops."""
    rng = random.Random(seed)
    kvp = HMap.create(machine)
    segments = []
    for i in range(rounds):
        roll = rng.random()
        if roll < 0.55:
            kvp.put(b"k%02d" % rng.randrange(12),
                    b"value-%06d" % rng.randrange(40))
        elif roll < 0.75:
            kvp.delete(b"k%02d" % rng.randrange(12))
        elif roll < 0.90 or not segments:
            tag = rng.randrange(1, 1 << 16)
            words = [((tag << 24) | w) & WORD_MASK
                     for w in range(rng.randrange(8, 120))]
            segments.append(machine.create_segment(words))
        else:
            machine.drop_segment(segments.pop(rng.randrange(len(segments))))
    for _ in range(len(segments) // 2):
        machine.drop_segment(segments.pop())
    if machine.mem.store.reclaimer is not None:
        # interleave a bounded drain like the router's batch boundary
        machine.mem.store.reclaim_advance(64)
    return kvp


def _observe(kind, seed=7):
    machine = Machine(MachineConfig(
        memory=MemoryConfig(reclaim_kind=kind)))
    kvp = _churn(machine, seed=seed)
    machine.drain()  # quiesces the reclaimer before any observation
    store = machine.mem.store
    return {
        "fingerprint": machine.segment_fingerprint(kvp.vsid).hex(),
        "footprint_lines": machine.footprint_lines(),
        "footprint_bytes": store.footprint_bytes(),
        "refcounts": sorted(store.refcount(p) for p in store.live_plids()),
        "audit": audit_machine(machine, strict=True),
        "pending": 0 if store.reclaimer is None
        else store.reclaimer.pending(),
    }


class TestPostQuiesceIdentity:
    def test_identical_observables_across_kinds(self):
        for seed in (7, 101):
            immediate = _observe("immediate", seed)
            epoch = _observe("epoch", seed)
            assert epoch["pending"] == 0  # drain really quiesced
            assert immediate["fingerprint"] == epoch["fingerprint"]
            assert immediate["footprint_lines"] == epoch["footprint_lines"]
            assert immediate["footprint_bytes"] == epoch["footprint_bytes"]
            assert immediate["refcounts"] == epoch["refcounts"]

    def test_strict_audits_clean_under_both_kinds(self):
        for kind in KINDS:
            report = _observe(kind)["audit"]
            assert report.ok, (kind, report.failures)


class TestFuzzTraceIndependence:
    def test_episode_traces_match_across_kinds(self):
        for seed in (3, 44):
            results = {
                kind: run_episode(seed, EpisodeConfig(
                    memory=MemoryConfig(reclaim_kind=kind)))
                for kind in KINDS}
            for kind, result in results.items():
                assert result.ok, (kind, result.failures)
            assert results["immediate"].trace == results["epoch"].trace

    def test_epoch_episode_actually_deferred(self):
        result = run_episode(5, EpisodeConfig(
            memory=MemoryConfig(reclaim_kind="epoch")))
        assert result.ok, result.failures
        assert result.reclaim["kind"] == "epoch"
        assert result.reclaim["deferred_total"] > 0


class TestHistoryIndependence:
    def test_hmap_hi_under_epoch_reclaim(self):
        cfg = HIConfig(schedules=6, ops=32,
                       memory=MemoryConfig(reclaim_kind="epoch"))
        verdict = verify_structure(11, "hmap", cfg)
        assert verdict.ok, verdict.failures

    def test_fingerprints_reclaim_kind_independent(self):
        fps = {}
        for kind in KINDS:
            cfg = HIConfig(schedules=2, ops=32,
                           memory=MemoryConfig(reclaim_kind=kind))
            fps[kind] = verify_structure(11, "hmap", cfg).fingerprints
        assert fps["immediate"] == fps["epoch"]


class TestPersistence:
    def test_image_quiesces_and_roundtrips(self):
        machine = Machine(MachineConfig(
            memory=MemoryConfig(reclaim_kind="epoch")))
        kvp = _churn(machine, seed=23)
        store = machine.mem.store
        # park dead subtrees in the deferral queue, then image
        vsid = machine.create_segment([0xAB0000 | w for w in range(96)])
        machine.drop_segment(vsid)
        assert store.reclaimer.pending() > 0
        image = machine_image(machine)
        # imaging quiesced: deferred-dead lines never serialize
        assert store.reclaimer.pending() == 0
        assert len(image["lines"]) == machine.footprint_lines()
        assert image["config"]["reclaim_kind"] == "epoch"

        restored = restore_machine(image)
        rstore = restored.mem.store
        assert rstore.reclaimer is not None
        assert restored.footprint_lines() == machine.footprint_lines()
        assert restored.segment_fingerprint(kvp.vsid) \
            == machine.segment_fingerprint(kvp.vsid)
        assert audit_machine(restored, strict=True).ok
        # the recycled-overflow free list survives the roundtrip
        assert rstore.slots.free_overflow == store.slots.free_overflow
