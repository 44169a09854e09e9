"""Held-versus-unheld differentials: *when* lines are freed must be
invisible.

Holding a store (``DedupStore.hold_reclaim``, as a shard router and a
replication follower do) changes *when* dead subtrees are walked, never
*what* the machine contains once quiesced. Each test here runs the
same deterministic workload on an unheld store, which frees at every
outermost release, and on a held one, which frees when its queue is
drained, and demands identical post-quiesce observables — segment
fingerprints, footprints, the refcount multiset — plus clean strict
audits, fuzz traces that do not depend on the router's drain budget,
history-independence on a held store, and persistence images that
exclude deferred-dead lines.
"""

import random

from repro.core.machine import Machine
from repro.core.persistence import machine_image, restore_machine
from repro.net import router
from repro.params import MemoryConfig, WORD_MASK
from repro.structures import HMap
from repro.testing.auditors import audit_machine
from repro.testing.fuzz import EpisodeConfig, run_episode
from repro.testing.hi import (HIConfig, _execute, generate_workload,
                              verify_structure)

HOLDS = (False, True)


def _machine(held):
    machine = Machine()
    if held:
        machine.mem.store.hold_reclaim()
    return machine


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
    # interleave a bounded drain like the router's batch boundary
    machine.mem.store.reclaim_advance(64)
    return kvp


def _observe(held, seed=7):
    machine = _machine(held)
    kvp = _churn(machine, seed=seed)
    machine.drain()  # quiesces the reclaimer before any observation
    store = machine.mem.store
    return {
        "fingerprint": machine.segment_fingerprint(kvp.vsid).hex(),
        "footprint_lines": machine.footprint_lines(),
        "footprint_bytes": store.footprint_bytes(),
        "refcounts": sorted(store.refcount(p) for p in store.live_plids()),
        "audit": audit_machine(machine, strict=True),
        "pending": store.reclaimer.pending(),
    }


class TestPostQuiesceIdentity:
    def test_identical_observables_across_kinds(self):
        for seed in (7, 101):
            unheld = _observe(False, seed)
            held = _observe(True, seed)
            assert held["pending"] == 0  # drain really quiesced
            assert unheld["fingerprint"] == held["fingerprint"]
            assert unheld["footprint_lines"] == held["footprint_lines"]
            assert unheld["footprint_bytes"] == held["footprint_bytes"]
            assert unheld["refcounts"] == held["refcounts"]

    def test_strict_audits_clean_under_both_kinds(self):
        for held in HOLDS:
            report = _observe(held)["audit"]
            assert report.ok, (held, report.failures)


class TestFuzzTraceIndependence:
    def test_episode_traces_match_across_kinds(self, monkeypatch):
        # the router drains its held store RECLAIM_BUDGET lines per
        # batch; starved to one, dead lines pile up and a tiny store
        # drains them under pressure instead
        tiny = EpisodeConfig(memory=MemoryConfig(num_buckets=4,
                                                 data_ways=2))
        for seed in (3, 44):
            prompt = run_episode(seed, tiny)
            with monkeypatch.context() as patch:
                patch.setattr(router, "RECLAIM_BUDGET", 1)
                starved = run_episode(seed, tiny)
            for result in (prompt, starved):
                assert result.ok, result.failures
            assert starved.reclaim["pressure_drains"] > 0
            assert prompt.trace == starved.trace

    def test_epoch_episode_actually_deferred(self):
        result = run_episode(5, EpisodeConfig())
        assert result.ok, result.failures
        assert result.reclaim["deferred_total"] > 0
        assert result.reclaim["epochs_advanced"] > 0


class TestHistoryIndependence:
    def test_hmap_hi_under_epoch_reclaim(self):
        # odd schedules run on a held store
        verdict = verify_structure(11, "hmap", HIConfig(schedules=6, ops=32))
        assert verdict.ok, verdict.failures

    def test_fingerprints_hold_independent(self):
        cfg = HIConfig(ops=32)
        ops = generate_workload(11, "hmap", cfg)
        unheld, held = (_execute("hmap", ops, "sequential", odd, 0, cfg)
                        for odd in (False, True))
        assert unheld.fingerprints
        assert held.divergence(unheld) is None
        assert unheld.teardown_clean and held.teardown_clean


class TestPersistence:
    def test_image_quiesces_and_roundtrips(self):
        machine = _machine(held=True)
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

        restored = restore_machine(image)
        rstore = restored.mem.store
        assert rstore.reclaimer.holds == 0  # its next owner holds it
        assert restored.footprint_lines() == machine.footprint_lines()
        assert restored.segment_fingerprint(kvp.vsid) \
            == machine.segment_fingerprint(kvp.vsid)
        assert audit_machine(restored, strict=True).ok
        # the recycled-overflow free list survives the roundtrip
        assert rstore.slots.free_overflow == store.slots.free_overflow
