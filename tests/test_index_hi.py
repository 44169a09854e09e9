"""Index-kind invariance: the lookup-by-content index must be a pure
implementation detail. Seeded churn lands on bit-identical store state
under ``legacy`` and ``cuckoo``, and the history-independence harness
produces identical fingerprints under either kind — including while the
cuckoo table resizes online mid-schedule."""

import random

import pytest

from repro.memory.dedup_store import DedupStore
from repro.memory.line import make_leaf
from repro.params import MemoryConfig
from repro.testing.hi import HIConfig, verify_structure


def _cfg(kind):
    # 4 buckets x 2 ways: every bucket spills at once, so the cuckoo
    # store serves (and resizes) through its index for the whole run
    return MemoryConfig(num_buckets=4, data_ways=2, index_kind=kind,
                        index_buckets=8)


def _churn(store: DedupStore, seed: int, steps: int = 2500):
    """Seeded install/dup/dealloc churn; trace depends only on seed."""
    rng = random.Random(seed)
    held = []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.55 or not held:
            i = rng.randrange(600)  # small pool -> frequent dedup hits
            line = make_leaf((i + 1, (i * 2654435761 + 7)
                              & ((1 << 64) - 1)), 2)
            plid, _created = store.lookup(line)
            held.append(plid)
        else:
            store.decref(held.pop(rng.randrange(len(held))))
    return held


@pytest.mark.parametrize("seed", [11, 4242])
def test_seeded_churn_identical_store_state_across_kinds(seed):
    legacy = DedupStore(_cfg("legacy"))
    cuckoo = DedupStore(_cfg("cuckoo"))
    held_l = _churn(legacy, seed)
    held_c = _churn(cuckoo, seed)
    assert held_l == held_c, "PLID assignment depends on index kind"
    assert legacy._lines == cuckoo._lines
    assert legacy._refcounts == cuckoo._refcounts
    assert legacy.footprint_bytes() == cuckoo.footprint_bytes()
    assert legacy.index_failures() == []
    assert cuckoo.index_failures() == []
    # the tiny initial table must have resized under this much churn
    assert cuckoo.index.stats.resizes_completed >= 1
    # drain to zero on both: reclamation is index-independent too
    for plid in held_l:
        legacy.decref(plid)
    for plid in held_c:
        cuckoo.decref(plid)
    assert legacy.footprint_lines() == cuckoo.footprint_lines() == 0
    assert len(cuckoo.index) == 0
    assert cuckoo.index_failures() == []


@pytest.mark.parametrize("structure", ["hmap", "hsorted"])
def test_hi_fingerprints_identical_across_index_kinds(structure):
    """The HI harness observes canonical roots/fingerprints only — they
    must match between index kinds, with the cuckoo machines resizing
    online from a deliberately tiny table during the schedules."""
    seed = 20260808
    base = dict(schedules=6, keys=10, ops=28)
    legacy = verify_structure(seed, structure,
                              HIConfig(memory=_cfg("legacy"), **base))
    cuckoo = verify_structure(seed, structure,
                              HIConfig(memory=_cfg("cuckoo"), **base))
    assert legacy.ok, legacy.failures
    assert cuckoo.ok, cuckoo.failures
    assert legacy.fingerprints == cuckoo.fingerprints
    assert legacy.schedules == cuckoo.schedules
