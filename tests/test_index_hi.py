"""The lookup-by-content index is a pure implementation detail. Seeded
churn through a store whose every bucket is spilled agrees with a dict
model operation by operation, and the history-independence harness
produces the fingerprints the overflow-chain store produced."""

import random

import pytest

from repro.memory.dedup_store import DedupStore
from repro.memory.line import make_leaf
from repro.testing.hi import HIConfig, verify_structure
from tests.dedup_model import SPILLED, ModelledStore


def _churn(store: ModelledStore, seed: int, steps: int = 2500):
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
    """Was a comparison with the overflow-chain store; the same script
    now runs against the dict model."""
    store = DedupStore(SPILLED)
    modelled = ModelledStore(store)
    held = _churn(modelled, seed)
    assert store.footprint_bytes() \
        == len(set(held)) * store.config.line_bytes
    assert store.counters.overflow_allocations > 0
    modelled.release_all(held)


#: Fingerprints the overflow-chain store's machines produced for these
#: schedules (recorded from its last commit, 2f10719).
HI_FINGERPRINTS = {
    "hmap": ("a03d7198b30dfd329abc3256efed6fac",),
    "hsorted": ("b549840ebdb7a6265e0c08fcacbe3cac",
                "36cc7de6a9ac2446aa9d5dbdfb0471e2"),
}


@pytest.mark.parametrize("structure", ["hmap", "hsorted"])
def test_hi_fingerprints_identical_across_index_kinds(structure):
    """The HI harness observes canonical roots/fingerprints only, so
    they are the recorded ones, with every bucket of the machines
    spilled during the schedules."""
    verdict = verify_structure(
        20260808, structure,
        HIConfig(memory=SPILLED, schedules=6, keys=10, ops=28))
    assert verdict.ok, verdict.failures
    assert verdict.fingerprints == HI_FINGERPRINTS[structure]
    assert verdict.schedules == 6
