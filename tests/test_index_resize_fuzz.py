"""Online cuckoo resize under live fault-injected fuzz episodes.

The tentpole acceptance clause: starting the serving stack on a
deliberately tiny cuckoo table, a fault-injected episode (commit stalls
raised well above the default rate) must drive at least one online
resize to completion with **zero failed operations** and strict audits
clean — the resize protocol never blocks or corrupts serving."""

import pytest

from repro.params import MemoryConfig
from repro.testing.faults import COMMIT_STALL, CONN_RESET
from repro.testing.fuzz import EpisodeConfig, run_episode


def _memory(kind):
    # a 4 x 2-way store spills every bucket into the index at once, and
    # 8 index buckets x 4 slots resize fast
    return MemoryConfig(num_buckets=4, data_ways=2, index_kind=kind,
                        index_buckets=8)


def _resize_cfg(**over):
    base = dict(
        memory=_memory("cuckoo"),
        clients=4,
        ops_per_client=48,
        key_space=24,               # enough distinct content to grow
        rates={CONN_RESET: 0.06, COMMIT_STALL: 0.5},
    )
    base.update(over)
    return EpisodeConfig(**base)


@pytest.mark.parametrize("seed", [7, 1001])
def test_online_resize_completes_during_live_episode(seed):
    result = run_episode(seed, _resize_cfg())
    assert result.ok, result.failures
    assert result.failures == []
    snap = result.index
    assert snap["kind"] == "cuckoo"
    cuckoo = snap["cuckoo"]
    assert cuckoo["resizes_started"] >= 1, \
        "episode never stressed the table into a resize"
    assert cuckoo["resizes_completed"] >= 1, \
        "online resize did not complete during the live episode"
    assert cuckoo["migrated_entries"] > 0
    assert cuckoo["entries"] > 0


def test_episode_trace_is_index_independent():
    """Same seed, both kinds: the seed-deterministic trace and verdict
    must be identical — the index never leaks into observable serving
    behaviour (resize/migration progress lives outside the trace)."""
    seed = 99
    legacy = run_episode(seed, _resize_cfg(memory=_memory("legacy")))
    cuckoo = run_episode(seed, _resize_cfg())
    assert legacy.ok and cuckoo.ok
    assert legacy.trace == cuckoo.trace
    assert legacy.fired.get(CONN_RESET, 0) == cuckoo.fired.get(
        CONN_RESET, 0)
    assert legacy.index["kind"] == "legacy"
    assert cuckoo.index["kind"] == "cuckoo"
