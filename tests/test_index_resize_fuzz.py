"""Online cuckoo resize under live fault-injected fuzz episodes.

The tentpole acceptance clause: starting the serving stack on a
deliberately tiny cuckoo table, a fault-injected episode (commit stalls
raised well above the default rate) must drive at least one online
resize to completion with **zero failed operations** and strict audits
clean — the resize protocol never blocks or corrupts serving."""

import hashlib

import pytest

from repro.testing.faults import COMMIT_STALL, CONN_RESET
from repro.testing.fuzz import EpisodeConfig, run_episode
from tests.dedup_model import SPILLED


def _resize_cfg():
    return EpisodeConfig(
        memory=SPILLED,
        clients=4,
        ops_per_client=48,
        key_space=24,               # enough distinct content to grow
        rates={CONN_RESET: 0.06, COMMIT_STALL: 0.5},
    )


@pytest.mark.parametrize("seed", [7, 1001])
def test_online_resize_completes_during_live_episode(seed):
    result = run_episode(seed, _resize_cfg())
    assert result.ok, result.failures
    assert result.failures == []
    cuckoo = result.index["cuckoo"]
    assert cuckoo["resizes_started"] >= 1, \
        "episode never stressed the table into a resize"
    assert cuckoo["resizes_completed"] >= 1, \
        "online resize did not complete during the live episode"
    assert cuckoo["migrated_entries"] > 0
    assert cuckoo["entries"] > 0


def test_episode_trace_is_index_independent():
    """The seed-deterministic trace and verdict are the ones the
    overflow-chain store produced (sha256 of the trace's ``repr``,
    recorded from its last commit, 2f10719) — the index never leaks
    into observable serving behaviour (resize/migration progress lives
    outside the trace)."""
    result = run_episode(99, _resize_cfg())
    assert result.ok, result.failures
    assert hashlib.sha256(repr(result.trace).encode()).hexdigest() == (
        "81334e5d37062ad0eb3237230414415a33592704aa10159ec9457b8283a5c1b4")
    assert result.fired.get(CONN_RESET, 0) == 2
    assert result.index["cuckoo"]["resizes_completed"] >= 1
