"""A fault-injected fuzz episode on a store whose every bucket spills.

The seed-deterministic trace of an episode served from spilled buckets
(lookups resolved by fingerprint over ways and overflow lines) is the
one the overflow-chain store produced: how a lookup finds resident
content never leaks into observable serving behaviour."""

import hashlib

from repro.testing.faults import COMMIT_STALL, CONN_RESET
from repro.testing.fuzz import EpisodeConfig, run_episode
from tests.dedup_model import SPILLED


def _spilled_cfg():
    return EpisodeConfig(
        memory=SPILLED,
        clients=4,
        ops_per_client=48,
        key_space=24,               # enough distinct content to spill
        rates={CONN_RESET: 0.06, COMMIT_STALL: 0.5},
    )


def test_episode_trace_is_index_independent():
    """The seed-deterministic trace and verdict are the ones the
    overflow-chain store produced (sha256 of the trace's ``repr``,
    recorded from its last commit, 2f10719, which printed no state
    check; re-recorded when the header line lost its ``batch_limit=4``
    field, the one line that changed)."""
    result = run_episode(99, _spilled_cfg())
    assert result.ok, result.failures
    assert "state=ok" in result.trace
    trace = [line for line in result.trace if line != "state=ok"]
    assert hashlib.sha256(repr(trace).encode()).hexdigest() == (
        "f9f881963c3baf43a134d894855b71db5b4dee61f203b1ff39b1976ad799c1a5")
    assert result.fired.get(CONN_RESET, 0) == 2
