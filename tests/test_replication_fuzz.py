"""The replication fuzz profile: fault-injected episodes must converge.

The harness drives a seeded write script at a leader while the
replication link suffers injected connection resets and read splits,
heals the link, and then requires exact per-stream fingerprint
convergence plus strict audits of both machines. Episode traces are a
pure function of the seed so failures replay exactly.
"""

from repro.replication import fuzz
from repro.replication.fuzz import (
    ReplicationEpisodeConfig,
    ReplicationEpisodeResult,
    run_episode,
    run_fuzz,
)


class TestReplicationEpisodes:
    def test_faulted_episodes_converge(self):
        cfg = ReplicationEpisodeConfig(ops=40, shards=2)
        report = run_fuzz(episodes=2, seed=7, cfg=cfg)
        assert report.ok, report.render(verbose=True)
        for result in report.episodes:
            assert "converged=yes" in result.trace
            assert "audits=ok" in result.trace

    def test_trace_is_pure_function_of_seed(self):
        cfg = ReplicationEpisodeConfig(ops=30, shards=2)
        first = run_episode(123, cfg)
        second = run_episode(123, cfg)
        assert first.trace == second.trace
        assert first.ok and second.ok

    def test_distinct_seeds_give_distinct_scripts(self):
        cfg = ReplicationEpisodeConfig(ops=30, shards=2)
        assert run_episode(1, cfg).trace != run_episode(2, cfg).trace


class TestReport:
    def test_failed_seed_names_reproduction_command(self, monkeypatch):
        async def diverged(seed, cfg):
            return ReplicationEpisodeResult(
                seed=seed, ok=False,
                trace=["episode seed=%d" % seed, "result=FAILED"],
                failures=["follower never converged"])

        monkeypatch.setattr(fuzz, "_run_episode", diverged)
        report = run_fuzz(episodes=1, seed=41)
        rendered = report.render()
        assert not report.ok and report.failed_seeds == [41]
        assert "repro fuzz --profile replication --episodes 1 --seed 41" \
            in rendered
        assert "follower never converged" in rendered

    def test_passing_report_is_compact(self):
        cfg = ReplicationEpisodeConfig(ops=10, shards=1)
        report = run_fuzz(episodes=1, seed=5, cfg=cfg)
        assert report.ok
        assert "failed=0" in report.render()
