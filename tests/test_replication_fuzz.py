"""The replication fuzz profile: the serving episode over a faulty link.

The recording clients drive pipelined mixed traffic at a leader while
the replication link suffers injected connection resets and read
splits; after the read-back the link heals. Every episode must be
linearizable, converge stream for stream, audit clean on both machines,
and hold exactly the read-back map on both. Episode traces are a pure
function of the seed so failures replay exactly.
"""

from repro.testing import fuzz
from repro.testing.fuzz import (
    EpisodeResult,
    replication_config,
    run_episode,
    run_fuzz,
)


class TestReplicationEpisodes:
    def test_faulted_episodes_converge(self):
        report = run_fuzz(episodes=2, seed=7, cfg=replication_config())
        assert report.ok, report.render(verbose=True)
        for result in report.episodes:
            for verdict in ("converged=yes", "linearizable=yes",
                            "audits=ok", "state=ok"):
                assert verdict in result.trace

    def test_trace_is_pure_function_of_seed(self):
        cfg = replication_config(ops_per_client=12)
        first = run_episode(123, cfg)
        second = run_episode(123, cfg)
        assert first.trace == second.trace
        assert first.ok and second.ok

    def test_distinct_seeds_give_distinct_scripts(self):
        cfg = replication_config(ops_per_client=12)
        assert run_episode(1, cfg).trace != run_episode(2, cfg).trace


class TestReport:
    def test_failed_seed_names_reproduction_command(self, monkeypatch):
        async def diverged(seed, cfg, trace_recorder=None):
            return EpisodeResult(
                seed=seed, ok=False,
                trace=["replication episode seed=%d" % seed,
                       "result=FAILED"],
                failures=["follower never converged"])

        monkeypatch.setattr(fuzz, "_run_episode", diverged)
        report = run_fuzz(episodes=1, seed=41, cfg=replication_config())
        rendered = report.render()
        assert not report.ok and report.failed_seeds == [41]
        assert "repro fuzz --profile replication --episodes 1 --seed 41" \
            in rendered
        assert "follower never converged" in rendered

    def test_passing_report_is_compact(self):
        cfg = replication_config(ops_per_client=8, shards=1)
        report = run_fuzz(episodes=1, seed=5, cfg=cfg)
        assert report.ok
        header, summary = report.render().splitlines()
        assert header.startswith("replication episode seed=5 ")
        assert header.endswith(" result=ok")
        assert summary == "replication fuzz episodes=1 ok=1 failed=0"
