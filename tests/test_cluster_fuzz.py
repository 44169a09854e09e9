"""Cluster fuzz harness: seeded leader-kill episodes.

One real episode runs end to end (kill mid-script, repair, readback,
audits); the rest pins the determinism contract — script, victim and
kill point are pure functions of the seed, so a failure's printed seed
replays the identical episode.
"""

from repro.cluster.fuzz import (
    ClusterEpisodeConfig,
    _build_script,
    kill_plan,
    run_episode,
    run_fuzz,
)
from repro.testing.fuzz import episode_seed, script_digest


class TestDeterminism:
    def test_script_and_kill_plan_are_pure_in_the_seed(self):
        cfg = ClusterEpisodeConfig()
        for seed in (0, 1, 12345):
            a, b = _build_script(seed, cfg), _build_script(seed, cfg)
            assert a == b
            assert script_digest(a) == script_digest(b)
            assert kill_plan(seed, cfg) == kill_plan(seed, cfg)
        assert _build_script(0, cfg) != _build_script(1, cfg)

    def test_kill_lands_in_the_middle_half(self):
        cfg = ClusterEpisodeConfig(ops=80)
        for seed in range(50):
            victim, kill_at = kill_plan(seed, cfg)
            assert victim in ("lead-0", "lead-1")
            assert cfg.ops // 4 <= kill_at < cfg.ops // 4 + cfg.ops // 2

    def test_episode_zero_replays_the_run_seed(self):
        label = "cluster-episode"
        assert episode_seed(7, 0, label) == 7
        assert episode_seed(7, 1, label) != 7
        assert episode_seed(7, 1, label) == episode_seed(7, 1, label)
        # each profile derives its own later episodes
        assert episode_seed(7, 1, label) != episode_seed(7, 1)


class TestEpisodes:
    def test_one_episode_survives_a_leader_kill(self):
        cfg = ClusterEpisodeConfig(ops=40, key_space=8)
        result = run_episode(3, cfg)
        assert result.ok, "\n".join(result.trace + result.failures)
        assert any(line.startswith("repaired=yes")
                   for line in result.trace)
        assert result.metrics["cluster"]["promotions"] == 1
        assert "result=ok" in result.trace[-1]

    def test_report_render_names_the_reproducing_seed(self):
        cfg = ClusterEpisodeConfig(ops=30, key_space=6)
        report = run_fuzz(episodes=1, seed=5, cfg=cfg)
        text = report.render(verbose=True)
        assert report.ok, text
        assert "episodes=1 ok=1 failed=0" in text
        assert "seed=5" in text
