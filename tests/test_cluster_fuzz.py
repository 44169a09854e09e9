"""Cluster fuzz profile: the serving episode across a leader kill.

Real episodes run end to end (kill between two seeded batches, repair,
convergence, read-back, linearizability, audits, state check); the rest
pins the determinism contract — scripts, victim and kill point are pure
functions of the seed, so a failure's printed seed replays the
identical episode.
"""

from repro.testing.faults import FaultPlan
from repro.testing.fuzz import (
    _Cluster,
    cluster_config,
    episode_seed,
    kill_plan,
    run_episode,
    run_fuzz,
    script_digest,
)


def cluster_scripts(seed, cfg):
    return _Cluster(seed, cfg, FaultPlan(seed)).scripts()


class TestDeterminism:
    def test_script_and_kill_plan_are_pure_in_the_seed(self):
        cfg = cluster_config()
        for seed in (0, 1, 12345):
            a, b = cluster_scripts(seed, cfg), cluster_scripts(seed, cfg)
            assert a == b
            assert [script_digest(op for batch in s for op in batch)
                    for s in a.values()] == \
                [script_digest(op for batch in s for op in batch)
                 for s in b.values()]
            assert kill_plan(seed, cfg) == kill_plan(seed, cfg)
        assert cluster_scripts(0, cfg) != cluster_scripts(1, cfg)

    def test_each_client_writes_only_keys_its_slot_owns(self):
        cfg = cluster_config(clients=4)
        topology = _Cluster(0, cfg, FaultPlan(0))
        scripts = topology.scripts()
        assert sorted(scripts) == [0, 1, 2, 3]
        for cid, script in scripts.items():
            assert {topology.ring.slot_for(key)
                    for batch in script for _, key in batch} \
                == {"slot-%d" % (cid % 2)}

    def test_a_slot_that_owns_no_key_gets_no_client(self):
        # k00 is slot-1's, so of clients 0, 1 and 2 only 1 is bound to
        # a slot that owns a key
        assert list(cluster_scripts(0, cluster_config(key_space=1))) == [1]

    def test_kill_lands_in_the_middle_half(self):
        cfg = cluster_config(ops_per_client=80)
        batches = 80 // cfg.pipeline_depth
        for seed in range(50):
            victim, kill_at = kill_plan(seed, cfg)
            assert victim in ("lead-0", "lead-1")
            assert batches // 4 <= kill_at < batches // 4 + batches // 2

    def test_episode_zero_replays_the_run_seed(self):
        label = "cluster-episode"
        assert episode_seed(7, 0, label) == 7
        assert episode_seed(7, 1, label) != 7
        assert episode_seed(7, 1, label) == episode_seed(7, 1, label)
        # each profile derives its own later episodes
        assert episode_seed(7, 1, label) != episode_seed(7, 1)


class TestEpisodes:
    def test_one_episode_survives_a_leader_kill(self):
        result = run_episode(3, cluster_config())
        assert result.ok, "\n".join(result.trace + result.failures)
        for verdict in ("repaired=yes", "promotions=1", "converged=yes",
                        "linearizable=yes", "audits=ok", "state=ok"):
            assert verdict in result.trace
        assert result.trace[-1] == "result=ok"

    def test_trace_is_pure_function_of_seed(self):
        cfg = cluster_config(ops_per_client=12)
        assert run_episode(4, cfg).trace == run_episode(4, cfg).trace

    def test_report_render_names_the_reproducing_seed(self):
        cfg = cluster_config(ops_per_client=12, key_space=6)
        report = run_fuzz(episodes=1, seed=5, cfg=cfg)
        text = report.render(verbose=True)
        assert report.ok, text
        assert "cluster fuzz episodes=1 ok=1 failed=0" in text
        assert "seed=5" in text
