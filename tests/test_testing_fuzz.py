"""Tests for the seeded fuzz episodes: reproducibility and sensitivity."""

import asyncio

import pytest

from repro.cli.main import main
from repro.net.router import ShardRouter
from repro.structures.hmap import HMap
from repro.testing.faults import COMMIT_STALL, CONN_RESET, FLUSH_DELAY
from repro.testing.fuzz import (
    EpisodeConfig,
    cluster_config,
    episode_seed,
    replication_config,
    run_episode,
    run_fuzz,
)

#: A fault mix that exercises read-after-write hard: every write stalls
#: before it lands, flushes are delayed, and some connections are reset
#: mid-commit.
ADVERSARIAL = {CONN_RESET: 0.12, COMMIT_STALL: 1.0, FLUSH_DELAY: 0.5}


class TestReproducibility:
    def test_fixed_seed_is_bit_reproducible(self):
        # the ISSUE acceptance criterion: same seed -> same episode trace
        a = run_fuzz(episodes=3, seed=0)
        b = run_fuzz(episodes=3, seed=0)
        assert a.ok and b.ok
        assert a.render() == b.render()
        assert a.render(verbose=True) == b.render(verbose=True)
        for ea, eb in zip(a.episodes, b.episodes):
            assert ea.trace == eb.trace

    def test_failure_seed_replays_as_episode_zero(self):
        # a printed failure seed reproduces via --episodes 1 --seed S
        assert episode_seed(12345, 0) == 12345
        assert episode_seed(12345, 1) != 12345
        # later-episode seeds are themselves deterministic
        assert episode_seed(12345, 7) == episode_seed(12345, 7)

    def test_default_episodes_pass(self):
        report = run_fuzz(episodes=2, seed=3)
        assert report.ok
        assert report.failed_seeds == []
        assert "fuzz episodes=2 ok=2 failed=0" in report.render()


class TestCheckerSensitivity:
    def test_reset_mid_commit_with_broken_fence_is_caught(self, monkeypatch):
        """An episode that injects connection resets mid-commit passes
        on correct code, and the linearizability checker catches it once
        read-after-write is deliberately broken: a landing of sets
        answers ``STORED`` at once but lands a loop turn later, so the
        connection's next request can read past it."""
        cfg = EpisodeConfig(rates=ADVERSARIAL)
        healthy = run_episode(1, cfg)
        assert healthy.ok, healthy.failures
        # the episode really did reset connections mid-commit
        assert healthy.fired.get(CONN_RESET, 0) > 0

        land = ShardRouter.land

        def acknowledge_before_landing(self, shard, writes):
            if any(frame.command != b"set" for frame, _ in writes):
                return land(self, shard, writes)
            asyncio.get_running_loop().call_soon(land, self, shard, writes)
            return [b"STORED\r\n"] * len(writes)

        monkeypatch.setattr(ShardRouter, "land", acknowledge_before_landing)
        broken = run_episode(1, cfg)
        assert not broken.ok
        assert any("linearizability violation" in f
                   for f in broken.failures)

    @pytest.mark.parametrize("config, seed", [
        (replication_config, 0), (cluster_config, 1)])
    def test_a_set_replayed_onto_another_key_is_caught(
            self, monkeypatch, config, seed):
        """Every one-pair store through ``HMap.put_many`` that finds
        another key present also writes its value there: the checker
        must name such a key on the replicated and the cluster topology
        alike. Only a one-pair put is replayed; batches and deletes are
        left alone. (Every write of a fault-injected episode lands on
        its own, so the first such store comes early and is often
        overwritten unseen: each one is replayed.)"""
        put_many = HMap.put_many
        replayed = []

        def replaying_put_many(self, items):
            flags = put_many(self, items)
            if len(items) != 1 or items[0][1] is None:
                return flags
            (key, value), = items
            others = [k for k in self.keys() if k != key]
            if others:
                replayed.append(others[0])
                put_many(self, [(others[0], value)])
            return flags

        monkeypatch.setattr(HMap, "put_many", replaying_put_many)
        result = run_episode(seed, config())
        assert replayed and not result.ok
        assert "linearizable=NO" in result.trace
        assert any(f.startswith("linearizability violation on key %r" % key)
                   for key in replayed
                   for f in result.failures), result.failures

    def test_a_stray_key_fails_the_state_check_alone(self, monkeypatch):
        """A key no client wrote, put into one shard after the drain, is
        invisible to the read-back — only the state check sees it."""
        drain = ShardRouter.drain

        async def drain_then_stray(self):
            await drain(self)
            self.servers[0].kvp.put(b"zz", b"stray")

        monkeypatch.setattr(ShardRouter, "drain", drain_then_stray)
        result = run_episode(2, EpisodeConfig())
        assert "linearizable=yes" in result.trace
        assert "state=FAILED" in result.trace
        assert not result.ok
        assert any("(b'zz', b'stray')" in f for f in result.failures)

    def test_stalled_commits_pass_with_working_fence(self):
        # forcing every batch to stall must not fail a correct server
        cfg = EpisodeConfig(rates={COMMIT_STALL: 1.0, CONN_RESET: 0.0})
        result = run_episode(5, cfg)
        assert result.ok, result.failures
        assert result.fired.get(COMMIT_STALL, 0) > 0


class TestFuzzCli:
    def test_cli_subcommand_runs_and_reports(self, capsys):
        code = main(["fuzz", "--episodes", "1", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fuzz episodes=1 ok=1 failed=0" in out

    def test_cli_output_reproducible(self, capsys):
        main(["fuzz", "--episodes", "2", "--seed", "9", "--verbose"])
        first = capsys.readouterr().out
        main(["fuzz", "--episodes", "2", "--seed", "9", "--verbose"])
        second = capsys.readouterr().out
        assert first == second
        assert "plan seed=9" in first
