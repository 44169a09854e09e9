"""TTL expiry in the linearizability spec: dead keys stay dead.

The managed backend expires stores lazily against its logical clock, so
under injected commit stalls a delayed commit could, if the code were
wrong, re-surface a value whose TTL already fired — invisible to the
plain register spec (the miss just linearizes *before* the set). The
TTL-aware spec models expirable registers with a **one-way**
spontaneous transition to empty: a miss after an expirable set is
legal, but any later read observing the dead value again has no valid
linearization and must be flagged.
"""

from repro.cli.main import main
from repro.testing import COMMIT_STALL, expiry_config, fuzz, run_fuzz
from repro.testing.history import Operation, check_history


def op(client, seq, kind, key=b"k", value=None, expect=None, ttl=0,
       invoked=0, completed=0, result=None):
    return Operation(client=client, seq=seq, kind=kind, key=key,
                     value=value, expect=expect, ttl=ttl,
                     invoked=invoked, completed=completed,
                     result=result)


class TestExpirySpec:
    def test_miss_after_expirable_set_is_legal(self):
        history = [
            op(0, 0, "set", value=b"v", ttl=1, invoked=0, completed=1,
               result=("stored",)),
            op(0, 1, "get", invoked=2, completed=3, result=("miss",)),
        ]
        assert check_history(history).ok

    def test_miss_after_permanent_set_is_a_violation(self):
        history = [
            op(0, 0, "set", value=b"v", invoked=0, completed=1,
               result=("stored",)),
            op(0, 1, "get", invoked=2, completed=3, result=("miss",)),
        ]
        report = check_history(history)
        assert not report.ok
        assert report.violations

    def test_expired_key_must_not_resurrect(self):
        # set(ttl) -> observed miss (expired) -> the dead value returns
        history = [
            op(0, 0, "set", value=b"v", ttl=1, invoked=0, completed=1,
               result=("stored",)),
            op(0, 1, "get", invoked=2, completed=3, result=("miss",)),
            op(0, 2, "get", invoked=4, completed=5,
               result=("value", b"v")),
        ]
        report = check_history(history)
        assert not report.ok
        assert any(violation.key == b"k"
                   for violation in report.violations)

    def test_fresh_store_after_expiry_is_legal(self):
        # resurrection via a *recorded* set is exactly what is allowed
        history = [
            op(0, 0, "set", value=b"v", ttl=1, invoked=0, completed=1,
               result=("stored",)),
            op(0, 1, "get", invoked=2, completed=3, result=("miss",)),
            op(0, 2, "set", value=b"v", invoked=4, completed=5,
               result=("stored",)),
            op(0, 3, "get", invoked=6, completed=7,
               result=("value", b"v")),
        ]
        assert check_history(history).ok

    def test_add_succeeds_into_an_expired_slot(self):
        history = [
            op(0, 0, "set", value=b"old", ttl=1, invoked=0, completed=1,
               result=("stored",)),
            op(0, 1, "add", value=b"new", invoked=2, completed=3,
               result=("stored",)),
            op(0, 2, "get", invoked=4, completed=5,
               result=("value", b"new")),
        ]
        assert check_history(history).ok

    def test_add_against_a_permanent_value_must_fail(self):
        history = [
            op(0, 0, "set", value=b"old", invoked=0, completed=1,
               result=("stored",)),
            op(0, 1, "add", value=b"new", invoked=2, completed=3,
               result=("stored",)),
        ]
        assert not check_history(history).ok

    def test_expiry_does_not_excuse_wrong_values(self):
        history = [
            op(0, 0, "set", value=b"v1", ttl=1, invoked=0, completed=1,
               result=("stored",)),
            op(0, 1, "get", invoked=2, completed=3,
               result=("value", b"other")),
        ]
        assert not check_history(history).ok


class TestExpiryProfile:
    def test_config_raises_stall_pressure_on_a_managed_backend(self):
        from repro.apps.memcached.eviction import ManagedMemcached

        cfg = expiry_config()
        assert cfg.ttl_rate > 0
        assert cfg.backend is ManagedMemcached
        assert cfg.rates[COMMIT_STALL] > 0

    def test_profile_actually_plans_ttl_stores(self):
        from repro.testing.fuzz import build_script

        cfg = expiry_config()
        batches = build_script(7, 0, cfg)
        kinds = [kind for batch in batches for kind, _ in batch]
        assert any(kind.startswith("setx") for kind in kinds)

    def test_seeded_episodes_pass_the_ttl_checker(self):
        report = run_fuzz(episodes=2, seed=7, cfg=expiry_config())
        assert report.ok, report.render(verbose=True)

    def test_a_failing_run_reproduces_under_its_profile(
            self, monkeypatch, capsys):
        async def failed(seed, cfg, trace_recorder=None):
            assert cfg.ttl_rate > 0  # the expiry profile's config
            return fuzz.EpisodeResult(
                seed=seed, ok=False,
                trace=["episode seed=%d" % seed, "result=FAILED"],
                failures=["expired key resurrected"])

        monkeypatch.setattr(fuzz, "_run_episode", failed)
        code = main(["fuzz", "--profile", "expiry", "--episodes", "1",
                     "--seed", "23"])
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        # the summary heading is the serving topology's, as
        # tests/fuzz_out/expiry.txt pins it; the reproduce line is not
        assert "fuzz episodes=1 ok=0 failed=1" in out
        assert out[-1] == \
            "reproduce: repro fuzz --profile expiry --episodes 1 --seed 23"
