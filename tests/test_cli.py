"""Tests for the command-line interface."""

import io
import json
import os
import pathlib
import re
import signal
import socket
import subprocess
import sys
import time

import pytest

import repro
from repro.cli.main import build_parser, main


class TestExperimentsCommand:
    def test_list(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "figure10" in out

    def test_unknown_name_rejected(self, capsys):
        assert main(["experiments", "nonsense"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_one(self, capsys):
        assert main(["experiments", "section511"]) == 0
        out = capsys.readouterr().out
        assert "Section 5.1.1" in out
        assert "0.04" in out

    def test_out_directory(self, tmp_path, capsys):
        assert main(["experiments", "section511",
                     "--out", str(tmp_path)]) == 0
        written = (tmp_path / "section511.txt").read_text()
        assert "merge latency" in written


class TestDemoCommand:
    def test_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "root compare: True" in out
        assert "snapshot" in out


class TestBenchCommand:
    """``repro bench`` is retired: ``benchmarks/ledger`` is the benchmark."""

    def test_parser_rejects_unknown_target(self, capsys):
        parser = build_parser()
        for argv in (["bench"], ["bench", "hotpath"], ["bench", "reclaim"],
                     ["bench", "cluster"], ["bench", "scale"],
                     ["bench", "aggregate"], ["bench", "adaptive"],
                     ["bench", "dedup-index"]):
            with pytest.raises(SystemExit) as exit_info:
                parser.parse_args(argv)
            assert exit_info.value.code == 2
            assert "invalid choice: 'bench'" in capsys.readouterr().err
        assert "bench" not in parser.format_help()


class TestMemcachedCommand:
    def test_protocol_session(self, capsys, monkeypatch):
        script = "set k 0 0 5\nhello\nget k\ndelete k\nget k\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(script))
        assert main(["memcached"]) == 0
        out = capsys.readouterr().out
        assert "STORED" in out
        assert "VALUE k 0 5" in out
        assert "hello" in out
        assert "DELETED" in out

    def test_quota_flag(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("get x\n"))
        assert main(["memcached", "--quota", "4096"]) == 0
        assert "END" in capsys.readouterr().out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestJsonMetrics:
    def test_json_output(self, capsys):
        assert main(["experiments", "section511", "--json"]) == 0
        import json
        payload = json.loads(capsys.readouterr().out)
        assert "section511" in payload
        assert "map_update_critical_ns" in payload["section511"]

    def test_metrics_file_written(self, tmp_path, capsys):
        assert main(["experiments", "section511", "--out",
                     str(tmp_path)]) == 0
        import json
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["section511"]["total_dag_levels"] > 0


class TestCheckpointCommand:
    def test_save_then_load_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "machine.json.gz")
        assert main(["checkpoint", "save", path]) == 0
        assert "saved %s" % path in capsys.readouterr().out
        assert main(["checkpoint", "load", path]) == 0
        out = capsys.readouterr().out
        assert "audit ok" in out
        # the fresh machine it fell back to has the default geometry
        from repro.core.persistence import load_machine
        from repro.params import MemoryConfig
        machine, _extra = load_machine(path)
        assert machine.config.memory == MemoryConfig()

    def test_save_copies_a_source_checkpoint(self, tmp_path, capsys):
        from repro import Machine
        from repro.core.persistence import save_machine
        src = str(tmp_path / "src.json")
        dst = str(tmp_path / "dst.json.gz")
        machine = Machine()
        machine.create_segment(list(range(64)))
        save_machine(machine, src,
                          extra={"replication_streams": {"0": 1}})
        assert main(["checkpoint", "save", dst, "--source", src]) == 0
        capsys.readouterr()
        assert main(["checkpoint", "load", dst]) == 0
        out = capsys.readouterr().out
        assert "audit ok" in out and "replication streams" in out

    def test_load_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["checkpoint", "load",
                     str(tmp_path / "absent.json")]) == 1
        assert "cannot load" in capsys.readouterr().err


class TestMetricsCommand:
    def _server(self, follower=False):
        """A serving front on a thread: a one-shard leader, or (with
        ``follower``) a follower's front with no leader to reach."""
        import asyncio
        import threading

        from repro.net.server import MemcachedServer
        from repro.replication import FollowerRouter, ReplicationFollower

        started = threading.Event()
        box = {}

        def run():
            async def go():
                if follower:
                    replica = ReplicationFollower("127.0.0.1", 1,
                                                  reconnect_delay=5.0)
                    server = MemcachedServer(router=FollowerRouter(
                        replica, "127.0.0.1", 1))
                else:
                    server = MemcachedServer(port=0, shard_count=1)
                await server.start()
                box["port"] = server.port
                box["stop"] = asyncio.Event()
                box["loop"] = asyncio.get_running_loop()
                started.set()
                await box["stop"].wait()
                await server.shutdown()
                if follower:
                    await replica.stop()

            asyncio.run(go())

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        started.wait(5)
        return box, thread

    def test_scrapes_prometheus_exposition(self, capsys):
        from repro.obs.registry import parse_exposition, sample

        box, thread = self._server()
        try:
            assert main(["metrics", "--port", str(box["port"])]) == 0
            out = capsys.readouterr().out
            parsed = parse_exposition(out)
            assert sample(parsed, "repro_server_shards") == 1
            assert ("repro_dram_accesses_total",
                    (("category", "lookups"),)) in parsed
        finally:
            box["loop"].call_soon_threadsafe(box["stop"].set)
            thread.join(5)

    def test_json_format(self, capsys):
        import json

        box, thread = self._server()
        try:
            assert main(["metrics", "--port", str(box["port"]),
                         "--format", "json"]) == 0
            snap = json.loads(capsys.readouterr().out)
            assert snap["shards"] == 1
        finally:
            box["loop"].call_soon_threadsafe(box["stop"].set)
            thread.join(5)

    def test_follower_front_serves_both_formats(self, capsys):
        import json

        from repro.obs.registry import parse_exposition, sample

        box, thread = self._server(follower=True)
        try:
            assert main(["metrics", "--port", str(box["port"])]) == 0
            parsed = parse_exposition(capsys.readouterr().out)
            # the scrape itself is the front's first connection
            assert sample(parsed, "repro_server_connections_opened") == 1
            assert sample(parsed, "repro_replication_root_advances") == 0
            assert main(["metrics", "--port", str(box["port"]),
                         "--format", "json"]) == 0
            snap = json.loads(capsys.readouterr().out)
            assert snap["connections_opened"] == 2
            assert snap["ops_by_command"] == {"stats": 1}
            assert snap["replication_root_advances"] == 0
            assert "latency" in snap and "footprint_bytes" in snap
        finally:
            box["loop"].call_soon_threadsafe(box["stop"].set)
            thread.join(5)

    def test_unreachable_server_fails_cleanly(self, capsys):
        # a port from the ephemeral range with nothing listening
        assert main(["metrics", "--port", "1", "--timeout", "0.5"]) == 1
        assert "cannot reach" in capsys.readouterr().err


class TestTraceCommand:
    def _trace_file(self, tmp_path):
        from repro.obs.trace import StepClock, TraceRecorder

        rec = TraceRecorder(clock=StepClock())
        a = rec.begin("request", conn=1, command="set")
        b = rec.begin("commit_batch", parent=a, shard=0)
        rec.end(b)
        rec.end(a)
        path = tmp_path / "trace.jsonl"
        rec.write_jsonl(path)
        return str(path)

    def test_renders_span_tree(self, tmp_path, capsys):
        assert main(["trace", self._trace_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "request" in out and "commit_batch" in out

    def test_chrome_export(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "chrome.json"
        assert main(["trace", self._trace_file(tmp_path),
                     "--chrome", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert len(doc["traceEvents"]) == 2

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "absent.jsonl")]) == 1
        assert "cannot load" in capsys.readouterr().err


class TestFuzzProfiles:
    def test_parser_accepts_both_profiles(self):
        parser = build_parser()
        assert parser.parse_args(["fuzz"]).profile == "serving"
        args = parser.parse_args(["fuzz", "--profile", "replication"])
        assert args.profile == "replication"

    def test_parser_rejects_unknown_profile(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--profile", "bogus"])

    @pytest.mark.parametrize("command", ("fuzz", "serve"))
    def test_commit_mode_flag_is_gone(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--commit-mode", "bulk"])

    def test_index_kind_flag_is_gone_and_reclaim_defaults_to_serving(self):
        from repro.params import MemoryConfig
        from repro.testing.fuzz import EpisodeConfig
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fuzz", "--index-kind", "cuckoo"])
        # no machine-kind flag is left, for the index or reclamation
        args = parser.parse_args(["fuzz"])
        assert [name for name in vars(args) if name.endswith("_kind")] == []
        # the machine under test has the default geometry
        assert EpisodeConfig().memory == MemoryConfig()

    def test_replication_profile_runs_an_episode(self, capsys):
        assert main(["fuzz", "--profile", "replication", "--episodes", "1",
                     "--seed", "0", "--ops", "15"]) == 0
        out = capsys.readouterr().out
        assert "replication fuzz episodes=1 ok=1 failed=0" in out

    def test_clients_flag_reaches_the_cluster_profile(self, capsys):
        headers = []
        for clients in ("1", "4"):
            assert main(["fuzz", "--profile", "cluster", "--episodes", "1",
                         "--seed", "0", "--ops", "8",
                         "--clients", clients]) == 0
            headers.append(capsys.readouterr().out.splitlines()[0])
        assert headers[0].startswith("cluster episode seed=0 clients=1 ")
        assert headers[1].startswith("cluster episode seed=0 clients=4 ")


class TestHiAndScaleCli:
    def test_parser_accepts_new_profiles_and_target(self):
        parser = build_parser()
        assert parser.parse_args(["fuzz", "--profile", "hi"]).profile \
            == "hi"
        args = parser.parse_args(["fuzz", "--profile", "expiry"])
        assert args.profile == "expiry"

    def test_hi_profile_runs_an_episode(self, capsys):
        assert main(["fuzz", "--profile", "hi", "--episodes", "1",
                     "--seed", "0", "--schedules", "3"]) == 0
        out = capsys.readouterr().out
        assert "hi episodes=1 ok=1 failed=0" in out

    def test_expiry_profile_runs_an_episode(self, capsys):
        assert main(["fuzz", "--profile", "expiry", "--episodes", "1",
                     "--seed", "0", "--ops", "12"]) == 0
        out = capsys.readouterr().out
        assert "fuzz episodes=1 ok=1 failed=0" in out


class TestModuleEntryPoints:
    @staticmethod
    def _python(*args):
        src = pathlib.Path(repro.__file__).parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + env.get("PYTHONPATH", "").split(os.pathsep))
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning"] + list(args),
            capture_output=True, text=True, timeout=120, env=env)
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stderr == ""
        return result.stdout

    @pytest.mark.parametrize("module", ["repro.cli", "repro.cli.main"])
    def test_dash_m_imports_nothing_twice(self, module):
        """``python -m`` must not find its target already imported by the
        package (runpy's "found in sys.modules" RuntimeWarning)."""
        assert "usage: repro" in self._python("-m", module, "--help")

    def test_package_level_main_is_lazy_and_stays_callable(self):
        out = self._python("-c", (
            "import sys, repro.cli\n"
            "assert 'repro.cli.main' not in sys.modules\n"
            "for _ in range(2):\n"  # loading the submodule must not shadow it
            "    assert repro.cli.main(['experiments', '--list']) == 0\n"))
        assert out.count("table1") == 2


class TestReplicateCommands:
    """``serve --replicate-port`` + ``replicate-follower`` as two
    processes."""

    @staticmethod
    def _spawn(*args):
        src = pathlib.Path(repro.__file__).parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + env.get("PYTHONPATH", "").split(os.pathsep))
        # SIGINT stops the process even when this runner was started
        # with it ignored (a background job inherits SIG_IGN)
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli"] + list(args),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=env, preexec_fn=lambda: signal.signal(signal.SIGINT,
                                                      signal.SIG_DFL))

    @staticmethod
    def _ports(proc):
        """The ports named in the process's startup banner, in order."""
        banner = proc.stderr.readline()
        assert banner.startswith(("# repro serve:",
                                  "# repro replicate-follower:")), banner
        return [int(port) for port in re.findall(r":(\d+)", banner)]

    @staticmethod
    def _request(port, payload):
        with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
            s.sendall(payload)
            return s.makefile("rb").readline()

    @staticmethod
    def _interrupt(proc):
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        (line,) = [line for line in err.splitlines()
                   if line.startswith("# replication: ")]
        return json.loads(line[len("# replication: "):])

    def test_write_through_the_follower_replicates_back(self):
        leader = self._spawn("serve", "--port", "0",
                             "--replicate-port", "0", "--shards", "2")
        procs = [leader]
        try:
            port, repl_port = self._ports(leader)
            follower = self._spawn(
                "replicate-follower", "--leader-port", str(repl_port),
                "--upstream-port", str(port), "--port", "0")
            procs.append(follower)
            follower_port = self._ports(follower)[0]
            assert self._request(follower_port,
                                 b"set k 0 0 5\r\nhello\r\n") == b"STORED\r\n"
            deadline = time.monotonic() + 10.0
            while self._request(follower_port, b"get k\r\n") \
                    != b"VALUE k 0 5\r\n":
                assert time.monotonic() < deadline, "never replicated"
                time.sleep(0.02)
            time.sleep(0.2)  # the last ACK reaches the leader
            follower_metrics = self._interrupt(follower)
            leader_metrics = self._interrupt(leader)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
        assert follower_metrics["root_advances"] >= 1
        assert leader_metrics["acks"] == follower_metrics["root_advances"]

    def test_a_replicating_leader_refuses_a_quota(self, capsys):
        """A follower serves plain maps, so it would hand out
        ``ManagedMemcached``'s deadline header as value bytes."""
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--replicate-port", "0", "--quota", "1000"])
        assert exc.value.code == 2
        assert "--replicate-port" in capsys.readouterr().err
