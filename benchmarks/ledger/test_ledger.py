"""Self-test of the benchmark (not tier-1):

    PYTHONPATH=src python -m pytest benchmarks/ledger -q

Runs every workload at ``TINY`` size, which no command-line path can
reach, so a tiny number can never be reported as a result.
"""

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from ledger import run_ledger  # noqa: E402
from tcpload import CONNECTIONS, BenchError, drive, run_tcp, set_up  # noqa: E402
from workloads import TCP_WORKLOADS, TINY, stream_sha256  # noqa: E402

SPEC = run.SPEC
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
SECONDS = 0.3


@pytest.fixture(scope="module")
def ledgers():
    return [run_ledger(run.DEFAULT_SEED, TINY) for _ in range(2)]


def test_names_are_well_formed_and_used_once():
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in SPEC[section]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_every_workload_emits_every_metric(ledgers):
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    computed = set()
    for workload in run.WORKLOADS:
        untraced = run.run_one(workload, 3, SECONDS, False, TINY)
        assert untraced["correct"], untraced["mismatches"]
        assert set(untraced["metrics"]) == end_to_end
        assert all(m["value"] > 0 for m in untraced["metrics"].values())
        traced = run.run_one(workload, 3, SECONDS, True, TINY,
                             ledger=ledgers[0])
        assert traced["correct"]
        assert set(traced["metrics"]) == per_layer
        computed.update(traced["computed"])
    # sim-paper at TINY size skips figure6, whose counter is checked at
    # full size against the golden file
    assert per_layer - computed <= {"sim.modeled_dram_per_req"} | {
        "sim.%s.s" % name for name in ("figure6", "figure7",
                                       "table2_figure8", "figure9",
                                       "figure10")}


def test_same_seed_same_bytes():
    for workload in TCP_WORKLOADS + ("ledger",):
        digests = [stream_sha256(workload, seed, CONNECTIONS, TINY)
                   for seed in (5, 5, 6)]
        assert digests[0] == digests[1] != digests[2]


def test_ledger_counters_repeat_and_ledger_is_credible(ledgers):
    first, second = ledgers
    assert first["failed"] == second["failed"] == 0
    assert first["exact"] == second["exact"]
    assert {k: first["metrics"][k] for k in first["exact"]} \
        == {k: second["metrics"][k] for k in second["exact"]}
    for ledger in ledgers:
        assert not run.credibility(ledger), ledger["boundaries"]
    # the ledger adds up: eight self times make the TCP boundary
    for kind in run.OPS:
        parts = [v for k, v in first["metrics"].items()
                 if k.endswith(".%s.self_us" % kind)]
        assert len(parts) == 8
        assert sum(parts) == pytest.approx(
            first["metrics"]["boundary.tcp.%s.us" % kind])


def test_wrong_oracle_value_is_a_failed_op():
    server, conns, _ = set_up("tcp-read-hot", 3, TINY, HostSpeed())
    try:
        conn = conns[0]
        key = next(iter(conn.oracle))
        conn.oracle[key] = b"not what the server holds"
        conn.start([("get", key, None)])
        drive([conn])
        assert conn.failed == 1
        assert conn.failed / conn.attempted > 0
    finally:
        for conn in conns:
            conn.close()
        server.close()


@pytest.mark.parametrize("script", [
    "import sys; sys.stderr.write('boom'); sys.exit(3)",  # no port
    "import sys; print(1, flush=True); sys.stderr.write('boom')",  # gone
])
def test_dead_server_fails_the_run_with_its_stderr(script):
    with pytest.raises(BenchError, match="boom"):
        run_tcp("tcp-read-hot", 3, SECONDS, TINY,
                argv=[sys.executable, "-c", script])


def _report(value, spread=0.0, counter=7.0):
    cell = {"median": value, "runs": [value], "spread": spread}
    return {"exact": ["memory.footprint.lines"], "workloads": {
        "tcp-read-hot": {
            "end_to_end": {m["name"]: cell for m in SPEC["end_to_end"]},
            "per_layer": {"memory.footprint.lines": counter}}}}


def test_compare_marks_worse_unresolved_and_counter_mismatch(tmp_path,
                                                             capsys):
    def compare(a, b):
        paths = []
        for name, report in (("a.json", a), ("b.json", b)):
            paths.append(tmp_path / name)
            paths[-1].write_text(json.dumps(report))
        code = run.compare(*map(str, paths))
        return code, capsys.readouterr().out

    code, out = compare(_report(10.0), _report(10.0))
    assert code == 0 and " worse" not in out and "MISMATCH" not in out
    # 10 -> 14 is worse for a lower-is-better metric, better for ops_per_s
    code, out = compare(_report(10.0), _report(14.0))
    assert code == 1 and " worse" in out
    code, out = compare(_report(10.0, spread=0.5), _report(14.0))
    assert code == 0 and "unresolved" in out
    code, out = compare(_report(10.0), _report(10.0, counter=8.0))
    assert code == 1 and "MISMATCH" in out
