"""CI and ``scripts/reproduce_all.sh`` name only things that exist.

Nobody building this repo can run the workflow, so a reference to a
deleted file or subcommand would otherwise surface only on a CI runner.
Plain regexes over the two files: no YAML dependency.
"""

import pathlib
import re

import pytest

from repro.cli.main import build_parser

ROOT = pathlib.Path(__file__).parent.parent
SOURCES = (".github/workflows/ci.yml", "scripts/reproduce_all.sh")

#: runs in CI's ``ledger`` job (a wall-clock ratio), not a paper output
NOT_A_PAPER_BENCH = "test_bench_obs_overhead.py"


def read(name):
    return (ROOT / name).read_text()


@pytest.mark.parametrize("name", SOURCES)
def test_named_paths_exist(name):
    paths = set(re.findall(
        r"\b(?:tests|benchmarks|scripts)/[\w./-]*\.(?:py|sh)\b", read(name)))
    assert paths, "no path recognised in %s" % name
    assert [p for p in sorted(paths) if not (ROOT / p).exists()] == []


def test_invoked_subcommands_are_registered():
    invoked = set()
    for name in SOURCES:
        invoked |= set(re.findall(r"repro\.cli\s+([a-z][\w-]*)", read(name)))
    assert "fuzz" in invoked
    parser = build_parser()
    for sub in sorted(invoked):
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args([sub, "--help"])
        assert exit_info.value.code == 0, "repro.cli %s" % sub


def test_both_files_run_every_paper_bench():
    on_disk = {p.name for p in (ROOT / "benchmarks").glob("test_bench_*.py")}
    assert NOT_A_PAPER_BENCH in on_disk
    paper = on_disk - {NOT_A_PAPER_BENCH}
    for name in SOURCES:
        named = set(re.findall(r"\btest_bench_\w+\.py\b", read(name)))
        assert named - {NOT_A_PAPER_BENCH} == paper, name
