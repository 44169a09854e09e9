"""CI, ``scripts/reproduce_all.sh`` and the docs name only things that
exist.

Nobody building this repo can run the workflow, so a reference to a
deleted file or subcommand would otherwise surface only on a CI runner;
a deleted flag in a doc would surface only when a reader pastes it.
Plain regexes over the files: no YAML or Markdown dependency.
"""

import argparse
import pathlib
import re

import pytest

from repro.cli.main import build_parser

ROOT = pathlib.Path(__file__).parent.parent
SOURCES = (".github/workflows/ci.yml", "scripts/reproduce_all.sh")
#: checked inside their fenced code blocks only; docs/performance.md's
#: retirement prose names deleted commands on purpose and is exempt
DOCS = ("README.md", "docs/api.md", "docs/testing.md",
        "docs/observability.md", "docs/architecture.md",
        ".claude/skills/verify/SKILL.md")

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


def _invocations(name):
    """``(subcommand, rest of the command)`` per ``repro <sub>`` /
    ``repro.cli <sub>`` in ``name``; a line that starts with a flag
    continues the command above it (a folded YAML scalar, a ``\\``)."""
    text = read(name)
    if name in DOCS:
        text = "\n".join(re.findall(r"^```[^\n]*\n(.*?)^```", text,
                                    re.S | re.M))
    text = re.sub(r"[ \t]*\\?\n[ \t]+(?=--)", " ", text)
    return re.findall(
        r"(?<!from )\brepro(?:\.cli)?[ \t]+([a-z][\w-]*)([^\n]*)", text)


def _subparser(parser, words):
    """Descend from ``parser`` through as many of ``words`` as name a
    (nested) subcommand; None when the first does not."""
    found = None
    for word in words:
        choices = next((a.choices for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)), {})
        if word not in choices:
            break
        parser = found = choices[word]
    return found


@pytest.mark.parametrize("name", SOURCES + DOCS)
def test_named_commands_and_flags_are_the_parsers(name):
    unknown = []
    root = build_parser()
    for sub, rest in _invocations(name):
        parser = _subparser(root, [sub] + rest.split())
        if parser is None:
            unknown.append("repro %s" % sub)
            continue
        unknown.extend(
            "repro %s %s" % (sub, flag)
            for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", rest)
            if flag not in parser._option_string_actions)
    assert unknown == []


def test_the_flag_check_sees_the_commands_it_should():
    assert ("fuzz", " --profile replication --episodes 5 --seed 0") \
        in _invocations(".github/workflows/ci.yml")
    assert any(sub == "loadgen" and "--pipeline" in rest
               for sub, rest in _invocations("docs/api.md"))
    assert _subparser(build_parser(), ["cluster", "serve", "--leaders"]) \
        ._option_string_actions.keys() >= {"--leaders", "--followers"}
    assert _subparser(build_parser(), ["import", "Machine"]) is None


def test_both_files_run_every_paper_bench():
    on_disk = {p.name for p in (ROOT / "benchmarks").glob("test_bench_*.py")}
    assert NOT_A_PAPER_BENCH in on_disk
    paper = on_disk - {NOT_A_PAPER_BENCH}
    for name in SOURCES:
        named = set(re.findall(r"\btest_bench_\w+\.py\b", read(name)))
        assert named - {NOT_A_PAPER_BENCH} == paper, name
