"""CI, ``scripts/reproduce_all.sh`` and the docs name only things that
exist.

Nobody building this repo can run the workflow, so a reference to a
deleted file or subcommand would otherwise surface only on a CI runner;
a deleted flag in a doc would surface only when a reader pastes it.
Plain regexes over the files: no YAML or Markdown dependency.
"""

import argparse
import ast
import pathlib
import re

import pytest

import repro.memory
import repro.obs
import repro.replication
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
    assert ("fuzz", " --profile replication --episodes 5 --seed 0 --verbose") \
        in _invocations(".github/workflows/ci.yml")
    assert any(sub == "serve" and "--replicate-port" in rest
               for sub, rest in _invocations("docs/api.md"))
    assert _subparser(build_parser(), ["cluster", "serve", "--leaders"]) \
        ._option_string_actions.keys() >= {"--leaders", "--followers"}
    assert _subparser(build_parser(), ["import", "Machine"]) is None


def test_every_fuzz_run_in_ci_is_diffed_against_its_tracked_output():
    """CI tees each ``repro fuzz`` run into ``tests/fuzz_out/<profile>.txt``
    and fails on any byte of difference, so every tracked file belongs
    to exactly one run and every run to one file."""
    ci = read(".github/workflows/ci.yml")
    runs = re.findall(r"repro\.cli fuzz\b([^|]*)\| tee (\S+)\n", ci)
    assert len(runs) == len(re.findall(r"repro\.cli fuzz\b", ci)) == 5
    teed = []
    for flags, path in runs:
        profile = re.search(r"--profile (\w+)", flags)
        assert path == "tests/fuzz_out/%s.txt" % (
            profile.group(1) if profile else "serving")
        teed.append(path)
    tracked = sorted("tests/fuzz_out/" + p.name
                     for p in (ROOT / "tests/fuzz_out").iterdir())
    assert sorted(teed) == tracked
    assert "run: git diff --exit-code tests/fuzz_out/\n" in ci


def test_both_files_run_every_paper_bench():
    on_disk = {p.name for p in (ROOT / "benchmarks").glob("test_bench_*.py")}
    assert NOT_A_PAPER_BENCH in on_disk
    paper = on_disk - {NOT_A_PAPER_BENCH}
    for name in SOURCES:
        named = set(re.findall(r"\btest_bench_\w+\.py\b", read(name)))
        assert named - {NOT_A_PAPER_BENCH} == paper, name


def _serving_suites():
    """The test files CI's ``-X dev`` serving step runs, per pattern."""
    step = re.search(r"python -X dev -m pytest(.*?)\n\s*(?:#|- name:)",
                     read(".github/workflows/ci.yml"), re.S).group(1)
    return {pattern: sorted(p.name for p in ROOT.glob(pattern))
            for pattern in re.findall(r"\btests/[\w*.-]+\.py\b", step)}


def test_serving_step_names_suites_that_exist():
    suites = _serving_suites()
    assert [p for p, files in sorted(suites.items()) if not files] == []
    named = {name for files in suites.values() for name in files}
    # the live-server suites whose asyncio warnings must be errors
    assert {"test_net_server.py", "test_obs_e2e.py",
            "test_hmap_read_table.py"} <= named


#: ``from tests.x import ...``, ``import tests.x``, ``from tests import x, y``
_TEST_IMPORT = re.compile(r"^[ \t]*(?:from tests\.(\w+) import|import tests\.(\w+)"
                          r"|from tests import (?:\(([\w,\s]+)\)|([\w, ]+)))",
                          re.M)


def test_every_reference_is_imported_by_a_test():
    """A ``tests/reference_*.py`` oracle is kept only to hold production
    code to it; one that no test module imports checks nothing."""
    tests = ROOT / "tests"
    references = {p.stem for p in tests.glob("reference_*.py")}
    assert {"reference_cache", "reference_conventional"} <= references
    imported = set()
    for path in tests.glob("test_*.py"):
        for dotted, plain, *listed in _TEST_IMPORT.findall(path.read_text()):
            imported |= {dotted, plain} | {
                name.strip() for name in ",".join(listed).split(",")}
    assert sorted(references - imported) == []


def _documented(package: str):
    """The names the first column of ``docs/api.md``'s table under
    ``## `package``` starts with."""
    section = re.search(r"^## `%s`\n(.*?)^## " % re.escape(package),
                        read("docs/api.md"), re.S | re.M).group(1)
    return set(re.findall(r"^\| `([A-Za-z_][\w.]*)", section, re.M))


def test_the_obs_exports_are_the_documented_ones():
    """``docs/api.md``'s ``repro.obs`` table names exactly what the
    package exports: a deleted name cannot stay documented, and an
    export cannot go undocumented."""
    assert _documented("repro.obs") - {"repro.obs.adapters"} \
        == set(repro.obs.__all__)


def test_the_replication_exports_are_the_documented_ones():
    """The same for ``repro.replication``'s table."""
    assert _documented("repro.replication") \
        == set(repro.replication.__all__)


def test_the_memory_exports_are_the_documented_ones():
    """The same for ``repro.memory``'s table, the word model with it."""
    assert _documented("repro.memory") == set(repro.memory.__all__)


#: the map's slot format: only ``repro.structures.hmap`` may use these
SLOT_FORMAT = {"SLOT_BASE", "COUNT_OFFSET", "_stage"}


def _slot_format_uses(path):
    """Slot-format names ``path`` imports from ``repro.structures.hmap``
    or reads as an attribute, with their line numbers."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) \
                and node.module == "repro.structures.hmap":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in SLOT_FORMAT]
        elif isinstance(node, ast.Attribute) and node.attr in SLOT_FORMAT:
            found.append((node.lineno, node.attr))
    return found


def test_only_the_map_knows_its_slot_format():
    """Every write to a map slot is staged by ``HMap``, and every read of
    the slots goes through it: no other module imports or reaches for
    its layout constants or its staging routine."""
    owner = ROOT / "src/repro/structures/hmap.py"
    uses = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        found = _slot_format_uses(path) if path != owner else []
        if found:
            uses[str(path.relative_to(ROOT))] = found
    assert uses == {}


#: a line's count and its free: only ``repro.memory.dedup_store`` reads these
FREE_PATH = {"_refcounts", "_deallocate", "_reclaim_one"}


def test_only_the_store_frees_lines():
    """Freeing is the memory's own state machine behind ``decref``
    (section 3.1): no other module reads a store's counts or calls its
    free routines, so the drain, the free list and the counts stay one
    structure."""
    owner = ROOT / "src/repro/memory/dedup_store.py"
    uses = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path == owner:
            continue
        found = [(node.lineno, node.attr)
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.Attribute)
                 and node.attr in FREE_PATH]
        if found:
            uses[str(path.relative_to(ROOT))] = found
    assert uses == {}


#: knobs with one production value: each is a constant in the module
#: that reads it, and a test that needs another value sets the instance
#: attribute after construction. The ``(signature, parameter)`` pairs are
#: the knobs' only parameters: the ring's, which its topology document
#: carries, and two that each have two production values.
KNOBS = {"vnodes", "lag_window", "heartbeat_interval", "reconnect_delay",
         "verify_timeout", "max_payload", "hash_buckets"}
KNOB_PARAMETERS = {("HashRing.__init__", "vnodes"),
                   ("ReplicationLeader.__init__", "heartbeat_interval"),
                   ("ReplicationFollower.__init__", "reconnect_delay")}
#: signatures that build what they once took as a parameter
BUILT_NOT_PASSED = {"Cluster.__init__": {"registry"},
                    "TopologyManager.__init__": {"recorder"},
                    "ShardRouter.__init__": {"registry", "memory"},
                    "ShardRouter._front": {"registry"}}


def _signatures_and_fields():
    """``(qualified name, parameter)`` for every ``src/`` function and
    ``(class name, field)`` for every annotated class attribute."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                found.update((child.name, stmt.target.id)
                             for stmt in child.body
                             if isinstance(stmt, ast.AnnAssign)
                             and isinstance(stmt.target, ast.Name))
                visit(child, child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                found.update(
                    (prefix + child.name, arg.arg)
                    for arg in args.posonlyargs + args.args
                    + args.kwonlyargs)
                visit(child, prefix + child.name + ".")

    for path in sorted((ROOT / "src").rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), "")
    return found


def test_single_valued_knobs_are_constants():
    found = _signatures_and_fields()
    assert {(name, param) for name, param in found
            if param in KNOBS} == KNOB_PARAMETERS
    assert {(name, param) for name, param in found
            if param in BUILT_NOT_PASSED.get(name, ())} == set()
    # a cluster's config is the fleet's shape, nothing it tunes
    assert {param for name, param in found if name == "ClusterConfig"} \
        == {"leaders", "followers", "shards", "seed", "host"}
