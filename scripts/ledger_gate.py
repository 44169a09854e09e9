#!/usr/bin/env python3
"""Gate on the ledger's exact counters, not on time.

Two legs, each one ledger run in the driver's form whose JSON line is
read back. The second,

    python3 benchmarks/ledger/run.py --workload sim-paper --seconds 10 --trace 0

regenerates the paper's tables and figures once and must be correct:
every headline number equal to ``benchmarks/ledger/golden/sim-paper.json``
and no failed operation. The first,

    python3 benchmarks/ledger/run.py --workload tcp-read-hot --seconds 1 --trace 1

is traced and fails unless

* the run is correct (no failed operation);
* the spans the per-layer cut of a get hangs on still resolve and are
  still entered (``segments.dag.get.self_us`` and
  ``memory.system.get.self_us`` above zero — a renamed or bypassed entry
  point folds its time into the layer above and reads 0);
* a hot get costs no modeled DRAM access in any category;
* the call counts a read-path or lookup-path change would move equal the
  literals below. They are exact — one client, a fixed stream, no clock —
  so a difference is a change in what the program does, never noise.

A change that moves one on purpose updates the literal here and says so
in CHANGES.md.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = [sys.executable, "benchmarks/ledger/run.py", "--workload"]

#: recorded by the PR that made a slot pair one descent (19.4 and 2
#: before it); lookups per insert have stood since the single-descent
#: rebuild; lookups per overwrite went 12.1925 -> 13.1925 when the
#: memo's line table, which answered one lookup per overwrite, went
EXACT = {
    "memory.read.calls_per_get": 12.2,
    "segments.dag.read_word.calls_per_get": 1.0,
    "memory.lookup.calls_per_insert": 13.075,
    "memory.lookup.calls_per_overwrite": 13.1925,
}
POSITIVE = ("segments.dag.get.self_us", "memory.system.get.self_us")
DRAM_PER_GET = tuple("memory.dram.%s_per_get" % category for category in
                     ("reads", "writes", "lookups", "dealloc", "refcount"))


def incorrect(report: dict) -> list:
    """Why ``report`` (the ledger's JSON line) is not a correct run."""
    if report.get("correct") and not report.get("failed"):
        return []
    return ["run not correct: %s failed of %s attempted"
            % (report.get("failed"), report.get("attempted"))]


def problems(report: dict) -> list:
    """Why ``report`` (the traced leg's JSON line) does not pass."""
    found = incorrect(report)
    metrics = {name: entry["value"]
               for name, entry in report.get("metrics", {}).items()}
    for name in POSITIVE + DRAM_PER_GET + tuple(EXACT):
        if name not in metrics:
            found.append("%s: not reported" % name)
    for name in POSITIVE:
        if name in metrics and not metrics[name] > 0:
            found.append("%s = %r: its span no longer resolves or is no "
                         "longer entered" % (name, metrics[name]))
    for name in DRAM_PER_GET:
        if metrics.get(name, 0) != 0:
            found.append("%s = %r, want 0" % (name, metrics[name]))
    for name, want in EXACT.items():
        if name in metrics and not math.isclose(metrics[name], want,
                                                rel_tol=0, abs_tol=1e-9):
            found.append("%s = %r, want %r" % (name, metrics[name], want))
    return found


#: (workload, --seconds, --trace, what to check on its JSON line)
LEGS = (("tcp-read-hot", "1", "1", problems),
        ("sim-paper", "10", "0", incorrect))


def leg(workload: str, seconds: str, trace: str, check) -> list:
    """Run one ledger workload; ``check``'s findings on its JSON line."""
    proc = subprocess.run(
        RUN + [workload, "--seconds", seconds, "--trace", trace],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stderr)
        return ["run.py exited %d" % proc.returncode]
    return check(json.loads(lines[-1]))


def main() -> int:
    found = ["%s: %s" % (args[0], finding)
             for args in LEGS for finding in leg(*args)]
    for line in found:
        print("ledger_gate: " + line)
    if not found:
        print("ledger_gate: ok (%d exact counters, %d spans, %d DRAM "
              "categories; sim-paper equals its golden file)"
              % (len(EXACT), len(POSITIVE), len(DRAM_PER_GET)))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
