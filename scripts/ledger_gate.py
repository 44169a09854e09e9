#!/usr/bin/env python3
"""Gate on the ledger's exact counters, not on time.

Runs the traced ledger once, in the driver's form,

    python3 benchmarks/ledger/run.py --workload tcp-read-hot --seconds 1 --trace 1

reads the JSON line it prints and fails unless

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
COMMAND = [sys.executable, "benchmarks/ledger/run.py", "--workload",
           "tcp-read-hot", "--seconds", "1", "--trace", "1"]

#: recorded by the PR that made a slot pair one descent (19.4 and 2
#: before it); lookups per insert have stood since the single-descent
#: rebuild
EXACT = {
    "memory.read.calls_per_get": 12.2,
    "segments.dag.read_word.calls_per_get": 1.0,
    "memory.lookup.calls_per_insert": 13.075,
}
POSITIVE = ("segments.dag.get.self_us", "memory.system.get.self_us")
DRAM_PER_GET = tuple("memory.dram.%s_per_get" % category for category in
                     ("reads", "writes", "lookups", "dealloc", "refcount"))


def problems(report: dict) -> list:
    """Why ``report`` (the ledger's JSON line) does not pass."""
    found = []
    if not report.get("correct") or report.get("failed"):
        found.append("run not correct: %s failed of %s attempted"
                     % (report.get("failed"), report.get("attempted")))
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


def main() -> int:
    proc = subprocess.run(COMMAND, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stderr)
        print("ledger_gate: %s exited %d" % (" ".join(COMMAND[1:]),
                                             proc.returncode))
        return 1
    found = problems(json.loads(lines[-1]))
    for line in found:
        print("ledger_gate: " + line)
    if not found:
        print("ledger_gate: ok (%d exact counters, %d spans, %d DRAM "
              "categories)" % (len(EXACT), len(POSITIVE), len(DRAM_PER_GET)))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
