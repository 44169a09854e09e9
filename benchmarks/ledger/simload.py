"""The ``sim-paper`` workload: paper-profile experiment runners in a
fresh subprocess, headline numbers checked against the golden file.

The work is fixed (the six runners, once each per pass, one pass for
every ``PASS_SECONDS`` of ``--seconds``), not clocked: the golden
comparison needs every runner's complete output, and a simulator
speed-up must leave every one of those numbers identical. The numbers
are *simulated* and seed-independent (the runners fix their own seeds);
only the seconds are host time, at reference-host speed (hostspeed.py).
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from hostspeed import HostSpeed
from tcpload import HERE, OUT, SPAWN_S, BenchError, child_env, first_line
from workloads import Sizes

RUNNERS = ("table1", "figure6", "figure7", "table2_figure8", "figure9",
           "figure10")
TINY_RUNNERS = ("table1",)
GOLDEN = HERE / "golden" / "sim-paper.json"
#: what one pass takes on the reference host at the commit that defined
#: the benchmark; ``--seconds`` buys one pass for each of these
PASS_SECONDS = 20
#: a pass that has not finished by now has hung
PASS_S = 150.0


def _pass(names, speed: HostSpeed) -> Dict:
    """Spawn ``sim_main.py``; reference-host seconds until it is
    imported and ready, then (when ``names`` is non-empty) its report."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "sim.stderr", "w+b") as stderr:
        speed.open()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "sim_main.py"), *names],
            stdout=subprocess.PIPE, stderr=stderr, env=child_env())
        try:
            ready = first_line(proc, SPAWN_S)
            setup_s = (time.perf_counter() - t0) * speed.scale()
            body, _ = proc.communicate(timeout=PASS_S)
        except subprocess.TimeoutExpired:
            body = b""
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if ready.strip() != b"ready" or proc.returncode != 0:
            stderr.seek(0)
            raise BenchError(
                "sim pass failed (exit %s); stderr:\n%s" % (
                    proc.returncode,
                    stderr.read().decode("utf-8", "replace")[-4000:]))
    report = json.loads(body) if names else {}
    report["setup_s"] = setup_s
    return report


def check_golden(headline: Dict[str, Dict]) -> List[str]:
    """Every headline number of every runner that ran, against the
    golden file: one entry per mismatch (exact comparison — these are
    simulated, so a correct change of host code moves none of them)."""
    golden = json.loads(GOLDEN.read_text())["headline"]
    wrong = []
    for runner, values in headline.items():
        expected = golden.get(runner, {})
        for key in sorted(set(values) | set(expected)):
            if values.get(key) != expected.get(key):
                wrong.append("%s.%s: got %r, golden %r" % (
                    runner, key, values.get(key), expected.get(key)))
    return wrong


def run_sim(sizes: Sizes, seconds: float, setups: int = 1) -> Dict:
    """One run of ``sim-paper``: raw measurements for :mod:`run`. With
    more than one pass, every time is the median over passes."""
    names = TINY_RUNNERS if sizes.tiny else RUNNERS
    speed = HostSpeed()
    setup_s = [_pass((), speed)["setup_s"] for _ in range(setups - 1)]
    passes = [_pass(names, speed)
              for _ in range(max(1, round(seconds / PASS_SECONDS)))]
    mismatches = [line for p in passes
                  for line in check_golden(p["headline"])]
    report = {key: {name: statistics.median(p[key][name] for p in passes)
                    for name in names}
              for key in ("runner_s", "runner_cpu_s")}
    report.update({
        "headline": passes[0]["headline"], "mismatches": mismatches,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "setup_s": setup_s + [p["setup_s"] for p in passes],
        "reference_loop_s": speed.samples + [
            x for p in passes for x in p["reference_loop_s"]],
        "attempted": sum(len(values) for p in passes
                         for values in p["headline"].values()),
        "failed": len(mismatches),
    })
    return report
