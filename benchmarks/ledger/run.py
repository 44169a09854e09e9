"""The repo's one benchmark: four workloads, end-to-end metrics with
tracing off, and a traced run whose per-layer costs add up.

    python3 benchmarks/ledger/run.py                  # everything, once
    python3 benchmarks/ledger/run.py --runs 5         # ... medians of 5
    python3 benchmarks/ledger/run.py --compare A.json B.json
    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S \\
        --trace 0|1                                   # one run, JSON line

Metric names, units and regression bounds live in ``BENCHMARK.json`` at
the root of the checkout and nowhere else; this program fills them in.
See README.md beside this file for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit("benchmarks/ledger measures the program in src/ of its own "
             "checkout, and %s has none" % ROOT)
sys.path[:0] = [str(HERE), str(ROOT / "src")]
sys.dont_write_bytecode = True  # as in tcpload.child_env

from ledger import OPS, run_ledger  # noqa: E402
from simload import run_sim  # noqa: E402
from tcpload import OUT, BenchError, percentile, run_tcp  # noqa: E402
from workloads import FULL, TCP_WORKLOADS, Sizes  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3
DEFAULT_SEED = 11
#: the tail percentile that repeats within a bound on this host (p99
#: does not: 11-17 % run to run; it is reported per layer)
END_TO_END_TAIL = 90
#: credibility limits on the traced ledger (see README.md)
MIN_RESIDUAL = -0.05
MAX_OVERHEAD = 1.5


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _percentiles_ms(samples: List[float], prefix: str,
                    tail: int) -> Dict[str, float]:
    """Median and ``tail``-th percentile of ascending ``samples``."""
    if not samples:
        return {}
    return {prefix + "_p50_ms": _ms(percentile(samples, 0.50)),
            "%s_p%d_ms" % (prefix, tail):
                _ms(percentile(samples, tail / 100.0))}


def end_to_end(workload: str, raw: Dict) -> Tuple[Dict[str, float],
                                                  Dict[str, int]]:
    """The metrics a user of the system sees, from one untraced run, and
    how many samples each rests on."""
    values = {"setup_s": statistics.median(raw["setup_s"]),
              "peak_rss_mb": raw["peak_rss_mb"]}
    if workload == "sim-paper":
        # an op is one paper artefact regenerated; the footprint ratio is
        # Table 1's, simulated: mean HICAMP/conventional bytes at LS=16
        latency = sorted(raw["runner_s"].values())
        cpu_s = sum(raw["runner_cpu_s"].values())
        ratios = [1.0 / v for k, v in raw["headline"]["table1"].items()
                  if k.endswith("_ls16")]
        values["stored_bytes_per_user_byte"] = statistics.mean(ratios)
    else:
        latency = sorted(x for v in raw["latency_s"].values() for x in v)
        cpu_s = raw["cpu_s"]
        values["stored_bytes_per_user_byte"] = \
            raw["after"]["footprint_bytes"] / raw["live_bytes"]
    values.update(_percentiles_ms(latency, "op", END_TO_END_TAIL))
    values["ops_per_s"] = len(latency) / _elapsed_s(raw)
    values["cpu_ms_per_op"] = _ms(cpu_s) / len(latency)
    counts = dict.fromkeys(values, len(latency))
    counts.update(setup_s=len(raw["setup_s"]), peak_rss_mb=1,
                  stored_bytes_per_user_byte=1)
    return values, counts


def _elapsed_s(raw: Dict) -> float:
    """Reference-host seconds the timed work took."""
    if "runner_s" in raw:
        return sum(raw["runner_s"].values())
    return raw["elapsed_s"]


def scraped(workload: str, raw: Dict) -> Dict[str, float]:
    """Workload-specific layer metrics: ``stats json``/``stats prom``
    deltas over the timed phase and per-kind client latency for a TCP
    workload, per-runner host seconds for ``sim-paper``. These depend on
    timing (batch composition), so they carry no exactness claim."""
    if workload == "sim-paper":
        values = {"sim.%s.s" % name: s
                  for name, s in raw["runner_s"].items()}
        values["sim.regen_s"] = _elapsed_s(raw)
        values["sim.modeled_dram_per_req"] = raw["headline"].get(
            "figure6", {}).get("modeled_dram_per_req_ls16", 0.0)
        return values
    before, after = raw["before"], raw["after"]

    def delta(*path) -> float:
        a, b = after, before
        for part in path:
            a, b = a.get(part, {}), b.get(part, {})
        return (a or 0) - (b or 0)

    def prom(name: str) -> float:
        return after["prom"].get(name, 0.0) - before["prom"].get(name, 0.0)

    sets = max(1.0, delta("server", "sets"))
    commits = sum(after["commits_by_vsid"].values()) \
        - sum(before["commits_by_vsid"].values())
    memo = {outcome: prom('repro_memo_ops_total{table="line",outcome="%s"}'
                          % outcome) for outcome in ("hit", "miss")}
    dram = sum(prom(name) for name in after["prom"]
               if name.startswith("repro_dram_accesses_total"))
    cuckoo = after["index"].get("cuckoo", {})
    values = {
        "net.router.mean_batch_size":
            commits / max(1.0, delta("commit_batches")),
        "net.router.merge_commits_per_set": delta("merge_commits") / sets,
        "net.router.cas_retries_per_set": delta("cas_retries") / sets,
        "net.adaptive.mode_switches": delta("adaptive", "switches_total"),
        "memory.dram.total_per_op": dram / raw["ops"],
        "memory.reclaim.max_pending_lines":
            after["reclaim"].get("max_pending", 0),
        "memory.index.occupancy": cuckoo.get("occupancy", 0.0),
        "memory.index.resizes": cuckoo.get("resizes_completed", 0),
        "memory.memo.hit_ratio.tcp":
            memo["hit"] / max(1.0, memo["hit"] + memo["miss"]),
    }
    pooled = sorted(x for samples in raw["latency_s"].values()
                    for x in samples)
    values["client.op_p99_ms"] = _ms(percentile(pooled, 0.99))
    for kind in ("set", "get"):
        values.update(_percentiles_ms(raw["latency_s"][kind],
                                      "client." + kind, 99))
    return values


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            sizes: Sizes = FULL, ledger: Optional[Dict] = None) -> Dict:
    """One run of one workload. Untraced: the end-to-end metrics.
    Traced: the ledger (computed here, first, unless handed in) plus the
    workload's own scraped layer metrics — every ``per_layer`` name, 0
    where a metric does not apply to this workload."""
    t0 = time.perf_counter()
    if workload not in WORKLOADS:
        raise SystemExit("unknown workload %r (have: %s)"
                         % (workload, ", ".join(WORKLOADS)))
    if trace and ledger is None:
        ledger = run_ledger(seed, sizes)
    setups = 1 if trace else SETUPS
    if workload in TCP_WORKLOADS:
        raw = run_tcp(workload, seed, seconds, sizes, setups)
    else:
        raw = run_sim(sizes, seconds, setups)
    attempted, failed = raw["attempted"], raw["failed"]
    if trace:
        loops = ledger["reference_loop_s"] + raw["reference_loop_s"]
        computed = dict(ledger["metrics"], **scraped(workload, raw))
        computed["host.reference_loop_ms"] = _ms(statistics.median(loops))
        counts = {"host.reference_loop_ms": len(loops)}
        attempted += ledger["attempted"]
        failed += ledger["failed"]
        section = "per_layer"
    else:
        computed, counts = end_to_end(workload, raw)
        section = "end_to_end"
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    unknown = sorted(set(computed) - set(units))
    if unknown:
        raise KeyError("not in BENCHMARK.json %s: %s" % (section, unknown))
    values = dict.fromkeys(units, 0.0)
    values.update(computed)
    for kind, samples in raw.get("latency_s", {}).items():
        counts["client." + kind] = len(samples)
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
        "computed": sorted(computed), "samples": counts,
        "mismatches": raw.get("mismatches", []),
        "ledger": ledger, "wall_s": time.perf_counter() - t0,
    }


def write_trace(ledger: Dict) -> Path:
    """Spans kept in memory during the run, written out at its end."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "trace.jsonl"
    kinds = ledger["op_kinds"]
    with open(path, "w") as out:
        for index, (name, layer, start, end, parent, op) in \
                enumerate(ledger["spans"]):
            out.write('{"id":%d,"name":"%s","layer":"%s","start_ns":%d,'
                      '"end_ns":%d,"parent":%d,"op":%d,"kind":"%s"}\n'
                      % (index, name, layer, start, end, parent, op,
                         kinds[op]))
    return path


def credibility(ledger: Dict) -> List[str]:
    """Why the traced ledger should not be trusted, if it should not."""
    metrics, problems = ledger["metrics"], []
    for kind in OPS:
        residual = metrics["trace.%s.residual" % kind]
        if residual < MIN_RESIDUAL:
            problems.append("trace.%s.residual %.3f < %.2f: an outer "
                            "boundary measured cheaper than its inner one"
                            % (kind, residual, MIN_RESIDUAL))
    if metrics["trace.overhead_ratio"] > MAX_OVERHEAD:
        problems.append("trace.overhead_ratio %.2f > %.1f: thin "
                        "SPAN_TABLE, innermost first"
                        % (metrics["trace.overhead_ratio"], MAX_OVERHEAD))
    return problems


# ----------------------------------------------------------------------
# the three command-line modes


def single(args) -> int:
    """The driver's contract: one run, one JSON object as the last line."""
    result = run_one(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    if args.trace:
        write_trace(result["ledger"])
    for line in result["mismatches"]:
        print("MISMATCH", line)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def full(args) -> int:
    """Every workload untraced, then the traced run; prints every metric
    by name with its unit and writes ``out/latest.json``."""
    t0 = time.perf_counter()
    nproc = os.cpu_count() or 1
    load_start = os.getloadavg()[0]
    names = [args.workload] if args.workload else WORKLOADS
    seconds = args.seconds or SPEC["run_seconds"]
    report: Dict = {"workloads": {}}
    attempted = failed = 0
    for name in names:
        runs = [run_one(name, args.seed, seconds, False)
                for _ in range(args.runs)]
        entry = report["workloads"][name] = {
            "end_to_end": {}, "samples": runs[-1]["samples"],
            "wall_s": sum(r["wall_s"] for r in runs)}
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "runs": values,
                "median": statistics.median(values),
                "spread": _spread(values)}
            print("%-16s %-28s %14.4f %-6s runs=%d spread=%.3f n=%d" % (
                name, metric["name"], statistics.median(values),
                metric["unit"], len(values), _spread(values),
                entry["samples"][metric["name"]]))
        attempted += sum(r["attempted"] for r in runs)
        failed += sum(r["failed"] for r in runs)
        for run in runs:
            for line in run["mismatches"]:
                print("MISMATCH", name, line)
    ledger = run_ledger(args.seed, FULL)
    for name in names:
        run = run_one(name, args.seed, seconds, True, ledger=ledger)
        entry = report["workloads"][name]
        entry["per_layer"] = {k: v["value"]
                              for k, v in run["metrics"].items()}
        entry["trace_samples"] = run["samples"]
        entry["wall_s"] += run["wall_s"]
        attempted += run["attempted"] - ledger["attempted"]
        failed += run["failed"] - ledger["failed"]
        for metric in SPEC["per_layer"]:
            if metric["name"] in run["computed"] \
                    and metric["name"] not in ledger["metrics"]:
                print("%-16s %-44s %14.4f %s" % (
                    name, metric["name"],
                    entry["per_layer"][metric["name"]], metric["unit"]))
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for metric, value in ledger["metrics"].items():
        print("%-16s %-44s %14.4f %s" % ("ledger", metric, value,
                                         units[metric]))
    attempted += ledger["attempted"]
    failed += ledger["failed"]
    problems = credibility(ledger)
    load_end = os.getloadavg()[0]
    report.update({
        "exact": ledger["exact"],
        "ledger": {key: ledger[key] for key in
                   ("boundaries", "resolved_spans", "missing_spans")},
        "error_share": failed / attempted,
        "credibility_problems": problems,
        "provenance": {
            "commit": _commit(), "seed": args.seed, "runs": args.runs,
            "run_seconds": seconds, "nproc": nproc,
            "cpus_used": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "loadavg_1m_start": load_start, "loadavg_1m_end": load_end,
            "noisy_host": max(load_start, load_end) > nproc,
            "wall_s": time.perf_counter() - t0,
        },
    })
    trace_path = write_trace(ledger)
    latest = OUT / "latest.json"
    latest.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print("error_share %.6f (%d failed of %d attempted)"
          % (report["error_share"], failed, attempted))
    if ledger["missing_spans"]:
        print("missing_spans:", ", ".join(ledger["missing_spans"]))
    if report["provenance"]["noisy_host"]:
        print("NOISY HOST: 1-min load average %.2f / %.2f exceeds nproc=%d"
              % (load_start, load_end, nproc))
    for problem in problems:
        print("NOT CREDIBLE:", problem)
    print("wrote %s and %s" % (latest, trace_path))
    return 1 if failed or problems else 0


def compare(path_a: str, path_b: str) -> int:
    """Two ``latest.json`` files, A (parent) against B (change): each
    end-to-end metric against its bound, each exact counter for
    equality. ``unresolved`` means the run-to-run spread of either side
    exceeds the bound, unless every B run beats every A run."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    bad = 0
    for name in WORKLOADS:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            continue
        for metric in SPEC["end_to_end"]:
            ma = wa["end_to_end"][metric["name"]]
            mb = wb["end_to_end"][metric["name"]]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse_by = sign * (mb["median"] - ma["median"]) / ma["median"]
            all_better = all(sign * (y - x) < 0
                             for x in ma["runs"] for y in mb["runs"])
            if max(ma["spread"], mb["spread"]) > metric["bound"] \
                    and not all_better:
                status = "unresolved"
            elif worse_by > metric["bound"]:
                status = "worse"
                bad += 1
            else:
                status = "ok"
            print("%-16s %-28s A=%-12.5g B=%-12.5g %+7.2f%% bound %4.1f%% "
                  "%s" % (name, metric["name"], ma["median"], mb["median"],
                          100 * worse_by * sign, 100 * metric["bound"],
                          status))
        exact = sorted(set(a["exact"]) | set(b["exact"]))
        if name == "sim-paper":
            exact.append("sim.modeled_dram_per_req")
        differing = [(k, wa["per_layer"].get(k), wb["per_layer"].get(k))
                     for k in exact
                     if wa["per_layer"].get(k) != wb["per_layer"].get(k)]
        for key, va, vb in differing:
            print("%-16s %-44s A=%r B=%r MISMATCH" % (name, key, va, vb))
        print("%-16s exact counters: %d compared, %d differ"
              % (name, len(exact), len(differing)))
        bad += len(differing)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one run for the driver: JSON on the last line")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload (full mode)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    # generator, server and reference loop share one CPU: see README.md,
    # "Load shape"
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        if args.trace is None:
            return full(args)
        if not args.workload or not args.seconds:
            parser.error("--trace needs --workload and --seconds")
        return single(args)
    except BenchError as exc:
        print("BENCHMARK FAILED:", exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
