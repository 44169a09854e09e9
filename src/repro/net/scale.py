"""``repro bench scale`` — the million-key multi-tenant scenario bench.

Everything the serving stack claims has so far been measured at cache
scale (thousands of keys). This bench pushes the *paper's* scale claim:
HICAMP's dedup and canonical sharing matter most when the store is
large and the traffic is skewed. It drives the real asyncio stack —
:class:`~repro.net.server.MemcachedServer` over
:class:`~repro.net.router.ShardRouter` over
:class:`~repro.apps.memcached.tenants.TenantMemcached` — end to end:

* **multi-process**: each worker process owns a full server (its own
  machine, router, shards) and a slice of the keyspace, so the bench
  scales past one interpreter's GIL to millions of keys;
* **multi-tenant**: keys carry a ``tNN:`` prefix, so every worker's
  store fans out into per-tenant namespaces (separate VSIDs, per-tenant
  stats through the PR 4 observability registry);
* **populate phase**: bulk ``set_many`` commits (one canonical-tree
  rebuild per batch) measured as ingest ops/s;
* **serve phase**: Zipfian pipelined ``get``/``set`` traffic over a
  real TCP socket, measured as batch-RTT p50/p99 — the skew means the
  hot ranks hammer the memo'd paths while the tail walks cold trees;
* **footprint accounting**: unique line bytes (what the dedup store
  actually holds) against logical bytes (what a conventional store
  would hold), i.e. the measured **dedup ratio** at scale.

Results land in ``BENCH_scale.json``; ``--check`` enforces an ingest
floor so CI catches order-of-magnitude regressions without flaking on
noise, and ``--smoke`` shrinks the run to seconds for the CI tier.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
import random
import time
import zlib
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

#: Bench JSON schema tag (bump on shape changes).
SCHEMA = "repro.bench.scale/v1"

#: Default results file, repo-root relative (committed as the tracked
#: perf artifact, like BENCH.json / BENCH_cluster.json).
DEFAULT_OUT = "BENCH_scale.json"

CRLF = b"\r\n"


@dataclass
class ScaleConfig:
    """Shape of one scale run (fully seeded, smoke-scalable)."""

    keys: int = 1_000_000          # total across all workers
    workers: int = 4               # processes, each a full server
    tenants: int = 8               # namespace prefixes per worker
    shards: int = 2                # router shards per worker
    value_bytes: int = 64
    value_pool: int = 32           # distinct values (the dedup food)
    batch: int = 2000              # keys per populate set_many batch
    serve_ops: int = 20_000        # serve-phase ops per worker
    serve_batch: int = 64          # pipelined ops per socket write
    set_ratio: float = 0.1         # serve-phase write fraction
    zipf_s: float = 1.1            # serve-phase skew exponent
    seed: int = 0
    smoke: bool = False

    def per_worker_keys(self, worker: int) -> int:
        base, extra = divmod(self.keys, self.workers)
        return base + (1 if worker < extra else 0)

    def slice_start(self, worker: int) -> int:
        return sum(self.per_worker_keys(w) for w in range(worker))


def smoke_config(**overrides) -> ScaleConfig:
    """The CI tier: same machinery, seconds not minutes."""
    params = dict(keys=20_000, workers=2, serve_ops=2_000,
                  batch=1000, smoke=True)
    params.update(overrides)
    return ScaleConfig(**params)


# ----------------------------------------------------------------------
# seeded key/value material


def _tenant(index: int, tenants: int) -> bytes:
    return b"t%02d" % (index % tenants)


def _key(index: int, tenants: int) -> bytes:
    return b"%s:key-%016d" % (_tenant(index, tenants), index)


def _value_pool(cfg: ScaleConfig) -> List[bytes]:
    pool = []
    for i in range(cfg.value_pool):
        digest = hashlib.blake2b(b"scale/%d/%d" % (cfg.seed, i),
                                 digest_size=16).digest()
        reps = cfg.value_bytes // len(digest) + 1
        pool.append((digest * reps)[:cfg.value_bytes])
    return pool


def zipf_ranks(count: int, n: int, s: float, seed: int) -> List[int]:
    """``count`` Zipf(s)-distributed ranks in [0, n) (rank 0 hottest)."""
    try:
        import numpy
        weights = numpy.arange(1, n + 1, dtype=numpy.float64) ** -s
        cdf = numpy.cumsum(weights)
        cdf /= cdf[-1]
        rng = numpy.random.default_rng(seed)
        return numpy.searchsorted(
            cdf, rng.random(count)).astype(int).tolist()
    except ImportError:              # pure-python fallback, same law
        import bisect
        weights, total = [], 0.0
        for rank in range(1, n + 1):
            total += rank ** -s
            weights.append(total)
        rng = random.Random(seed)
        return [bisect.bisect_left(weights, rng.random() * total)
                for _ in range(count)]


# ----------------------------------------------------------------------
# worker process: one full server + its keyspace slice


@dataclass
class WorkerResult:
    worker: int = 0
    keys: int = 0
    populate_seconds: float = 0.0
    serve_ops: int = 0
    serve_seconds: float = 0.0
    get_hits: int = 0
    get_misses: int = 0
    stored: int = 0
    errors: int = 0
    batch_rtts_ms: List[float] = field(default_factory=list)
    footprint_bytes: int = 0
    footprint_lines: int = 0
    logical_bytes: int = 0
    tenants: int = 0


async def _read_reply(reader: asyncio.StreamReader, kind: str,
                      result: WorkerResult) -> None:
    if kind == "set":
        line = await reader.readline()
        if line.strip() == b"STORED":
            result.stored += 1
        else:
            result.errors += 1
        return
    hit = False
    while True:
        line = await reader.readline()
        if not line or line.strip() == b"END":
            break
        if line.startswith(b"VALUE "):
            size = int(line.split()[3])
            await reader.readexactly(size + 2)
            hit = True
    if hit:
        result.get_hits += 1
    else:
        result.get_misses += 1


async def _worker_async(cfg: ScaleConfig, worker: int) -> WorkerResult:
    from repro.apps.memcached.tenants import TenantMemcached
    from repro.net.server import MemcachedServer

    server = MemcachedServer(port=0, shard_count=cfg.shards,
                             backend_factory=TenantMemcached)
    await server.start()
    result = WorkerResult(worker=worker,
                          keys=cfg.per_worker_keys(worker))
    pool = _value_pool(cfg)
    rng = random.Random(cfg.seed * 7919 + worker)
    start = cfg.slice_start(worker)  # dense, per-worker key slice

    # populate: bulk set_many per shard, the router's own selector
    backends = server.router.servers
    began = time.perf_counter()
    for low in range(0, result.keys, cfg.batch):
        per_shard: List[List] = [[] for _ in backends]
        for index in range(low, min(low + cfg.batch, result.keys)):
            key = _key(start + index, cfg.tenants)
            value = pool[rng.randrange(len(pool))]
            per_shard[zlib.crc32(key) % len(backends)].append(
                (key, value))
            result.logical_bytes += len(key) + len(value)
        for shard, items in enumerate(per_shard):
            if items:
                backends[shard].set_many(items)
        await asyncio.sleep(0)       # keep the loop responsive
    result.populate_seconds = time.perf_counter() - began

    # serve: Zipfian pipelined get/set over the real socket
    ranks = zipf_ranks(cfg.serve_ops, result.keys, cfg.zipf_s,
                       cfg.seed * 104729 + worker)
    reader, writer = await asyncio.open_connection("127.0.0.1",
                                                   server.port)
    began = time.perf_counter()
    for low in range(0, len(ranks), cfg.serve_batch):
        chunk = ranks[low:low + cfg.serve_batch]
        kinds, wire = [], []
        for rank in chunk:
            key = _key(start + rank, cfg.tenants)
            if rng.random() < cfg.set_ratio:
                value = pool[rng.randrange(len(pool))]
                wire.append(b"set %s 0 0 %d\r\n%s\r\n"
                            % (key, len(value), value))
                kinds.append("set")
            else:
                wire.append(b"get %s\r\n" % key)
                kinds.append("get")
        sent = time.perf_counter()
        writer.write(b"".join(wire))
        await writer.drain()
        for kind in kinds:
            await _read_reply(reader, kind, result)
        result.batch_rtts_ms.append(
            (time.perf_counter() - sent) * 1000.0)
        result.serve_ops += len(kinds)
    result.serve_seconds = time.perf_counter() - began
    writer.close()

    await server.router.drain()
    machine = server.router.machine
    machine.drain()
    result.footprint_bytes = machine.footprint_bytes()
    result.footprint_lines = machine.footprint_lines()
    result.tenants = len(set().union(
        *(backend.tenants for backend in backends)))
    await server.shutdown()
    return result


def _worker_main(cfg: ScaleConfig, worker: int, pipe) -> None:
    try:
        pipe.send(asdict(asyncio.run(_worker_async(cfg, worker))))
    except Exception as exc:          # surfaced by the parent
        pipe.send({"error": "%s: %s" % (type(exc).__name__, exc)})
    finally:
        pipe.close()


# ----------------------------------------------------------------------
# parent: fan out, merge, report


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    at = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[at]


def run_scale(cfg: Optional[ScaleConfig] = None) -> Dict:
    """Run the bench; returns the JSON-safe result document."""
    cfg = cfg or ScaleConfig()
    # fork keeps workers importable no matter how the parent was
    # launched (stdin scripts, pytest); spawn is the portable fallback
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() \
        else "spawn"
    ctx = multiprocessing.get_context(method)
    procs, pipes = [], []
    wall = time.perf_counter()
    for worker in range(cfg.workers):
        parent_end, child_end = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_worker_main,
                           args=(cfg, worker, child_end))
        proc.start()
        child_end.close()
        procs.append(proc)
        pipes.append(parent_end)
    payloads = []
    for proc, pipe in zip(procs, pipes):
        try:
            if pipe.poll(1800):
                payloads.append(pipe.recv())
            else:
                proc.terminate()
                payloads.append({"error": "worker timed out"})
        except EOFError:
            payloads.append({"error": "worker died without a result"})
    for proc in procs:
        proc.join()
    wall = time.perf_counter() - wall
    failures = [p["error"] for p in payloads if "error" in p]
    if failures:
        raise RuntimeError("scale worker failed: %s" % failures[0])
    results = [WorkerResult(**p) for p in payloads]

    rtts = [rtt for r in results for rtt in r.batch_rtts_ms]
    populate_seconds = max(r.populate_seconds for r in results)
    serve_seconds = max(r.serve_seconds for r in results)
    unique = sum(r.footprint_bytes for r in results)
    logical = sum(r.logical_bytes for r in results)
    serve_ops = sum(r.serve_ops for r in results)
    return {
        "schema": SCHEMA,
        "smoke": cfg.smoke,
        "seed": cfg.seed,
        "keys": sum(r.keys for r in results),
        "workers": cfg.workers,
        "tenants_per_worker": max(r.tenants for r in results),
        "shards": cfg.shards,
        "value_bytes": cfg.value_bytes,
        "wall_seconds": round(wall, 2),
        "populate": {
            "ops": sum(r.keys for r in results),
            "seconds": round(populate_seconds, 2),
            "ops_per_second": round(
                sum(r.keys for r in results)
                / max(1e-9, populate_seconds), 1),
        },
        "serve": {
            "ops": serve_ops,
            "seconds": round(serve_seconds, 2),
            "ops_per_second": round(
                serve_ops / max(1e-9, serve_seconds), 1),
            "p50_ms": round(_percentile(rtts, 0.50), 3),
            "p99_ms": round(_percentile(rtts, 0.99), 3),
            "get_hits": sum(r.get_hits for r in results),
            "get_misses": sum(r.get_misses for r in results),
            "stored": sum(r.stored for r in results),
            "errors": sum(r.errors for r in results),
        },
        "footprint": {
            "unique_bytes": unique,
            "unique_lines": sum(r.footprint_lines for r in results),
            "logical_bytes": logical,
            "dedup_ratio": round(logical / max(1, unique), 3),
        },
    }


def check_floor(result: Dict, floor: float) -> List[str]:
    """Regression gate: ingest throughput and serve sanity."""
    problems = []
    rate = result["populate"]["ops_per_second"]
    if rate < floor:
        problems.append("populate %.1f ops/s below floor %.1f"
                        % (rate, floor))
    if result["serve"]["errors"]:
        problems.append("%d serve-phase protocol errors"
                        % result["serve"]["errors"])
    if result["serve"]["get_misses"]:
        problems.append("%d misses on a fully-populated keyspace"
                        % result["serve"]["get_misses"])
    return problems


def render(result: Dict) -> str:
    lines = [
        "scale: %d keys, %d workers x %d shards, %d tenants/worker%s"
        % (result["keys"], result["workers"], result["shards"],
           result["tenants_per_worker"],
           " [smoke]" if result["smoke"] else ""),
        "  populate  %10.1f ops/s  (%.2fs)"
        % (result["populate"]["ops_per_second"],
           result["populate"]["seconds"]),
        "  serve     %10.1f ops/s  p50 %.3fms  p99 %.3fms"
        % (result["serve"]["ops_per_second"],
           result["serve"]["p50_ms"], result["serve"]["p99_ms"]),
        "  footprint %10d unique bytes / %d logical  (dedup %.2fx)"
        % (result["footprint"]["unique_bytes"],
           result["footprint"]["logical_bytes"],
           result["footprint"]["dedup_ratio"]),
    ]
    return "\n".join(lines)


def write_result(result: Dict, path: str = DEFAULT_OUT) -> None:
    with open(path, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
