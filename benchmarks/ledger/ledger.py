"""The traced run: one fixed op stream driven at five layer boundaries,
in-process, so that per-layer costs add up to the end-to-end number.

Every boundary gets its own fresh ``MemcachedServer(port=0)`` —
constructor defaults, the serving profile — and enters it one layer
lower::

    tcp      loopback socket, depth-1 client on the server's event loop
    router   await (await ShardRouter.dispatch(frame, conn))
    handler  ProtocolHandler.handle(raw)
    server   HicampMemcached.set/get
    hmap     HMap.put/get

The five are driven *interleaved*: op ``i`` runs at every boundary, in
rotating order, before op ``i + 1`` runs at any. Host noise (a busy
neighbour, a frequency step, a garbage collection) then lands on all
five alike, and the five stores hold the same state at every op, so the
delta between adjacent boundaries is the upper layer's self time.

Below ``hmap`` there is no call boundary to drive at, so the benchmark
installs timing wrappers on public entry points (``SPAN_TABLE``) for one
extra ``handler`` pass and splits the *unwrapped* hmap time by the
wrappers' self-time shares: wrapper overhead is never billed to a layer.
All timings are host time at reference-host speed (hostspeed.py; a
sample every ``BLOCK`` ops); all counters are exact (single client,
fixed stream) and compare bit-for-bit between two commits.
"""

from __future__ import annotations

import asyncio
import cProfile
import importlib
import statistics
import time
from typing import Callable, Dict, List, Tuple

from repro.net.framing import FrameDecoder
from repro.net.router import ConnectionState
from repro.net.server import MemcachedServer

from hostspeed import HostSpeed
from workloads import Op, Sizes, ledger_phases, request_bytes

BOUNDARIES = ("tcp", "router", "handler", "server", "hmap")
OPS = ("insert", "overwrite", "get")
#: the layer whose self time is boundary[i] - boundary[i + 1]
DELTA_LAYERS = ("net.server", "net.router", "apps.protocol",
                "apps.memcached")
#: layers below the hmap boundary, split by wrapper self-time shares
SHARE_LAYERS = ("structures.hmap", "core.machine", "segments.dag",
                "memory.system")
DRAM_CATEGORIES = ("reads", "writes", "lookups", "dealloc", "refcount")
PASS_S = 300.0
#: ops between two host-speed samples
BLOCK = 50

#: (layer, module, qualified name): where the benchmark hangs its spans.
#: A name that no longer resolves is reported under ``missing_spans``
#: and its time folds into the parent span.
SPAN_TABLE = (
    ("apps.memcached", "repro.apps.memcached.server", "HicampMemcached.set"),
    ("apps.memcached", "repro.apps.memcached.server", "HicampMemcached.get"),
    ("structures.hmap", "repro.structures.hmap", "HMap.put"),
    ("structures.hmap", "repro.structures.hmap", "HMap.get"),
    ("core.machine", "repro.core.machine", "Machine.atomic_update"),
    ("core.machine", "repro.core.machine", "Machine.snapshot"),
    ("segments.dag", "repro.segments.dag", "write_words_bulk"),
    ("segments.dag", "repro.segments.dag", "read_word"),
    ("segments.dag", "repro.segments.dag", "build_segment"),
    ("memory.system", "repro.memory.system", "MemorySystem.lookup"),
    ("memory.system", "repro.memory.system", "MemorySystem.read"),
    ("memory.system", "repro.memory.system", "MemorySystem.incref"),
    ("memory.system", "repro.memory.system", "MemorySystem.decref"),
)
#: entry points whose exact call counts per op are reported
COUNTED = {
    "memory.lookup": ("repro.memory.system", "MemorySystem.lookup"),
    "memory.read": ("repro.memory.system", "MemorySystem.read"),
    "segments.dag.write_bulk": ("repro.segments.dag", "write_words_bulk"),
    "segments.dag.read_word": ("repro.segments.dag", "read_word"),
}


def _resolve(module: str, qualname: str):
    """``(owner, attribute, function)`` for a table entry, or None."""
    try:
        owner = importlib.import_module(module)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Spans from wrappers the benchmark installs, kept in memory."""

    def __init__(self) -> None:
        #: (name, layer, start_ns, end_ns, parent span index, op id)
        self.spans: List[Tuple] = []
        self.resolved: List[str] = []
        self.missing: List[str] = []
        self.op = -1
        self._stack: List[int] = []
        self._undo: List[Tuple] = []

    def wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, layer, start, end, parent, self.op)

        return traced

    def __enter__(self) -> "Tracer":
        for layer, module, qualname in SPAN_TABLE:
            found = _resolve(module, qualname)
            if found is None:
                self.missing.append(qualname)
                continue
            owner, attr, fn = found
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(qualname, layer, fn))
            self.resolved.append(qualname)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def self_ns_by_layer(self, op_kinds: List[str]) -> Dict[str, Dict]:
        """Self time (span minus its child spans) summed per op kind and
        layer; ``op_kinds[op id]`` names the kind."""
        child_ns = [0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: Dict[str, Dict[str, int]] = {kind: {} for kind in OPS}
        for index, (_, layer, start, end, _, op) in enumerate(self.spans):
            by_layer = totals[op_kinds[op]]
            by_layer[layer] = by_layer.get(layer, 0) \
                + (end - start) - child_ns[index]
        return totals


def _fresh_router():
    return MemcachedServer(port=0).router


def _entry(router, boundary: str, op: Op, raw: bytes):
    """The call that enters one of the three synchronous boundaries for
    one op: ``(callable, args)``, resolved outside the timed region."""
    verb, key, value = op
    shard = router.shard_index(key)
    if boundary == "handler":
        return router.handlers[shard].handle, (raw,)
    target = router.servers[shard]
    if boundary == "hmap":
        target, verb = target.kvp, ("put" if verb == "set" else "get")
    return getattr(target, verb), ((key,) if value is None else (key, value))


def _blocks(ops: List[Op]):
    for first in range(0, len(ops), BLOCK):
        yield ops[first:first + BLOCK]


def _after_op(router) -> None:
    """What a shard worker does between commit batches and a direct
    call never would: advance the reclamation epoch. Called outside the
    timed region, so every boundary's store holds the same lines and the
    drain is billed where the program does it — to ``net.router``."""
    router.machine.mem.store.reclaim_advance()


class _Oracle:
    """What each boundary must return for every op of the stream."""

    def __init__(self) -> None:
        self.values: Dict[bytes, bytes] = {}
        self.attempted = 0
        self.failed = 0

    def begin_pass(self) -> None:
        self.values.clear()

    def apply(self, op: Op) -> Dict[str, object]:
        """Advance past ``op``; the reply expected at each boundary."""
        kind, key, value = op
        if kind == "set":
            was_new = key not in self.values
            self.values[key] = value
            wire = b"STORED\r\n"
            return {"tcp": wire, "router": wire, "handler": wire,
                    "server": True, "hmap": was_new}
        current = self.values[key]
        wire = b"VALUE %s 0 %d\r\n%s\r\nEND\r\n" % (key, len(current),
                                                   current)
        return {"tcp": wire, "router": wire, "handler": wire,
                "server": current, "hmap": current}

    def check(self, reply, expected) -> None:
        self.attempted += 1
        if reply != expected:
            self.failed += 1


def machine_counters(machine) -> Dict[str, float]:
    """The exact counters, read through public accessors."""
    store = machine.mem.store
    counters = store.counters
    reclaim = store.reclaim_snapshot()
    cuckoo = store.index_snapshot().get("cuckoo", {})
    memo = machine.mem.memo.stats["line"]
    snap = {"dram." + name: count
            for name, count in machine.dram.as_dict().items()}
    snap.update({
        "lookups": counters.lookups, "lookup_hits": counters.lookup_hits,
        "allocations": counters.allocations,
        "deallocations": counters.deallocations,
        "deferred": reclaim.get("deferred_total", 0),
        "drained": reclaim.get("drained_freed", 0),
        "index_inserts": cuckoo.get("inserts", 0),
        "index_displacements": cuckoo.get("displacements", 0),
        "memo_hits": memo.hits, "memo_misses": memo.misses,
        "footprint_lines": machine.footprint_lines(),
    })
    return snap


async def _boundary_pass(phases, oracle: _Oracle, speed: HostSpeed):
    """The five boundaries, interleaved op by op: ns per op by boundary
    and op kind, and the machine-counter deltas of each phase (read at
    the router boundary, whose shard worker advances reclamation epochs
    exactly as it does when serving)."""
    clock = time.perf_counter_ns
    served = MemcachedServer(port=0)
    routed = _fresh_router()
    direct = {boundary: _fresh_router() for boundary in BOUNDARIES[2:]}
    conn, decoder = ConnectionState(), FrameDecoder()
    await served.start()
    await routed.start()
    reader, writer = await asyncio.open_connection("127.0.0.1", served.port)

    async def tcp(op: Op, raw: bytes):
        start = clock()
        writer.write(raw)
        reply = await reader.readline()
        if reply.startswith(b"VALUE "):
            reply += await reader.readexactly(
                int(reply.rsplit(b" ", 1)[1]) + 7)
        return clock() - start, reply

    async def router(op: Op, raw: bytes):
        frame, = decoder.feed(raw)
        start = clock()
        reply = await (await routed.dispatch(frame, conn))
        return clock() - start, reply

    def below(boundary: str):
        target = direct[boundary]

        async def lane(op: Op, raw: bytes):
            call, args = _entry(target, boundary, op, raw)
            start = clock()
            reply = call(*args)
            took = clock() - start
            _after_op(target)
            return took, reply

        return lane

    lanes = [("tcp", tcp), ("router", router)] \
        + [(boundary, below(boundary)) for boundary in BOUNDARIES[2:]]
    oracle.begin_pass()
    timing: Dict[str, Dict[str, List[float]]] = {b: {} for b in BOUNDARIES}
    deltas: Dict[str, Dict[str, float]] = {}
    turn = 0
    try:
        for kind, ops in phases:
            for boundary in BOUNDARIES:
                timing[boundary][kind] = []
            before = machine_counters(routed.machine)
            speed.open()
            for block in _blocks(ops):
                raw_ns: Dict[str, List[int]] = {b: [] for b in BOUNDARIES}
                for op in block:
                    raw = request_bytes(op)
                    expected = oracle.apply(op)
                    for offset in range(len(lanes)):
                        boundary, lane = lanes[(turn + offset) % len(lanes)]
                        took, reply = await lane(op, raw)
                        raw_ns[boundary].append(took)
                        oracle.check(reply, expected[boundary])
                    turn += 1
                scale = speed.scale()
                for boundary, samples in raw_ns.items():
                    timing[boundary][kind].extend(
                        ns * scale for ns in samples)
            after = machine_counters(routed.machine)
            deltas[kind] = {name: after[name] - before[name]
                            for name in after}
        deltas["final"] = machine_counters(routed.machine)
        writer.close()
        await writer.wait_closed()
    finally:
        await routed.stop()
        await served.shutdown()
    return timing, deltas


def _traced_pass(router, phases, oracle: _Oracle, tracer: Tracer,
                 speed: HostSpeed):
    """The handler boundary once more, with ``SPAN_TABLE`` wrapped and
    the driving call as each op's root span; ns per op by op kind.
    (Span timestamps stay raw: only their ratios are used.)"""
    oracle.begin_pass()
    clock = time.perf_counter_ns
    samples: Dict[str, List[float]] = {}
    for kind, ops in phases:
        out = samples[kind] = []
        speed.open()
        for block in _blocks(ops):
            raw_ns = []
            for op in block:
                raw = request_bytes(op)
                call, args = _entry(router, "handler", op, raw)
                call = tracer.wrap("ProtocolHandler.handle",
                                   "apps.protocol", call)
                expected = oracle.apply(op)["handler"]
                tracer.op += 1
                start = clock()
                reply = call(*args)
                raw_ns.append(clock() - start)
                _after_op(router)
                oracle.check(reply, expected)
            scale = speed.scale()
            out.extend(ns * scale for ns in raw_ns)
    return samples


def _count_pass(phases) -> Dict[str, Dict[str, float]]:
    """Python call counts per op under ``cProfile`` (handler boundary):
    every call, and each ``COUNTED`` entry point's own."""
    codes = {}
    for metric, (module, qualname) in COUNTED.items():
        found = _resolve(module, qualname)
        if found is not None:
            codes[found[2].__code__] = metric
    router = _fresh_router()
    counts: Dict[str, Dict[str, float]] = {}
    for kind, ops in phases:
        profile = cProfile.Profile()
        for op in ops:
            call, args = _entry(router, "handler", op, request_bytes(op))
            profile.enable()
            call(*args)
            profile.disable()
            _after_op(router)
        per_kind = counts[kind] = {metric: 0.0 for metric in COUNTED}
        total = 0
        for entry in profile.getstats():
            total += entry.callcount
            if entry.code in codes:
                per_kind[codes[entry.code]] = entry.callcount / len(ops)
        # less the profiler's own ``disable`` call, recorded once per op
        per_kind["host.pycalls"] = total / len(ops) - 1
    return counts


def _median_us(samples: List[float]) -> float:
    return statistics.median(samples) / 1000.0


def run_ledger(seed: int, sizes: Sizes) -> Dict:
    """All passes; returns ``metrics`` (per-layer name -> value),
    ``exact`` (the names that must repeat bit-for-bit), the boundary
    table with IQR and n, the span table and the spans themselves."""
    phases = ledger_phases(seed, sizes)
    oracle = _Oracle()
    op_kinds = [kind for kind, ops in phases for _ in ops]

    speed = HostSpeed()
    timing, deltas = asyncio.run(
        asyncio.wait_for(_boundary_pass(phases, oracle, speed), PASS_S))
    router = _fresh_router()  # built unwrapped: every span is an op's
    with Tracer() as tracer:
        wrapped = _traced_pass(router, phases, oracle, tracer, speed)
    counts = _count_pass(phases)

    metrics: Dict[str, float] = {}
    exact: List[str] = []
    boundaries: Dict[str, Dict] = {}
    self_ns = tracer.self_ns_by_layer(op_kinds)
    handler_us = wrapped_us = 0.0
    for kind in OPS:
        n = len(timing["tcp"][kind])
        us = {b: _median_us(timing[b][kind]) for b in BOUNDARIES}
        handler_us += n * us["handler"]
        wrapped_us += n * _median_us(wrapped[kind])
        for b in BOUNDARIES:
            quartiles = statistics.quantiles(timing[b][kind], n=4)
            metrics["boundary.%s.%s.us" % (b, kind)] = us[b]
            boundaries["boundary.%s.%s.us" % (b, kind)] = {
                "median_us": us[b], "n": n,
                "iqr_us": (quartiles[2] - quartiles[0]) / 1000.0}
        gaps = [us[upper] - us[lower]
                for upper, lower in zip(BOUNDARIES, BOUNDARIES[1:])]
        for layer, gap in zip(DELTA_LAYERS, gaps):
            metrics["%s.%s.self_us" % (layer, kind)] = gap
        metrics["trace.%s.residual" % kind] = min(0.0, min(gaps)) / us["tcp"]
        below = sum(self_ns[kind].get(layer, 0) for layer in SHARE_LAYERS)
        for layer in SHARE_LAYERS:
            share = self_ns[kind].get(layer, 0) / below if below else 0.0
            metrics["%s.%s.self_us" % (layer, kind)] = share * us["hmap"]

        delta, count = deltas[kind], counts[kind]
        per_op = {
            "host.pycalls_per_" + kind: count["host.pycalls"],
            "memory.lookup.hit_ratio." + kind:
                delta["lookup_hits"] / max(1, delta["lookups"]),
            "memory.store.allocations_per_" + kind:
                delta["allocations"] / n,
            "memory.store.deallocations_per_" + kind:
                delta["deallocations"] / n,
        }
        for name in COUNTED:
            per_op["%s.calls_per_%s" % (name, kind)] = count[name]
        for category in DRAM_CATEGORIES:
            per_op["memory.dram.%s_per_%s" % (category, kind)] = \
                delta["dram." + category] / n
        metrics.update(per_op)
        exact.extend(per_op)

    final, over = deltas["final"], deltas["overwrite"]
    n_over = len(timing["tcp"]["overwrite"])
    whole = {
        "memory.memo.hit_ratio": final["memo_hits"] / max(
            1, final["memo_hits"] + final["memo_misses"]),
        "memory.index.probes_per_lookup":
            final["dram.lookups"] / max(1, final["lookups"]),
        "memory.index.displacements_per_insert":
            final["index_displacements"] / max(1, final["index_inserts"]),
        "memory.reclaim.deferred_per_overwrite": over["deferred"] / n_over,
        "memory.reclaim.drained_per_overwrite": over["drained"] / n_over,
        "memory.footprint.lines": final["footprint_lines"],
    }
    metrics.update(whole)
    exact.extend(whole)
    # medians, like the boundaries: one collection pause in either pass
    # must not read as wrapper overhead
    metrics["trace.overhead_ratio"] = wrapped_us / handler_us
    return {
        "metrics": metrics, "exact": sorted(exact),
        "boundaries": boundaries,
        "resolved_spans": tracer.resolved, "missing_spans": tracer.missing,
        "spans": tracer.spans, "op_kinds": op_kinds,
        "reference_loop_s": speed.samples,
        "attempted": oracle.attempted, "failed": oracle.failed,
    }
