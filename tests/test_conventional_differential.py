"""The one-loop conventional baseline against the line-by-line walk.

``ConventionalMemory.access`` walks an access's lines in one loop over
both cache levels; ``tests/reference_conventional.py`` keeps the walk it
replaced (``_access_line`` and two ``CacheLevel.access`` calls per
line). Seeded traces of unaligned loads and stores, with ``drain()``
calls mixed in, run through both, and after every operation the DRAM
counters, the open row, both levels' traffic counters and every set's
LRU order with its dirty flags must be equal — so a reordered victim
writeback, fill or row touch shows up at the operation that did it.
"""

import dataclasses
import random

import pytest

from repro.memory.conventional import ConventionalMemory
from repro.params import CacheGeometry, ConventionalConfig
from tests import reference_conventional

SEEDS = (1, 2, 3)
OPS = 600


def tiny_config(line_bytes):
    """An L1 of 8 lines (2-way) over an L2 of 32 lines (4-way): a trace
    over a few KB evicts at both levels and crosses DRAM rows."""
    return ConventionalConfig(
        line_bytes=line_bytes,
        l1=CacheGeometry(size_bytes=8 * line_bytes, ways=2,
                         line_bytes=line_bytes),
        l2=CacheGeometry(size_bytes=32 * line_bytes, ways=4,
                         line_bytes=line_bytes),
    )


def state(mem):
    """Everything the model keeps, as plain values."""
    return {
        "dram": dataclasses.asdict(mem.dram),
        "rows": dataclasses.asdict(mem.rows),
        "traffic": [dataclasses.asdict(level.traffic)
                    for level in (mem.l1, mem.l2)],
        "sets": [[list(ways.items()) for ways in level._sets]
                 for level in (mem.l1, mem.l2)],
    }


def trace(seed, line_bytes):
    """``(op, addr, size)``: half the accesses in a hot region the L2
    holds, half over 32 KB (four 8 KB DRAM rows); sizes 0-300 B."""
    rng = random.Random(seed * 1000 + line_bytes)
    hot = 16 * line_bytes
    for _ in range(OPS):
        if rng.random() < 0.02:
            yield "drain", 0, 0
            continue
        span = hot if rng.random() < 0.5 else 32 * 1024
        yield (rng.choice(("load", "store")), rng.randrange(span),
               rng.randrange(301))


@pytest.mark.parametrize("line_bytes", (16, 32, 64))
@pytest.mark.parametrize("seed", SEEDS)
def test_fused_walk_matches_the_line_by_line_walk(seed, line_bytes):
    config = tiny_config(line_bytes)
    prod = ConventionalMemory(config)
    ref = reference_conventional.ConventionalMemory(config)
    for step, (op, addr, size) in enumerate(trace(seed, line_bytes)):
        for mem in (prod, ref):
            if op == "drain":
                mem.drain()
            else:
                getattr(mem, op)(addr, size)
        assert state(prod) == state(ref), (step, op, addr, size)
    # the trace reached every path the comparison is meant to guard
    assert ref.l1.traffic.writebacks and ref.l2.traffic.hits
    assert ref.dram.writes and ref.rows.hits and ref.rows.misses
