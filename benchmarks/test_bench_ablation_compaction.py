"""Ablation — path and data compaction (section 3.2).

Not a paper table, but the paper motivates both compactions as the
mechanisms that make sparse segments cheap ("in a segment that contains
a large number of zeroes, the interior nodes are compacted to provide an
efficient sparse representation"). This bench quantifies each flag's
contribution on three representative contents:

* a very sparse array (path compaction's regime);
* a dense array of small integers (data compaction's regime);
* a memcached text corpus (where neither dominates — dedup does).
"""

import random

from conftest import emit

from repro import Machine, MachineConfig, MemoryConfig
from repro.analysis.reporting import format_table
from repro.params import CacheGeometry
from repro.segments.anon import AnonSegment
from repro.workloads.text import corpus_for_dataset


def machine_with(path: bool, data: bool) -> Machine:
    return Machine(MachineConfig(
        memory=MemoryConfig(line_bytes=16, num_buckets=1 << 14,
                            data_ways=12, overflow_lines=1 << 20),
        cache=CacheGeometry(size_bytes=256 * 1024, ways=16, line_bytes=16),
        path_compaction=path, data_compaction=data,
    ))


def _sparse_words(rng):
    return {rng.randrange(1 << 20): rng.getrandbits(60) | 1
            for _ in range(64)}


def _run():
    rng = random.Random(0)
    sparse_updates = _sparse_words(rng)
    small_ints = [rng.randrange(1, 200) for _ in range(4096)]
    corpus = corpus_for_dataset("scripts", seed=0, n_items=20)

    rows = []
    for path in (True, False):
        for data in (True, False):
            machine = machine_with(path, data)
            v = machine.create_segment([])
            machine.write_words(v, sparse_updates)
            sparse_lines = machine.footprint_lines()

            machine2 = machine_with(path, data)
            machine2.create_segment(small_ints)
            dense_lines = machine2.footprint_lines()

            machine3 = machine_with(path, data)
            for key, value in corpus.items.items():
                AnonSegment.from_bytes(machine3.mem, key)
                AnonSegment.from_bytes(machine3.mem, value)
            text_lines = machine3.footprint_lines()

            rows.append([path, data, sparse_lines, dense_lines, text_lines])
    return rows


def test_ablation_compaction(benchmark, report_dir):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    text = format_table(
        ["path_comp", "data_comp", "sparse64 lines", "smallint4k lines",
         "corpus lines"],
        rows,
        title="Ablation: path/data compaction contribution to footprint "
              "(16B lines)")
    emit(report_dir, "ablation_compaction", text)

    by_flags = {(r[0], r[1]): r for r in rows}
    both = by_flags[(True, True)]
    no_path = by_flags[(False, True)]
    no_data = by_flags[(True, False)]
    neither = by_flags[(False, False)]
    # path compaction dominates the sparse case
    assert both[2] < no_path[2]
    assert no_path[2] / max(1, both[2]) > 2.0
    # data compaction dominates the small-int case
    assert both[3] < no_data[3]
    # the text corpus barely cares about either (dedup does the work)
    assert neither[4] < both[4] * 1.3
