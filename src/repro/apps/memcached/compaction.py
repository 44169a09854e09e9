"""Memcached data compaction measurement (Table 1).

The paper loaded each dataset into the HICAMP memory-system simulator and
reported *compaction* = conventional bytes / HICAMP bytes, per line size.
Here each item (key and value strings) is stored as a content-unique
segment in a fresh machine; the HICAMP requirement is the unique-line
footprint, DAG overhead included, and the conventional requirement is the
raw item bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.machine import Machine
from repro.params import CacheGeometry, MachineConfig, MemoryConfig
from repro.segments.anon import AnonSegment
from repro.workloads.text import TextCorpus


@dataclass
class CompactionResult:
    """One Table 1 cell: a dataset at one line size."""

    dataset: str
    line_bytes: int
    n_items: int
    conventional_bytes: int
    hicamp_bytes: int

    @property
    def compaction(self) -> float:
        """Conventional requirement over HICAMP requirement (>1 is a win)."""
        if self.hicamp_bytes == 0:
            return float("inf")
        return self.conventional_bytes / self.hicamp_bytes


def machine_for_line(line_bytes: int) -> Machine:
    """A machine sized for footprint studies at one line size."""
    return Machine(MachineConfig(
        memory=MemoryConfig(line_bytes=line_bytes, num_buckets=1 << 15,
                            data_ways=12, overflow_lines=1 << 21),
        cache=CacheGeometry(size_bytes=1 << 20, ways=16, line_bytes=line_bytes),
    ))


def measure_compaction(corpus: TextCorpus, line_bytes: int) -> CompactionResult:
    """Load a corpus into a fresh machine and compare footprints."""
    machine = machine_for_line(line_bytes)
    handles: List[AnonSegment] = []
    conventional = 0
    for key, value in corpus.items.items():
        conventional += len(key) + len(value)
        handles.append(AnonSegment.from_bytes(machine.mem, key))
        handles.append(AnonSegment.from_bytes(machine.mem, value))
    return CompactionResult(
        dataset=corpus.spec.name,
        line_bytes=line_bytes,
        n_items=len(corpus.items),
        conventional_bytes=conventional,
        hicamp_bytes=machine.footprint_bytes(),
    )
