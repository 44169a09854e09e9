"""Machine configuration for the HICAMP and conventional simulators.

The defaults follow the evaluation setup in section 5 of the paper:
16-byte memory lines, a 4-way 32 KB L1 data cache and a 16-way 4 MB L2,
and a 50 ns DRAM access latency (section 5.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Bytes per machine word. PLIDs, tags and data values are all word-sized.
WORD_BYTES = 8

#: Mask for a 64-bit word value.
WORD_MASK = (1 << 64) - 1

#: Width of the PLID field of a reference word (:mod:`repro.memory.line`).
PLID_BITS = 40


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one set-associative cache level.

    Attributes:
        size_bytes: total capacity of the cache.
        ways: associativity.
        line_bytes: cache line size (must match the memory line size).
    """

    size_bytes: int
    ways: int
    line_bytes: int

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * self.line_bytes):
            raise ValueError(
                "cache size %d not divisible by ways*line (%d*%d)"
                % (self.size_bytes, self.ways, self.line_bytes)
            )

    @property
    def num_sets(self) -> int:
        """Number of sets in the cache."""
        return self.size_bytes // (self.ways * self.line_bytes)


@dataclass(frozen=True)
class MemoryConfig:
    """Configuration of the deduplicated main memory (Figure 2).

    Attributes:
        line_bytes: memory line size in bytes (16, 32 or 64 in the paper).
        num_buckets: number of hash buckets; each bucket models one DRAM row.
        data_ways: data lines per hash bucket (the paper shows twelve
            16-byte data ways per bucket alongside signature and
            reference-count ways).
        overflow_lines: capacity of the shared overflow area used when a
            designated hash bucket is full.
        verify_reads: recompute content hashes on every DRAM read and
            fault on mismatch (section 3.1's intrinsic error detection;
            off by default for speed).
        plid_bytes: encoded size of a PLID inside an interior DAG line.
            The paper sizes PLIDs at 32 bits (footnote 5: "with a 32-byte
            line, a 32-bit PLID is sufficient to access 128 gigabytes"),
            giving an interior fan-out of ``line_bytes / 4`` and a dense
            DAG space overhead of 1/(fanout-1); set 8 to model 64-bit
            PLIDs (the footnote-6 worst case of 2x overhead at 16-byte
            lines).
    """

    line_bytes: int = 16
    num_buckets: int = 1 << 16
    data_ways: int = 12
    overflow_lines: int = 1 << 20
    plid_bytes: int = 4
    verify_reads: bool = False

    def __post_init__(self) -> None:
        if self.line_bytes % WORD_BYTES:
            raise ValueError("line_bytes must be a multiple of %d" % WORD_BYTES)
        if self.line_bytes < 2 * WORD_BYTES:
            raise ValueError("a line must hold at least two words to form a DAG")
        if self.plid_bytes not in (4, 8):
            raise ValueError("plid_bytes must be 4 or 8")
        if ((self.data_ways + 1) * self.num_buckets
                + self.overflow_lines) >> PLID_BITS:
            raise ValueError("PLIDs must fit %d bits" % PLID_BITS)

    @property
    def words_per_line(self) -> int:
        """Number of 64-bit data words in one leaf line."""
        return self.line_bytes // WORD_BYTES

    @property
    def fanout(self) -> int:
        """PLID entries per interior line (the DAG fan-out)."""
        return self.line_bytes // self.plid_bytes


@dataclass(frozen=True)
class MachineConfig:
    """Full configuration of a simulated HICAMP machine.

    Attributes:
        memory: deduplicated-DRAM geometry.
        cache: geometry of the HICAMP cache (models the LLC in front of
            the deduplicated DRAM; the paper's L2 parameters by default).
        dram_latency_ns: DRAM access latency used by the analytical
            latency models (50 ns in section 5.1.1).
        path_compaction: enable the path-compaction optimization (Fig. 4a).
        data_compaction: enable the data-compaction optimization (Fig. 4b).
        iterator_registers: number of iterator registers per processor
            ("comparable ... to the number of general-purpose registers",
            section 3.3).
        n_processors: processors sharing the memory system (the paper's
            concurrency analysis assumes an 8-processor system). Each
            processor has its own iterator-register file and transient
            region; the LLC, deduplicated DRAM and segment map are shared.
        cache_hit_ns: on-chip hit latency used by the timing estimator.
    """

    memory: MemoryConfig = field(default_factory=MemoryConfig)
    cache: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(
            size_bytes=4 * 1024 * 1024, ways=16, line_bytes=16
        )
    )
    dram_latency_ns: float = 50.0
    cache_hit_ns: float = 2.0
    path_compaction: bool = True
    data_compaction: bool = True
    iterator_registers: int = 32
    n_processors: int = 1

    def __post_init__(self) -> None:
        if self.cache.line_bytes != self.memory.line_bytes:
            raise ValueError(
                "cache line size %d must match memory line size %d"
                % (self.cache.line_bytes, self.memory.line_bytes)
            )

    @classmethod
    def with_line_size(cls, line_bytes: int, **kwargs) -> "MachineConfig":
        """Build a config for a given line size, keeping paper defaults.

        Cache capacity/associativity stay at the paper's 16-way 4 MB; the
        line size is applied to both memory and cache.
        """
        memory = kwargs.pop("memory", MemoryConfig(line_bytes=line_bytes))
        cache = kwargs.pop(
            "cache",
            CacheGeometry(size_bytes=4 * 1024 * 1024, ways=16, line_bytes=line_bytes),
        )
        return cls(memory=memory, cache=cache, **kwargs)


@dataclass(frozen=True)
class ConventionalConfig:
    """Configuration of the conventional (baseline) memory hierarchy.

    Defaults are the paper's: 4-way 32 KB L1 data cache, 16-way 4 MB L2,
    16-byte lines.
    """

    line_bytes: int = 16
    l1: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(
            size_bytes=32 * 1024, ways=4, line_bytes=16
        )
    )
    l2: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(
            size_bytes=4 * 1024 * 1024, ways=16, line_bytes=16
        )
    )
    dram_latency_ns: float = 50.0

    def __post_init__(self) -> None:
        if self.l1.line_bytes != self.line_bytes or self.l2.line_bytes != self.line_bytes:
            raise ValueError("L1/L2 line sizes must match the memory line size")

    @classmethod
    def with_line_size(cls, line_bytes: int) -> "ConventionalConfig":
        """Build the paper's baseline hierarchy at a given line size."""
        return cls(
            line_bytes=line_bytes,
            l1=CacheGeometry(size_bytes=32 * 1024, ways=4, line_bytes=line_bytes),
            l2=CacheGeometry(size_bytes=4 * 1024 * 1024, ways=16, line_bytes=line_bytes),
        )
