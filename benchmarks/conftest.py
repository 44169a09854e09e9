"""Shared benchmark configuration.

Every benchmark regenerates one of the paper's tables or figures and
writes its rendered output under ``benchmarks/out/`` (and to stdout when
run with ``-s``). Set ``REPRO_SCALE=2`` (or higher) to enlarge workloads
toward the paper's sizes; the default keeps the whole suite laptop-fast.
"""

import os
import pathlib

import pytest

from repro.memory.dedup_store import DedupStore

SCALE = int(os.environ.get("REPRO_SCALE", "1"))
OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def scale() -> int:
    """Workload scale multiplier (REPRO_SCALE env var)."""
    return SCALE


@pytest.fixture(scope="session")
def report_dir() -> pathlib.Path:
    """Directory where rendered tables/figures land."""
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture(autouse=True)
def figure2_only(monkeypatch):
    """Fail a bench whose store spilled a hash bucket.

    The paper finds a line inside its bucket (Figure 2) and chains
    through the overflow pointer past it; this repo resolves a spilled
    bucket by comparing 8-bit fingerprints over its ways and overflow
    list instead. Every tracked number is a Figure-2 number only while
    no bucket spills, so a ``REPRO_SCALE`` (or a geometry) that spills
    one says so here instead of quietly charging fingerprint compares
    in a paper figure.

    Yields the ``StoreCounters`` of every store built so far, one per
    ``DedupStore``, so a bench that asks for the fixture by name can
    gate on how many stores and allocations its figure took.
    """
    counters = []
    init = DedupStore.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        counters.append(self.counters)

    monkeypatch.setattr(DedupStore, "__init__", recording_init)
    yield counters
    spilled = sum(c.overflow_allocations for c in counters)
    assert spilled == 0, (
        "%d allocation(s) spilled a hash bucket across the %d stores "
        "this bench built" % (spilled, len(counters)))


def emit(report_dir: pathlib.Path, name: str, text: str) -> None:
    """Print a rendered experiment and persist it."""
    print()
    print(text)
    (report_dir / (name + ".txt")).write_text(text + "\n")
