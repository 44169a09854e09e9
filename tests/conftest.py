"""Shared fixtures: small machine configurations that keep tests fast."""

import gc

import pytest

from repro import Machine, MachineConfig, MemoryConfig
from repro.params import CacheGeometry

# the testing harness's fixtures (machine_audit, audited_machine,
# fault_injector, history_recorder, ...)
pytest_plugins = ["repro.testing.fixtures"]


def small_config(line_bytes: int = 16, cache_kb: int = 64) -> MachineConfig:
    """A small machine: fewer buckets, small cache — fast to simulate."""
    return MachineConfig(
        memory=MemoryConfig(line_bytes=line_bytes, num_buckets=1 << 12,
                            data_ways=12, overflow_lines=1 << 16),
        cache=CacheGeometry(size_bytes=cache_kb * 1024, ways=8,
                            line_bytes=line_bytes),
    )


@pytest.fixture
def machine():
    """A small 16-byte-line machine."""
    return Machine(small_config())


@pytest.fixture(params=[16, 32, 64])
def machine_all_lines(request):
    """The same machine at each of the paper's line sizes."""
    return Machine(small_config(line_bytes=request.param))


@pytest.fixture
def mem(machine):
    """The memory system of the small machine."""
    return machine.mem


@pytest.fixture
def gc_disabled():
    """The cyclic collector off for the test: only reference counting
    frees, so cyclic garbage stays until an explicit ``gc.collect()``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
