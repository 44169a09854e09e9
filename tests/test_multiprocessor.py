"""Tests for the multi-processor machine model."""

import pytest

from repro import Machine, MachineConfig, MemoryConfig
from repro.errors import IteratorStateError
from repro.params import CacheGeometry


def machine_with_processors(n):
    return Machine(MachineConfig(
        memory=MemoryConfig(line_bytes=16, num_buckets=1 << 12,
                            data_ways=12, overflow_lines=1 << 16),
        cache=CacheGeometry(size_bytes=64 * 1024, ways=8, line_bytes=16),
        n_processors=n, iterator_registers=4,
    ))


class TestProcessors:
    def test_processor_count(self):
        machine = machine_with_processors(8)
        assert len(machine.processors) == 8
        assert [p.pid for p in machine.processors] == list(range(8))

    def test_register_files_are_private(self):
        machine = machine_with_processors(2)
        vsid = machine.create_segment([1, 2, 3])
        # exhaust processor 0's registers
        held = [machine.processors[0].iterator(vsid) for _ in range(4)]
        with pytest.raises(IteratorStateError):
            machine.processors[0].iterator(vsid)
        # processor 1 is unaffected
        it = machine.processors[1].iterator(vsid)
        assert it.get(0) == 1
        machine.processors[1].release_iterator(it)
        for it in held:
            machine.processors[0].release_iterator(it)

    def test_transient_regions_are_private(self):
        machine = machine_with_processors(2)
        vsid = machine.create_segment([0] * 8)
        it0 = machine.processors[0].iterator(vsid)
        it1 = machine.processors[1].iterator(vsid)
        it0.put(1, offset=0)
        # transient lines are per-core (footnote 7): the store sits in
        # processor 0's register only
        assert it0.dirty and not it1.dirty
        assert it0.get(0) == 1
        # and the other processor's register does not see it
        assert it1.get(0) == 0
        machine.processors[0].release_iterator(it0)
        machine.processors[1].release_iterator(it1)

    def test_memory_and_map_are_shared(self):
        machine = machine_with_processors(4)
        vsid = machine.create_segment([10])
        it = machine.processors[3].iterator(vsid)
        it.put(99, offset=0)
        assert it.try_commit()
        machine.processors[3].release_iterator(it)
        # any processor reads the committed version
        it0 = machine.processors[0].iterator(vsid)
        assert it0.get(0) == 99
        machine.processors[0].release_iterator(it0)

    def test_cross_processor_cas_race(self):
        machine = machine_with_processors(2)
        vsid = machine.create_segment([1, 2])
        it_a = machine.processors[0].iterator(vsid)
        it_b = machine.processors[1].iterator(vsid)
        it_a.put(10, offset=0)
        it_b.put(20, offset=1)
        assert it_a.try_commit()
        assert not it_b.try_commit()  # shared segment map arbitrates
        machine.processors[0].release_iterator(it_a)
        machine.processors[1].release_iterator(it_b)

    def test_machine_shorthand_is_processor_zero(self):
        machine = machine_with_processors(2)
        vsid = machine.create_segment([5])
        it = machine.iterator(vsid)
        assert it in machine.processors[0]._registers
        machine.release_iterator(it)
