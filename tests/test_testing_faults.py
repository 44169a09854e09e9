"""Tests for the seeded deterministic fault injector."""

import asyncio
import random

import pytest

from repro import Machine
from repro.errors import MemoryExhaustedError
from repro.params import MachineConfig
from repro.segments import dag
from repro.segments.anon import AnonSegment
from repro.structures.hmap import HMap
from repro.testing.auditors import audit_machine
from repro.testing.faults import (
    COMMIT_STALL,
    CONN_RESET,
    FLUSH_DELAY,
    POINTS,
    READ_SPLIT,
    WRITE_SPLIT,
    FaultInjector,
    FaultPlan,
    InjectedReset,
    refuse_allocation,
)

ALL_ON = {point: 1.0 for point in POINTS}
ALL_OFF = {point: 0.0 for point in POINTS}


class TestFaultPlan:
    def test_same_seed_same_decisions(self):
        a = FaultPlan(42, {READ_SPLIT: 0.5})
        b = FaultPlan(42, {READ_SPLIT: 0.5})
        for scope in range(4):
            for seq in range(50):
                assert a.fires(READ_SPLIT, scope, seq) \
                    == b.fires(READ_SPLIT, scope, seq)
                assert a.amount(READ_SPLIT, scope, seq, 1, 9) \
                    == b.amount(READ_SPLIT, scope, seq, 1, 9)

    def test_different_seeds_differ_somewhere(self):
        a = FaultPlan(1, {READ_SPLIT: 0.5})
        b = FaultPlan(2, {READ_SPLIT: 0.5})
        decisions_a = [a.fires(READ_SPLIT, 0, seq) for seq in range(200)]
        decisions_b = [b.fires(READ_SPLIT, 0, seq) for seq in range(200)]
        assert decisions_a != decisions_b

    def test_decisions_independent_of_query_order(self):
        # pure function of (seed, point, scope, seq): asking in any
        # order, or repeatedly, never changes an answer
        plan = FaultPlan(7, {COMMIT_STALL: 0.5})
        forward = [plan.fires(COMMIT_STALL, 0, seq) for seq in range(30)]
        backward = [plan.fires(COMMIT_STALL, 0, seq)
                    for seq in reversed(range(30))]
        assert forward == list(reversed(backward))

    def test_rate_zero_never_fires(self):
        plan = FaultPlan(3, ALL_OFF)
        assert not any(plan.fires(point, 0, seq)
                       for point in POINTS for seq in range(100))

    def test_rate_one_always_fires(self):
        plan = FaultPlan(3, ALL_ON)
        assert all(plan.fires(point, 0, seq)
                   for point in POINTS for seq in range(100))

    def test_rate_roughly_honored(self):
        plan = FaultPlan(5, {READ_SPLIT: 0.3})
        fired = sum(plan.fires(READ_SPLIT, 0, seq) for seq in range(2000))
        assert 0.2 < fired / 2000 < 0.4

    def test_amount_within_bounds(self):
        plan = FaultPlan(9)
        for seq in range(200):
            amount = plan.amount(FLUSH_DELAY, 0, seq, 2, 6)
            assert 2 <= amount <= 6
        assert plan.amount(FLUSH_DELAY, 0, 0, 4, 4) == 4

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(0, {"bogus.point": 1.0})

    def test_describe_is_stable(self):
        a = FaultPlan(11, {CONN_RESET: 0.1}, max_stall=3)
        b = FaultPlan(11, {CONN_RESET: 0.1}, max_stall=3)
        assert a.describe() == b.describe()
        assert a.describe()[0] == "plan seed=11 max_stall=3"


class TestFaultInjector:
    def test_connection_scopes_increment(self, fault_injector):
        injector = fault_injector()
        assert [injector.next_connection() for _ in range(3)] == [0, 1, 2]

    def test_read_split_preserves_bytes(self, fault_injector):
        injector = fault_injector(seed=1, rates={READ_SPLIT: 1.0})
        data = b"set k 0 0 5\r\nhello\r\n"
        first = injector.on_read(0, data)
        rest = injector.held_bytes(0)
        assert first + rest == data
        assert 0 < len(first) < len(data)
        # held bytes are delivered exactly once
        assert injector.held_bytes(0) == b""

    def test_read_split_off_passes_through(self, fault_injector):
        injector = fault_injector(seed=1, rates=ALL_OFF)
        assert injector.on_read(0, b"get k\r\n") == b"get k\r\n"
        assert injector.held_bytes(0) == b""

    def test_after_dispatch_raises_injected_reset(self, fault_injector):
        injector = fault_injector(seed=2, rates={CONN_RESET: 1.0})
        with pytest.raises(InjectedReset):
            injector.after_dispatch(0, b"set")
        # an injected reset must be caught by ConnectionResetError
        # handlers (the server treats it like a real peer reset)
        assert issubclass(InjectedReset, ConnectionResetError)
        assert injector.fired[CONN_RESET] == 1

    def test_split_write_reassembles(self, fault_injector):
        injector = fault_injector(seed=4, rates={WRITE_SPLIT: 1.0})
        payload = b"VALUE k 0 5\r\nhello\r\nEND\r\n"
        chunks = injector.split_write(0, payload)
        assert len(chunks) == 2
        assert b"".join(chunks) == payload

    def test_async_hooks_fire_and_count(self, fault_injector):
        injector = fault_injector(seed=6, rates=ALL_ON, max_stall=3)

        async def go():
            await injector.before_flush(0)
            await injector.before_commit(1)

        asyncio.run(go())
        assert injector.fired[FLUSH_DELAY] == 1
        assert injector.fired[COMMIT_STALL] == 1

    def test_two_injectors_same_plan_agree(self):
        plan = FaultPlan(8, {CONN_RESET: 0.3})
        a, b = FaultInjector(plan), FaultInjector(plan)

        def resets(injector):
            out = []
            for seq in range(40):
                try:
                    injector.after_dispatch(0, b"set")
                    out.append(False)
                except InjectedReset:
                    out.append(True)
            return out

        assert resets(a) == resets(b)


# ----------------------------------------------------------------------
# allocation refusal


def _twenty_key_map(held: bool, memo: bool):
    machine = Machine()
    if memo:
        machine.mem.memo.enable()
    if held:
        machine.mem.store.hold_reclaim()
    kvp = HMap.create(machine)
    rng = random.Random(0)
    for i in range(20):
        kvp.put(b"k%02d" % i, rng.randbytes(64))
    machine.drain()
    return machine, kvp


NEW_VALUE = random.Random(1).randbytes(64)


class TestRefuseAllocation:
    def test_refuses_exactly_the_nth_and_only_inside_the_block(self):
        machine, kvp = _twenty_key_map(held=False, memo=False)
        store = machine.mem.store
        before = store.counters.allocations
        with refuse_allocation(store, 3):
            with pytest.raises(MemoryExhaustedError):
                kvp.put(b"new", NEW_VALUE)
        assert store.counters.allocations - before == 2
        assert "_allocate" not in vars(store)
        kvp.put(b"new", NEW_VALUE)
        assert kvp.get(b"new") == NEW_VALUE

    def test_first_refusal_leaves_the_machine_clean(self):
        machine, kvp = _twenty_key_map(held=False, memo=False)
        root = machine.segmap.entry(kvp.vsid).root
        with refuse_allocation(machine.mem.store, 1):
            with pytest.raises(MemoryExhaustedError):
                kvp.put(b"new", NEW_VALUE)
        machine.drain()
        assert machine.segmap.entry(kvp.vsid).root == root
        assert audit_machine(machine, strict=True).ok

    @pytest.mark.parametrize("held", (False, True))
    @pytest.mark.parametrize("memo", (False, True))
    def test_refused_value_build_releases_what_it_holds(self, held, memo):
        """``dag.build_entry``, behind every key and value a put stages,
        drops the leaves and interiors it built so far when any of its
        allocations is refused."""
        def fresh():
            machine = Machine()
            if memo:
                machine.mem.memo.enable()
            if held:
                machine.mem.store.hold_reclaim()
            return machine

        machine = fresh()
        baseline = machine.footprint_lines()
        store = machine.mem.store
        before = store.counters.allocations
        AnonSegment.from_bytes(machine.mem, NEW_VALUE).release()
        allocations = store.counters.allocations - before
        assert allocations > 1
        for n in range(1, allocations + 1):
            machine = fresh()
            with refuse_allocation(machine.mem.store, n):
                with pytest.raises(MemoryExhaustedError):
                    AnonSegment.from_bytes(machine.mem, NEW_VALUE)
            machine.drain()
            assert audit_machine(machine, strict=True).failures == [], n
            assert machine.footprint_lines() == baseline, n


    def test_refused_growth_releases_the_entry_it_wraps(self):
        """``dag._wrap_run`` (behind ``grow_entry``, ``_rebuild`` and
        ``segments.merge``) consumes its entry: a refused allocation
        above it drops that reference instead of keeping it."""
        machine = Machine(MachineConfig(path_compaction=False))
        # two words too wide to pack: a leaf line, wrapped level by level
        vsid = machine.create_segment([2**63 + 1, 2**63 + 2])
        entry = machine.segmap.entry(vsid)
        root = dag.retain_entry(machine.mem, entry.root)
        with refuse_allocation(machine.mem.store, 1):
            with pytest.raises(MemoryExhaustedError):
                dag.grow_entry(machine.mem, root, entry.height,
                               entry.height + 2)
        machine.drain()
        assert audit_machine(machine, strict=True).failures == []


def test_refused_put_is_failure_atomic_at_every_allocation():
    problems = []
    for held in (False, True):
        for memo in (False, True):
            machine, kvp = _twenty_key_map(held, memo)
            store = machine.mem.store
            before = store.counters.allocations
            kvp.put(b"new", NEW_VALUE)
            allocations = store.counters.allocations - before
            assert allocations > 1
            for n in range(1, allocations + 1):
                machine, kvp = _twenty_key_map(held, memo)
                root = machine.segmap.entry(kvp.vsid).root
                with refuse_allocation(machine.mem.store, n):
                    with pytest.raises(MemoryExhaustedError):
                        kvp.put(b"new", NEW_VALUE)
                machine.drain()
                where = "held=%s memo=%s n=%d" % (held, memo, n)
                if machine.segmap.entry(kvp.vsid).root != root:
                    problems.append("%s: root moved" % where)
                problems.extend("%s: %s" % (where, failure) for failure
                                in audit_machine(machine, strict=True).failures)
    assert not problems, "\n".join(problems)

