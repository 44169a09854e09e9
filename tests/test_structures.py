"""Unit tests for the typed structures (strings, arrays, maps, queues,
counters)."""

import pytest

from repro.structures import HArray, HCounterArray, HMap, HQueue, HString


class TestHString:
    def test_roundtrip(self, machine):
        s = HString.create(machine, b"hello world")
        assert s.to_bytes() == b"hello world"
        assert len(s) == 11

    def test_dedup_equal_strings(self, machine):
        s1 = HString.create(machine, b"the same content, repeated")
        lines = machine.footprint_lines()
        s2 = HString.create(machine, b"the same content, repeated")
        assert machine.footprint_lines() == lines
        assert s1.equals(s2)

    def test_single_instruction_compare(self, machine):
        a = HString.create(machine, b"x" * 500)
        b = HString.create(machine, b"x" * 500)
        c = HString.create(machine, b"x" * 499 + b"y")
        assert a.equals(b)
        assert not a.equals(c)

    def test_indexing(self, machine):
        s = HString.create(machine, b"abcdefghij")
        assert s[0] == ord("a")
        assert s[9] == ord("j")
        with pytest.raises(IndexError):
            s[10]

    def test_aligned_prefix_shares_lines(self, machine):
        long = HString.create(machine, bytes(range(64)) * 4)
        lines = machine.footprint_lines()
        long.substring(0, 128)
        # the prefix reuses the long string's leaf lines
        assert machine.footprint_lines() - lines <= 3

    def test_concat(self, machine):
        a = HString.create(machine, b"foo|bar|")
        b = HString.create(machine, b"baz")
        assert a.concat(b).to_bytes() == b"foo|bar|baz"

    def test_drop(self, machine):
        s = HString.create(machine, b"bye" * 100)
        s.drop()
        assert machine.footprint_lines() == 0


class TestHArray:
    def test_basics(self, machine):
        a = HArray.create(machine, [5, 6, 7])
        assert len(a) == 3
        assert a[1] == 6
        assert a[-1] == 7
        a[1] = 60
        assert a.to_list() == [5, 60, 7]

    def test_append_extend(self, machine):
        a = HArray.create(machine)
        for i in range(10):
            a.append(i * i)
        a.extend([900, 1000])
        assert len(a) == 12
        assert a[11] == 1000

    def test_index_error(self, machine):
        a = HArray.create(machine, [1])
        with pytest.raises(IndexError):
            a[1]
        with pytest.raises(IndexError):
            a[-2]

    def test_iter_nonzero_sparse(self, machine):
        a = HArray.create(machine, [0] * 100)
        a[17] = 5
        a[83] = 6
        assert list(a.iter_nonzero()) == [(17, 5), (83, 6)]

    def test_equals(self, machine):
        a = HArray.create(machine, [1, 2, 3])
        b = HArray.create(machine, [1, 2, 3])
        assert a.equals(b)
        b[0] = 9
        assert not a.equals(b)


class TestHMap:
    def test_put_get_delete(self, machine):
        m = HMap.create(machine)
        assert m.put(b"alpha", b"1")
        assert m.put(b"beta", b"2")
        assert m.get(b"alpha") == b"1"
        assert m.get(b"beta") == b"2"
        assert m.delete(b"alpha")
        assert m.get(b"alpha") is None
        assert len(m) == 1

    def test_update_in_place(self, machine):
        m = HMap.create(machine)
        m.put(b"k", b"v1")
        assert not m.put(b"k", b"v2")  # not new
        assert m.get(b"k") == b"v2"
        assert len(m) == 1

    def test_empty_value_distinct_from_absent(self, machine):
        m = HMap.create(machine)
        m.put(b"k", b"")
        assert m.get(b"k") == b""
        assert m.contains(b"k")
        assert m.get(b"other") is None

    def test_large_values(self, machine):
        m = HMap.create(machine)
        blob = bytes(range(256)) * 8
        m.put(b"big", blob)
        assert m.get(b"big") == blob

    def test_similar_keys_do_not_collide(self, machine):
        m = HMap.create(machine)
        m.put(b"key", b"1")
        m.put(b"key\x00", b"2")  # same packed words, different length
        m.put(b"kex", b"3")
        assert m.get(b"key") == b"1"
        assert m.get(b"key\x00") == b"2"
        assert m.get(b"kex") == b"3"

    def test_items_roundtrip(self, machine):
        m = HMap.create(machine)
        data = {b"a": b"1", b"bb": b"22", b"ccc": b"333", b"d" * 30: b"4" * 99}
        for k, v in data.items():
            m.put(k, v)
        assert dict(m.items()) == data

    def test_value_storage_dedups(self, machine):
        m = HMap.create(machine)
        blob = bytes(range(128))
        m.put(b"k1", blob)
        lines = machine.footprint_lines()
        m.put(b"k2", blob)  # same value content: shares the value DAG
        assert machine.footprint_lines() - lines <= 4

    def test_drop_reclaims_values(self, machine):
        m = HMap.create(machine)
        m.put(b"k", bytes(range(200)))
        m.drop()
        assert machine.footprint_lines() == 0

    def test_many_keys(self, machine):
        m = HMap.create(machine)
        for i in range(60):
            m.put(b"key-%d" % i, b"value-%d" % i)
        assert len(m) == 60
        for i in range(60):
            assert m.get(b"key-%d" % i) == b"value-%d" % i


class TestHQueue:
    def test_fifo_order(self, machine):
        q = HQueue.create(machine)
        for item in (b"1", b"2", b"3"):
            q.enqueue(item)
        assert [q.dequeue() for _ in range(3)] == [b"1", b"2", b"3"]

    def test_empty_dequeue(self, machine):
        q = HQueue.create(machine)
        assert q.dequeue() is None
        assert q.peek() is None
        assert len(q) == 0

    def test_interleaved(self, machine):
        q = HQueue.create(machine)
        q.enqueue(b"a")
        q.enqueue(b"b")
        assert q.dequeue() == b"a"
        q.enqueue(b"c")
        assert q.dequeue() == b"b"
        assert q.dequeue() == b"c"

    def test_empty_payload(self, machine):
        q = HQueue.create(machine)
        q.enqueue(b"")
        assert q.dequeue() == b""

    def test_dequeued_items_reclaimed(self, machine):
        q = HQueue.create(machine)
        q.enqueue(bytes(range(250)))
        lines_full = machine.footprint_lines()
        q.dequeue()
        assert machine.footprint_lines() < lines_full

    def test_racing_dequeues_serialize(self, machine):
        # a second dequeue commits inside the first one's update window:
        # the first must retry on a fresh snapshot, not merge, or both
        # would pop item-0 and the merged HEAD would skip item-1
        q = HQueue.create(machine)
        for i in range(3):
            q.enqueue(b"item-%d" % i)
        inner = []
        real = machine.atomic_update

        def racing(vsid, update, **kwargs):
            def update_then_race(it):
                update(it)
                if not inner:
                    machine.atomic_update = real
                    inner.append(q.dequeue())
            real(vsid, update_then_race, **kwargs)

        machine.atomic_update = racing
        outer = q.dequeue()
        assert sorted([inner[0], outer]) == [b"item-0", b"item-1"]
        assert q.dequeue() == b"item-2"
        assert q.dequeue() is None


class TestHCounterArray:
    def test_add_and_get(self, machine):
        c = HCounterArray.create(machine, 8)
        c.add(3, 10)
        c.add(3, -2)
        assert c.get(3) == 8

    def test_initial_values(self, machine):
        c = HCounterArray.create(machine, 4, [1, 2])
        assert c.snapshot_values() == [1, 2, 0, 0]

    def test_add_many_atomic(self, machine):
        c = HCounterArray.create(machine, 4)
        c.add_many({0: 1, 1: 2, 2: 3})
        assert c.snapshot_values() == [1, 2, 3, 0]

    def test_wrapping(self, machine):
        c = HCounterArray.create(machine, 1)
        c.add(0, (1 << 64) - 1)
        c.add(0, 1)
        assert c.get(0) == 0
