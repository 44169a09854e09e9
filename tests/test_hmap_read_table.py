"""The structural memo's read table: a committed map version answers
each key once (:mod:`repro.memory.memo`, :meth:`HMap.get`).

Every differential test drives twin machines — memo on, memo off —
through the same seeded script of map operations and every way a map's
root can be swapped from outside ``HMap``'s own mutators, and requires
every answer to be equal. A table that skipped its version check, or
recorded a staged key's answer other than the one its own commit left,
answers a get with a value the map no longer holds and fails them. A
write that takes a key's presence from the table must leave the same
map as one that descends to the slot: the twins' fingerprints match.
"""

import asyncio
import cProfile
import dataclasses
import json
import random
import re

import pytest

from repro import Machine
from repro.apps.memcached.eviction import ManagedMemcached
from repro.apps.memcached.server import HicampMemcached, cas_token
from repro.concurrency.scheduler import Scheduler
from repro.core.persistence import machine_image, restore_machine
from repro.errors import IntegrityError
from repro.memory import memo as memo_module
from repro.memory.line import ref_plid
from repro.memory.memo import MAX_READS, MISS, StructuralMemo
from repro.memory.system import MemorySystem
from repro.net.server import MemcachedServer
from repro.segments import dag
from repro.structures.hmap import COUNT_OFFSET, HMap
from repro.testing.auditors import audit_machine
from tests.conftest import small_config

KEYS = ([b"k%d" % i for i in range(8)]
        + [b"a-longer-key-%02d-" % i * 2 for i in range(8)])
VALUES = [b"v%d" % i for i in range(4)] \
    + [b"a-value-from-the-pool-%d-" % i * 3 for i in range(4)]


#: decimal values, so ``incr`` finds counters
COUNTERS = [b"0", b"7", b"41", b"9000"]


class Twin:
    """A memcached map on one machine; ``memo`` selects the read
    table (the serving stack's setting) or a plain machine, ``backend``
    the memcached front whose commands write through the map."""

    def __init__(self, memo: bool, held: bool,
                 backend=HicampMemcached) -> None:
        self.memo, self.held = memo, held
        #: the memo of every machine this twin served from
        self.memos = []
        self.machine = self._start(Machine(small_config()))
        self.mc = backend(self.machine)
        # a managed front reads an expiry header before every value
        self.header = bytes(8) if backend is ManagedMemcached else b""

    def _start(self, machine):
        self.memos.append(machine.mem.memo)
        if self.memo:
            machine.mem.memo.enable()
        if self.held:
            machine.mem.store.hold_reclaim()  # as ShardRouter does
        return machine

    @property
    def kvp(self) -> HMap:
        return self.mc.kvp

    # -- root swaps from outside this handle's put/put_many/delete

    def second_handle_put(self, key, value):
        return HMap(self.machine, self.kvp.vsid).put(key, self.header + value)

    def merged_steps(self, seed, pairs):
        scheduler = Scheduler(seed=seed)
        for i, (key, value) in enumerate(pairs):
            scheduler.spawn("w%d" % i, self.kvp.put_steps(key, value))
        scheduler.run()
        return sorted(scheduler.results().items())

    def raw_remove(self, key):
        """Zero ``key``'s slot with ``Machine.write_words``."""
        if not self.kvp.contains(key):
            return False
        key_seg, base = self.kvp._key_segment(key)
        key_seg.release()
        count = self.machine.read_word(self.kvp.vsid, COUNT_OFFSET)
        updates = {base + off: 0 for off in range(4)}
        updates[COUNT_OFFSET] = count - 1
        self.machine.write_words(self.kvp.vsid, updates)
        return True

    def install_root(self, pairs):
        """Swap in another map's root, as a follower's install does."""
        other = HMap.create(self.machine)
        other.put_many(pairs)
        segmap = self.machine.segmap
        entry = segmap.entry(other.vsid)
        dag.retain_entry(self.machine.mem, entry.root)
        segmap.set_root(self.kvp.vsid, entry.root, entry.height,
                        entry.length)
        other.drop()

    def round_trip(self):
        """Persist the machine and serve from the restored image."""
        vsid = self.kvp.vsid
        self.machine = self._start(
            restore_machine(machine_image(self.machine)))
        self.mc.machine = self.machine
        self.mc.kvp = HMap(self.machine, vsid)

    # -- memcached commands, each writing through the map's mutators

    def cas(self, key, value, stale):
        """``gets`` then ``cas``, presenting the live token unless
        ``stale``."""
        got = self.mc.gets(key)
        token = cas_token(b"absent") if got is None else got[1]
        if stale:
            token = cas_token(token)
        return got, self.mc.cas(key, value, token)

    def incr(self, key, delta):
        try:
            return self.mc.incr(key, delta)
        except ValueError:  # not a counter: equally so on both twins
            return "not a counter"

    def step(self, op, args):
        kvp = self.kvp
        if op == "get":
            return kvp.get(*args)
        if op == "read":
            return self.mc.get(*args)
        if op == "contains":
            return kvp.contains(*args)
        if op == "put":
            key, value = args
            return kvp.put(key, self.header + value)
        if op == "put_many":
            return kvp.put_many([(key, self.header + value)
                                 for key, value in args[0]])
        if op == "delete":
            return kvp.delete(*args)
        if op in ("add", "replace"):
            return getattr(self.mc, op)(*args)
        if op == "flush_all":
            return self.mc.flush_all()
        if op == "round_trip":
            return self.round_trip()
        return getattr(self, op)(*args)


def _script(seed, steps):
    """A seeded operation stream: mostly reads of a small key pool,
    with the map's own writes and every foreign swap mixed in."""
    rng = random.Random(seed)
    key, value = (lambda: rng.choice(KEYS)), (lambda: rng.choice(VALUES))
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.45:
            yield "get", (key(),)
        elif roll < 0.55:
            yield "contains", (key(),)
        elif roll < 0.65:
            yield "put", (key(), value())
        elif roll < 0.71:
            # repeated keys within one batch: the last value wins
            yield "put_many", ([(key(), value())
                                for _ in range(rng.randint(1, 5))],)
        elif roll < 0.77:
            yield "delete", (key(),)
        elif roll < 0.81:
            yield "second_handle_put", (key(), value())
        elif roll < 0.85:
            yield "merged_steps", (rng.randrange(1 << 16),
                                   [(k, value()) for k in
                                    rng.sample(KEYS, 2)])
        elif roll < 0.89:
            yield "raw_remove", (key(),)
        elif roll < 0.93:
            yield "install_root", ([(key(), value()) for _ in range(3)],)
        elif roll < 0.96:
            yield "flush_all", ()
        else:
            yield "round_trip", ()


def _settle(plain, served):
    """The twins hold the same map, and the served machine is sound."""
    assert sorted(served.kvp.items()) == sorted(plain.kvp.items())
    assert len(served.kvp) == len(plain.kvp)
    for twin in (plain, served):
        twin.machine.drain()
    assert served.machine.segment_fingerprint(served.kvp.vsid) \
        == plain.machine.segment_fingerprint(plain.kvp.vsid)
    assert audit_machine(served.machine, strict=True).ok


def _run_twins(seed, steps=240, held=False):
    plain, served = Twin(False, held), Twin(True, held)
    for i, (op, args) in enumerate(_script(seed, steps)):
        want, got = plain.step(op, args), served.step(op, args)
        assert got == want, "step %d: %s%r" % (i, op, args)
    _settle(plain, served)
    return [memo.stats["read"] for memo in served.memos]


@pytest.mark.parametrize("seed", range(6))
def test_served_answers_equal_the_plain_machines(seed):
    stats = _run_twins(seed, held=bool(seed % 2))
    # the table answered, and foreign swaps and staged keys reset it
    assert sum(s.hits for s in stats) > 0
    assert sum(s.invalidations for s in stats) > 0


WRITES = ("put", "put_many", "delete", "add", "replace", "cas", "incr")


def _writes_after_gets(seed, steps):
    """A seeded stream in which every write follows a read of its key,
    so the read table answers it — unless a foreign swap lands in
    between, moving the map to a version the answer was not read at."""
    rng = random.Random(seed)
    keys, pool = KEYS[:6], VALUES[:4] + COUNTERS
    for _ in range(steps):
        key, value = rng.choice(keys), rng.choice(pool)
        yield "read", (key,)
        roll = rng.random()
        if roll < 0.1:
            yield "second_handle_put", (key, rng.choice(pool))
        elif roll < 0.2:
            yield "raw_remove", (key,)
        op = rng.choice(WRITES)
        if op == "put_many":
            # the key twice, the last value winning; a key not read
            yield op, ([(key, value), (rng.choice(KEYS), value),
                        (key, rng.choice(pool))],)
        elif op == "delete":
            yield op, (key,)
        elif op == "cas":
            yield op, (key, value, rng.random() < 0.3)
        elif op == "incr":
            yield op, (key, rng.randrange(1, 50))
        else:
            yield op, (key, value)


@pytest.mark.parametrize("backend", [HicampMemcached, ManagedMemcached])
@pytest.mark.parametrize("seed", range(3))
def test_writes_after_gets_equal_the_plain_machines(backend, seed,
                                                    monkeypatch):
    plain = Twin(False, bool(seed % 2), backend)
    served = Twin(True, bool(seed % 2), backend)
    knowns = []
    real = HMap._stage

    def spied(it, base, key_seg, key_len, value_seg, value_len, known=MISS):
        if it.mem.memo.enabled and value_seg is not None:  # puts only
            knowns.append(known)
        return real(it, base, key_seg, key_len, value_seg, value_len, known)

    monkeypatch.setattr(HMap, "_stage", staticmethod(spied))
    for i, (op, args) in enumerate(_writes_after_gets(seed, 200)):
        want, got = plain.step(op, args), served.step(op, args)
        assert got == want, "step %d: %s%r" % (i, op, args)
        assert len(served.kvp) == len(plain.kvp), "step %d" % i
    for key in KEYS:
        assert served.mc.get(key) == plain.mc.get(key)
    _settle(plain, served)
    # the served twin took presence from the table, both ways, and
    # descended for the stages the table did not answer
    assert any(k is None for k in knowns)
    assert any(isinstance(k, bytes) for k in knowns)
    assert any(k is MISS for k in knowns)


@pytest.mark.parametrize("foreign", [
    ("second_handle_put", (KEYS[0], b"other")),
    ("merged_steps", (5, [(KEYS[0], b"other"), (KEYS[1], b"x")])),
    ("raw_remove", (KEYS[0],)),
    ("install_root", ([(KEYS[0], b"other")],)),
    ("flush_all", ()),
    ("round_trip", ()),
])
def test_every_foreign_swap_is_seen(foreign):
    plain, served = Twin(False, False), Twin(True, False)
    for twin in (plain, served):
        twin.kvp.put_many([(KEYS[0], b"first"), (KEYS[1], b"second")])
        for _ in range(2):
            twin.kvp.get(KEYS[0])
            twin.kvp.get(KEYS[2])
    hits = served.machine.mem.memo.stats["read"].hits
    assert hits == 2  # the second round was answered by the table
    assert served.step(*foreign) == plain.step(*foreign)
    for key in KEYS[:3]:
        assert served.kvp.get(key) == plain.kvp.get(key)
        assert served.kvp.contains(key) == plain.kvp.contains(key)


def test_own_commits_carry_the_table_and_record_staged_keys():
    served = Twin(True, False)
    kvp, stats = served.kvp, served.machine.mem.memo.stats["read"]
    kvp.put_many([(KEYS[0], b"a"), (KEYS[1], b"b"), (KEYS[2], b"c")])
    for key in KEYS[:4]:
        kvp.get(key)
    # the put_many's three probes found an empty table, then four gets
    assert (stats.hits, stats.misses) == (0, 7)
    assert served.machine.mem.memo.sizes()["read"] == 4
    kvp.put(KEYS[0], b"a2")
    kvp.put_many([(KEYS[1], b"b2"), (KEYS[1], b"b3")])
    assert kvp.delete(KEYS[2])
    assert not kvp.delete(KEYS[5])  # absent, and not yet in the table
    # each write took its key's presence from the table (three hits, a
    # miss for KEYS[5]) and recorded what its commit left: none dropped
    assert stats.invalidations == 0
    assert (stats.hits, stats.misses) == (3, 8)
    assert [kvp.get(k) for k in KEYS[:4]] == [b"a2", b"b3", None, None]
    assert kvp.get(KEYS[5]) is None
    # every get was answered: KEYS[3] carried across all four commits
    assert (stats.hits, stats.misses) == (8, 8)
    assert served.machine.mem.memo.sizes()["read"] == 5


def test_a_failed_commit_keeps_no_carry(monkeypatch):
    served = Twin(True, False)
    kvp = served.kvp
    kvp.put(KEYS[0], b"a")
    assert kvp.get(KEYS[0]) == b"a"

    def failing_stage(it, *args):
        it.put(0, offset=COUNT_OFFSET)
        raise RuntimeError("update fails")

    monkeypatch.setattr(HMap, "_stage", staticmethod(failing_stage))
    with pytest.raises(RuntimeError):
        kvp.put(KEYS[1], b"b")
    assert kvp.get(KEYS[0]) == b"a"
    assert served.machine.mem.memo.stats["read"].hits == 1


def test_a_weak_alias_follows_its_target_and_its_drop():
    served = Twin(True, False)
    machine, kvp = served.machine, served.kvp
    kvp.put(KEYS[0], b"a")
    alias = HMap(machine, machine.segmap.create_weak_alias(kvp.vsid))
    assert alias.get(KEYS[0]) == b"a"
    assert alias.get(KEYS[0]) == b"a"
    kvp.put(KEYS[0], b"b")
    assert alias.get(KEYS[0]) == b"b"
    kvp.drop()
    assert alias.get(KEYS[0]) is None


def test_a_verifying_store_still_reports_a_corrupted_value():
    config = small_config()
    machine = Machine(dataclasses.replace(config, memory=dataclasses.replace(
        config.memory, verify_reads=True)))
    machine.mem.memo.enable()
    kvp = HMap.create(machine)
    value = b"a value spanning several sixteen-byte lines"
    kvp.put(b"key", value)
    assert kvp.get(b"key") == value
    assert kvp.get(b"key") == value
    assert machine.mem.memo.sizes()["read"] == 0
    key_seg, base = kvp._key_segment(b"key")
    key_seg.release()
    with machine.snapshot(kvp.vsid) as snap:
        value_root = snap.read(base + 2)
    store = machine.mem.store
    store.corrupt_line_for_test(ref_plid(value_root),
                                tuple(9 for _ in store.peek(
                                    ref_plid(value_root))))
    machine.mem.cache.flush()
    with pytest.raises(IntegrityError):
        kvp.get(b"key")


def test_the_table_never_exceeds_its_bound():
    memo = StructuralMemo().enable()
    for i in range(MAX_READS + 300):
        memo.put_read(1 + i % 3, 0, b"key-%d" % i, b"value")
        if i == MAX_READS - 1:  # full: touch the second-oldest answer
            assert memo.get_read(2, 0, b"key-1") == b"value"
        assert memo.sizes()["read"] <= MAX_READS
    assert memo.sizes()["read"] == MAX_READS
    assert memo.stats["read"].evictions == 300
    # least recently used goes first: the touched key outlived its peers
    assert memo.get_read(2, 0, b"key-1") == b"value"
    assert memo.get_read(1, 0, b"key-0") is MISS
    assert memo.get_read(3, 0, b"key-300") is MISS
    # a version change discards that map's answers, and only that map's
    assert memo.get_read(1, 1, b"fresh") is MISS
    memo.put_read(1, 1, b"fresh", None)
    assert memo.get_read(1, 1, b"fresh") is None
    assert memo.get_read(2, 0, b"key-1") == b"value"
    assert memo.stats["read"].invalidations == sum(
        1 for i in range(301, MAX_READS + 300) if i % 3 == 0)


def test_a_small_bound_serves_the_same_answers(monkeypatch):
    monkeypatch.setattr(memo_module, "MAX_READS", 5)
    plain, served = Twin(False, False), Twin(True, False)
    for twin in (plain, served):
        twin.kvp.put_many([(k, k + b"-value") for k in KEYS[::2]])
    rng = random.Random(3)
    for _ in range(200):
        key = rng.choice(KEYS)
        assert served.kvp.get(key) == plain.kvp.get(key)
        assert served.machine.mem.memo.sizes()["read"] <= 5
    stats = served.machine.mem.memo.stats["read"]
    assert stats.evictions > 0 and stats.hits > 0


# ----------------------------------------------------------------------
# what an answered overwrite saves, counted without a clock

#: ``MemorySystem.read``/``lookup`` calls of one overwrite in the
#: fixture's 64-key map (line size 16, held store, memo on), the value
#: already interned: of a key the read table answers present, and of
#: one it does not hold. The difference is the slot descent a presence
#: check pays (8 reads down the compacted path) plus the key-words
#: leaf the rebuild re-reads and re-interns (1 read, 1 lookup).
ANSWERED_OVERWRITE = {"read": 8, "lookup": 8}
UNANSWERED_OVERWRITE = {"read": 17, "lookup": 9}
PRESENCE_DESCENT = {"read": 8, "lookup": 0}
KEY_WORDS_LEAF = {"read": 1, "lookup": 1}


def _memory_calls(fn):
    """``MemorySystem.read``/``lookup`` calls made by ``fn()``."""
    calls = dict.fromkeys(("read", "lookup"), 0)
    real = {name: getattr(MemorySystem, name) for name in calls}

    def counting(name):
        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return real[name](self, *args, **kwargs)
        return wrapper

    for name in calls:
        setattr(MemorySystem, name, counting(name))
    try:
        fn()
    finally:
        for name in calls:
            setattr(MemorySystem, name, real[name])
    return calls


@pytest.fixture
def served_map():
    """A held, memo-on 64-key map, and its items."""
    machine = Machine(small_config())
    machine.mem.memo.enable()
    machine.mem.store.hold_reclaim()
    kvp = HMap.create(machine)
    rng = random.Random(5)
    items = [(b"key:%04d" % i, rng.randbytes(48)) for i in range(64)]
    kvp.put_many(items)
    return machine, kvp, items


def test_an_answered_overwrite_skips_the_descent_and_the_key_leaf(
        served_map):
    machine, kvp, items = served_map
    answered, unanswered = items[3][0], items[40][0]
    assert kvp.get(answered) == items[3][1]
    assert _memory_calls(lambda: kvp.put(answered, items[10][1])) \
        == ANSWERED_OVERWRITE
    assert _memory_calls(lambda: kvp.put(unanswered, items[11][1])) \
        == UNANSWERED_OVERWRITE
    key_seg, base = kvp._key_segment(unanswered)
    key_seg.release()

    def slot_word(offset):
        it = machine.iterator(kvp.vsid)
        try:
            it.get(offset)
        finally:
            machine.release_iterator(it)

    assert _memory_calls(lambda: slot_word(base + 3)) == PRESENCE_DESCENT
    for name in ANSWERED_OVERWRITE:
        assert UNANSWERED_OVERWRITE[name] - ANSWERED_OVERWRITE[name] \
            == PRESENCE_DESCENT[name] + KEY_WORDS_LEAF[name]
    assert [kvp.get(k) for k in (answered, unanswered)] \
        == [items[10][1], items[11][1]]


# ----------------------------------------------------------------------
# gets reads the map once


@pytest.mark.parametrize("backend", [HicampMemcached, ManagedMemcached])
def test_gets_reads_the_map_once(backend, monkeypatch):
    mc = backend(Machine(small_config()))  # memo off
    mc.set(b"key", b"value")
    calls = []
    real = HMap.get

    def spied(kvp, key):
        calls.append(key)
        return real(kvp, key)

    monkeypatch.setattr(HMap, "get", spied)
    value, token = mc.gets(b"key")
    assert calls == [b"key"]
    assert value == b"value"
    assert token == cas_token(b"value") == mc._token(b"key")
    assert mc.gets(b"missing") is None
    assert mc.cas(b"key", b"next", token)


# ----------------------------------------------------------------------
# observability, through a live server


async def _exchange(port, request, count):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(request)
    await writer.drain()
    out = b""
    while out.count(b"END\r\n") + out.count(b"STORED\r\n") < count:
        chunk = await reader.read(1 << 16)
        if not chunk:
            break
        out += chunk
    writer.write(b"quit\r\n")
    writer.close()
    try:
        await writer.wait_closed()
    except Exception:
        pass
    return out


def _read_ops(prom):
    return {outcome: float(value) for outcome, value in re.findall(
        r'repro_memo_ops_total\{table="read",outcome="(\w+)"\} (\S+)',
        prom)}


def test_served_gets_report_their_hits_and_a_set_keeps_its_answer():
    gets = 6

    async def scenario():
        async with MemcachedServer(port=0, shard_count=2) as server:
            port = server.port
            await _exchange(port, b"set hot 0 0 5\r\nvalue\r\n", 1)
            await server.router.drain()
            base = json.loads((await _exchange(
                port, b"stats json\r\n", 1)).split(b"\r\n")[0])["memo"]
            out = await _exchange(port, b"get hot\r\n" * gets, gets)
            assert out == b"VALUE hot 0 5\r\nvalue\r\nEND\r\n" * gets
            after_gets = json.loads((await _exchange(
                port, b"stats json\r\n", 1)).split(b"\r\n")[0])["memo"]
            await _exchange(port, b"set hot 0 0 5\r\nother\r\n", 1)
            await server.router.drain()
            out = await _exchange(port, b"get hot\r\n", 1)
            assert out == b"VALUE hot 0 5\r\nother\r\nEND\r\n"
            raw = await _exchange(port, b"stats prom\r\nstats json\r\n", 2)
            prom, rest = raw.split(b"END\r\n", 1)
            after_set = json.loads(rest.split(b"\r\n")[0])["memo"]
            return base, after_gets, after_set, prom.decode()

    base, after_gets, after_set, prom = asyncio.run(scenario())
    delta = {k: after_gets["read"][k] - base["read"][k]
             for k in ("hits", "misses", "invalidations")}
    assert delta == {"hits": gets - 1, "misses": 1, "invalidations": 0}
    # the set took the key's presence from the table (a hit) and left
    # its own answer there, so the get after it hit too
    delta = {k: after_set["read"][k] - after_gets["read"][k]
             for k in ("hits", "misses", "invalidations")}
    assert delta == {"hits": 2, "misses": 0, "invalidations": 0}
    assert after_set["read"]["entries"] == after_gets["read"]["entries"]
    ops = _read_ops(prom)
    assert set(ops) == {"hit", "miss", "eviction", "invalidation"}
    assert ops["hit"] == after_set["read"]["hits"]
    assert ops["invalidation"] == after_set["read"]["invalidations"]
    entries = re.search(r'repro_memo_entries\{table="read"\} (\S+)', prom)
    assert float(entries.group(1)) == after_set["read"]["entries"]


#: Python calls (cProfile, builtins included) per repeated get of an
#: unchanged map, memo on, CPython 3.10-3.12: 6.0 — the get, the map
#: entry's version, the table probe, its ``dict.get`` per level and its
#: LRU touch (5.0 when the entry looked a weak alias up with ``get`` and
#: the probe tested membership). A first get pays the read
#: (``tests/test_dag_single_descent.py``'s budget).
REPEATED_GET_CALL_CEILING = 7


def test_repeated_get_call_budget():
    machine = Machine()
    machine.mem.memo.enable()
    kvp = HMap.create(machine)
    rng = random.Random(2012)
    items = [(b"key:%06d" % i, rng.randbytes(64)) for i in range(200)]
    kvp.put_many(items)
    for key, value in items:
        assert kvp.get(key) == value
    profile = cProfile.Profile()
    profile.enable()
    for key, value in items:
        assert kvp.get(key) == value
    profile.disable()
    calls = sum(entry.callcount for entry in profile.getstats()) / 200
    assert calls <= REPEATED_GET_CALL_CEILING, calls
