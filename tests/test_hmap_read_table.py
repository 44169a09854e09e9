"""The structural memo's read table: a committed map version answers
each key once (:mod:`repro.memory.memo`, :meth:`HMap.get`).

Every differential test drives twin machines — memo on, memo off —
through the same seeded script of map operations and every way a map's
root can be swapped from outside ``HMap``'s own mutators, and requires
every answer to be equal. A table that skipped its version check, or
kept a staged key's answer across its own commit, answers a get with a
value the map no longer holds and fails them.
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
from repro.memory.memo import MAX_READS, MISS, StructuralMemo
from repro.net.server import MemcachedServer
from repro.segments import dag
from repro.structures.hmap import COUNT_OFFSET, HMap
from repro.testing.auditors import audit_machine
from tests.conftest import small_config

KEYS = ([b"k%d" % i for i in range(8)]
        + [b"a-longer-key-%02d-" % i * 2 for i in range(8)])
VALUES = [b"v%d" % i for i in range(4)] \
    + [b"a-value-from-the-pool-%d-" % i * 3 for i in range(4)]


class Twin:
    """A memcached map on one machine; ``memo`` selects the read
    table (the serving stack's setting) or a plain machine."""

    def __init__(self, memo: bool, held: bool) -> None:
        self.memo, self.held = memo, held
        #: the memo of every machine this twin served from
        self.memos = []
        self.machine = self._start(Machine(small_config()))
        self.mc = HicampMemcached(self.machine)

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
        return HMap(self.machine, self.kvp.vsid).put(key, value)

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

    def step(self, op, args):
        kvp = self.kvp
        if op == "get":
            return kvp.get(*args)
        if op == "contains":
            return kvp.contains(*args)
        if op == "put":
            return kvp.put(*args)
        if op == "put_many":
            return kvp.put_many(*args)
        if op == "delete":
            return kvp.delete(*args)
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


def _run_twins(seed, steps=240, held=False):
    plain, served = Twin(False, held), Twin(True, held)
    for i, (op, args) in enumerate(_script(seed, steps)):
        want, got = plain.step(op, args), served.step(op, args)
        assert got == want, "step %d: %s%r" % (i, op, args)
    assert sorted(served.kvp.items()) == sorted(plain.kvp.items())
    assert len(served.kvp) == len(plain.kvp)
    served.machine.mem.store.reclaim_quiesce()
    assert audit_machine(served.machine, strict=True).ok
    return [memo.stats["read"] for memo in served.memos]


@pytest.mark.parametrize("seed", range(6))
def test_served_answers_equal_the_plain_machines(seed):
    stats = _run_twins(seed, held=bool(seed % 2))
    # the table answered, and foreign swaps and staged keys reset it
    assert sum(s.hits for s in stats) > 0
    assert sum(s.invalidations for s in stats) > 0


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


def test_own_commits_carry_the_table_and_drop_only_staged_keys():
    served = Twin(True, False)
    kvp, stats = served.kvp, served.machine.mem.memo.stats["read"]
    kvp.put_many([(KEYS[0], b"a"), (KEYS[1], b"b"), (KEYS[2], b"c")])
    for key in KEYS[:4]:
        kvp.get(key)
    assert (stats.hits, stats.misses) == (0, 4)
    kvp.put(KEYS[0], b"a2")
    kvp.put_many([(KEYS[1], b"b2"), (KEYS[1], b"b3")])
    assert kvp.delete(KEYS[2])
    assert not kvp.delete(KEYS[5])  # absent: no staged slot, no swap
    assert stats.invalidations == 3
    assert [kvp.get(k) for k in KEYS[:4]] == [b"a2", b"b3", None, None]
    # KEYS[3] was carried across all three commits
    assert (stats.hits, stats.misses) == (1, 7)


def test_a_failed_commit_keeps_no_carry():
    served = Twin(True, False)
    kvp = served.kvp
    kvp.put(KEYS[0], b"a")
    assert kvp.get(KEYS[0]) == b"a"

    def update(it):
        it.put(0, offset=COUNT_OFFSET)
        raise RuntimeError("update fails")

    with pytest.raises(RuntimeError):
        kvp._commit(update, ())
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
    store.corrupt_line_for_test(value_root.plid,
                                tuple(9 for _ in store.peek(
                                    value_root.plid)))
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


def test_served_gets_report_their_hits_and_a_set_its_invalidation():
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
            raw = await _exchange(port, b"stats prom\r\nstats json\r\n", 2)
            prom, rest = raw.split(b"END\r\n", 1)
            after_set = json.loads(rest.split(b"\r\n")[0])["memo"]
            return base, after_gets, after_set, prom.decode()

    base, after_gets, after_set, prom = asyncio.run(scenario())
    delta = {k: after_gets["read"][k] - base["read"][k]
             for k in ("hits", "misses", "invalidations")}
    assert delta == {"hits": gets - 1, "misses": 1, "invalidations": 0}
    assert after_set["read"]["invalidations"] \
        - after_gets["read"]["invalidations"] == 1
    assert after_set["read"]["entries"] == after_gets["read"]["entries"] - 1
    ops = _read_ops(prom)
    assert set(ops) == {"hit", "miss", "eviction", "invalidation"}
    assert ops["hit"] == after_set["read"]["hits"]
    assert ops["invalidation"] == after_set["read"]["invalidations"]
    entries = re.search(r'repro_memo_entries\{table="read"\} (\S+)', prom)
    assert float(entries.group(1)) == after_set["read"]["entries"]


#: Python calls (cProfile, builtins included) per repeated get of an
#: unchanged map, memo on, CPython 3.11: 5.0 — the get, the map entry's
#: version (two), the table probe and its LRU touch. A first get pays
#: the read (``tests/test_dag_single_descent.py``'s budget).
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
