"""Differential history-independence verification (``repro fuzz
--profile hi``).

HICAMP's canonical DAG makes a structure's representation a pure
function of its logical contents — so **history independence** (Attiya
et al., "History-Independent Concurrent Objects") is not a design
aspiration here but a checkable invariant: two executions that reach
the same logical state must produce *byte-identical* roots, identical
machine-independent ``segment_fingerprint``\\ s, and identical
unique-line footprints, no matter how their operations were ordered,
batched, merged, or memoized.

This module checks exactly that, differentially. A seeded **workload**
is a list of operations over one structure (HMap, ShardedHMap,
HSortedMap, HOrderedCollection, QuadTreeMatrix) with puts/inserts *and*
deletes. A **schedule** re-executes the workload on a fresh machine
under a seeded transformation that preserves only the per-key operation
order (operations on distinct keys commute logically — the same
partition argument the linearizability checker rests on):

* **permuted** — a seeded interleaving of the per-key streams, applied
  one operation at a time;
* **batched** — the same interleaving chopped at seeded boundaries,
  each run of puts landing as one ``put_many`` bulk commit (one tree
  rebuild + one root swap instead of N);
* **staged** — runs of distinct-key puts staged concurrently through
  ``put_steps`` and committed in a *different* seeded order, so later
  commits lose their CAS and are absorbed by merge-update (§3.4);

and every odd schedule runs with the structural memo enabled and the
store held (releases only queue until the observation point drains
them), so the memoized hot paths are differentially pinned to the
plain ones and deferred frees to immediate ones. After
each schedule the machine is drained, fingerprinted, audited
(:func:`~repro.testing.auditors.audit_machine` in strict mode), then
the structure is dropped and the footprint must return to the
machine's baseline — history independence of *reclamation*.

Any divergence is shrunk to a minimal operation list (greedy delta
reduction re-running only the two disagreeing schedules) and reported
with the single seed that replays it.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.machine import Machine
from repro.params import MachineConfig, MemoryConfig
from repro.segments.segment_map import SegmentFlags
from repro.structures.hmap import HMap
from repro.structures.hmap_sharded import ShardedHMap
from repro.structures.hmatrix import float_to_word, sz_index
from repro.structures.hordered import HOrderedCollection
from repro.structures.hsorted import HSortedMap
from repro.testing.auditors import audit_machine
from repro.testing.fuzz import FuzzReport, derive, run_episodes

#: The workload structures a ``hi`` episode sweeps.
STRUCTURES = ("hmap", "sharded", "hsorted", "hordered", "hmatrix")

#: Ceiling on schedule re-executions the shrinker may spend per
#: divergence (keeps a pathological failure from stalling the run).
SHRINK_BUDGET = 200


@dataclass
class HIConfig:
    """Shape of one history-independence episode (all seeded)."""

    structures: Sequence[str] = STRUCTURES
    schedules: int = 20             # permuted/interleaved re-executions
    keys: int = 16                  # distinct keys/timestamps/cells
    ops: int = 48                   # operations per workload
    value_pool: int = 6             # distinct value contents (dedup food)
    delete_ratio: float = 0.25
    shard_bits: int = 2             # ShardedHMap fan-out
    matrix_size: int = 32           # QuadTreeMatrix dimension (pow 2)
    #: memory geometry of the machines the schedules run on, passed
    #: whole. Every observation point drains the machine first, which
    #: quiesces reclamation, so fingerprints/footprints must be
    #: identical whether or not the store is held and under any
    #: geometry; a small store makes buckets spill, so lookups in them
    #: compare fingerprints during the schedules.
    memory: MemoryConfig = MemoryConfig()


# ----------------------------------------------------------------------
# workload generation: normalized ops with per-key streams


def generate_workload(seed: int, structure: str,
                      cfg: Optional[HIConfig] = None) -> List[Tuple]:
    """The seeded operation list for ``structure``.

    Ops are normalized tuples — ``("put", key, value)`` /
    ``("delete", key)`` for the maps, ``("insert", ts, payload)`` /
    ``("delete", ts)`` for the ordered collection, ``("set", row, col,
    value)`` for the matrix (0.0 = delete). The *final logical state*
    is the fold of each key's stream, so any schedule preserving
    per-key order must land on identical canonical form.
    """
    cfg = cfg or HIConfig()
    rng = random.Random(derive(seed, "workload/%s" % structure))
    values = [b"value-%d-" % i * (1 + 3 * (i % 3))
              for i in range(cfg.value_pool)]
    ops: List[Tuple] = []
    for _ in range(cfg.ops):
        slot = rng.randrange(cfg.keys)
        deleting = rng.random() < cfg.delete_ratio
        if structure == "hordered":
            ts = 1 + slot * 977          # sparse timestamps
            if deleting:
                ops.append(("delete", ts))
            else:
                ops.append(("insert", ts, values[rng.randrange(
                    cfg.value_pool)]))
        elif structure == "hmatrix":
            row = slot % cfg.matrix_size
            col = (slot * 7 + 3) % cfg.matrix_size
            value = 0.0 if deleting \
                else float(1 + rng.randrange(cfg.value_pool))
            ops.append(("set", row, col, value))
        else:
            key = b"key-%03d" % slot
            if deleting:
                ops.append(("delete", key))
            else:
                ops.append(("put", key,
                            values[rng.randrange(cfg.value_pool)]))
    return ops


def _stream_id(op: Tuple):
    """The commuting-unit a schedule must keep ordered internally."""
    if op[0] in ("put", "delete", "insert"):
        return op[1]
    return (op[1], op[2])  # matrix cell


def interleave(ops: Sequence[Tuple], seed: int,
               index: int) -> List[Tuple]:
    """Schedule ``index``: a seeded interleaving of the per-key streams.

    Schedule 0 is the workload's own order (the reference execution).
    """
    if index == 0:
        return list(ops)
    rng = random.Random(derive(seed, "schedule/%d" % index))
    streams: Dict[object, List[Tuple]] = {}
    order: List[object] = []
    for op in ops:
        sid = _stream_id(op)
        if sid not in streams:
            streams[sid] = []
            order.append(sid)
        streams[sid].append(op)
    out: List[Tuple] = []
    live = list(order)
    cursors = {sid: 0 for sid in order}
    while live:
        sid = live[rng.randrange(len(live))]
        stream = streams[sid]
        out.append(stream[cursors[sid]])
        cursors[sid] += 1
        if cursors[sid] == len(stream):
            live.remove(sid)
    return out


# ----------------------------------------------------------------------
# schedule execution


@dataclass
class Observation:
    """Everything history independence says must match across schedules."""

    fingerprints: Tuple[str, ...] = ()
    footprint_lines: int = 0
    footprint_bytes: int = 0
    audit_failures: List[str] = field(default_factory=list)
    teardown_clean: bool = True

    def divergence(self, other: "Observation") -> Optional[str]:
        """First mismatch against the reference, or None."""
        if self.fingerprints != other.fingerprints:
            return ("fingerprints %s != reference %s"
                    % (list(self.fingerprints), list(other.fingerprints)))
        if (self.footprint_lines, self.footprint_bytes) != \
                (other.footprint_lines, other.footprint_bytes):
            return ("footprint %d lines/%d bytes != reference "
                    "%d lines/%d bytes"
                    % (self.footprint_lines, self.footprint_bytes,
                       other.footprint_lines, other.footprint_bytes))
        return None


def _apply_map(target, schedule, mode: str, rng) -> None:
    """Apply a map schedule sequentially, batched, or merge-staged."""
    if mode == "sequential":
        for op in schedule:
            if op[0] == "put":
                target.put(op[1], op[2])
            else:
                target.delete(op[1])
        return
    pending = list(schedule)
    while pending:
        run: List[Tuple] = []
        limit = 1 + rng.randrange(6) if mode == "batched" else 4
        while pending and pending[0][0] == "put" and len(run) < limit:
            if mode == "staged" and any(op[1] == pending[0][1]
                                        for op in run):
                break  # staged runs need distinct keys (no conflicts)
            run.append(pending.pop(0))
        if len(run) > 1 and mode == "batched":
            target.put_many([(op[1], op[2]) for op in run])
        elif len(run) > 1:
            # stage every put against the same snapshot, then commit in
            # a seeded order: every commit after the first loses its CAS
            # and is absorbed by merge-update
            gens = [target.put_steps(op[1], op[2]) for op in run]
            for gen in gens:
                next(gen)
            rng.shuffle(gens)
            for gen in gens:
                for _ in gen:
                    pass
        elif run:
            target.put(run[0][1], run[0][2])
        else:
            op = pending.pop(0)
            target.delete(op[1])


def _execute(structure: str, schedule: Sequence[Tuple], mode: str,
             odd: bool, rng_seed: int, cfg: HIConfig) -> Observation:
    """One schedule on a fresh machine; returns its observation. An
    ``odd`` schedule runs with the memo on and the store held."""
    machine = Machine(MachineConfig(memory=cfg.memory))
    if odd:
        machine.configure_serving()
    baseline = (machine.footprint_lines(), machine.footprint_bytes())
    rng = random.Random(rng_seed)
    obs = Observation()

    if structure == "hmatrix":
        vsid = machine.create_segment([], flags=SegmentFlags.NONE)
        # fixed logical geometry (what from_coo sets), so the canonical
        # height is schedule-independent
        size = cfg.matrix_size
        machine.segmap.entry(vsid).length = size * size
        pending = [op for op in schedule]
        while pending:
            chunk = 1 if mode == "sequential" else 1 + rng.randrange(6)
            updates: Dict[int, int] = {}
            for op in pending[:chunk]:
                updates[sz_index(op[1], op[2], size)] = \
                    float_to_word(op[3])
            del pending[:chunk]
            machine.write_words(vsid, updates)
        vsids = [vsid]
        drop = lambda: machine.drop_segment(vsid)  # noqa: E731
    elif structure == "hordered":
        coll = HOrderedCollection.create(machine)
        for op in schedule:
            if op[0] == "insert":
                coll.insert(op[1], op[2])
            else:
                coll.delete(op[1])
        vsids = [coll.vsid]
        drop = coll.drop
    else:
        if structure == "hmap":
            target = HMap.create(machine)
            vsids_of = lambda: [target.vsid]  # noqa: E731
        elif structure == "sharded":
            target = ShardedHMap.create(machine,
                                        shard_bits=cfg.shard_bits)
            vsids_of = lambda: [s.vsid for s in target.shards]  # noqa: E731
        elif structure == "hsorted":
            target = HSortedMap.create(machine)
            vsids_of = lambda: [target.kvp.vsid,  # noqa: E731
                                target.index_vsid]
        else:
            raise ValueError("unknown structure %r" % structure)
        effective = mode
        if structure == "hsorted" and mode != "sequential":
            effective = "sequential"  # no bulk/staged path on HSorted
        _apply_map(target, schedule, effective, rng)
        vsids = vsids_of()
        drop = target.drop

    machine.drain()
    obs.fingerprints = tuple(
        machine.segment_fingerprint(v).hex() for v in vsids)
    obs.footprint_lines = machine.footprint_lines()
    obs.footprint_bytes = machine.footprint_bytes()
    audit = audit_machine(machine, strict=True)
    obs.audit_failures = list(audit.failures)
    drop()
    machine.drain()
    obs.teardown_clean = (
        (machine.footprint_lines(), machine.footprint_bytes()) == baseline)
    return obs


def _schedule_mode(structure: str, index: int) -> str:
    if structure in ("hordered",):
        return "sequential" if index % 2 == 0 else "batched"
    return ("sequential", "batched", "staged")[index % 3]


def _run_schedule(seed: int, structure: str, ops: Sequence[Tuple],
                  index: int, cfg: HIConfig) -> Observation:
    schedule = interleave(ops, seed, index)
    mode = _schedule_mode(structure, index)
    return _execute(structure, schedule, mode, index % 2 == 1,
                    derive(seed, "exec/%s/%d" % (structure, index)), cfg)


# ----------------------------------------------------------------------
# verification + shrinking


@dataclass
class StructureVerdict:
    structure: str
    ok: bool
    schedules: int
    fingerprints: Tuple[str, ...] = ()
    failures: List[str] = field(default_factory=list)
    minimal_ops: Optional[List[Tuple]] = None


def _shrink(seed: int, structure: str, ops: List[Tuple], index: int,
            cfg: HIConfig) -> List[Tuple]:
    """Greedy delta reduction: drop ops while the two schedules still
    disagree. Per-key order is preserved by construction (removal
    never reorders)."""
    budget = [SHRINK_BUDGET]

    def diverges(candidate: List[Tuple]) -> bool:
        if budget[0] <= 0 or not candidate:
            return False
        budget[0] -= 2
        reference = _run_schedule(seed, structure, candidate, 0, cfg)
        other = _run_schedule(seed, structure, candidate, index, cfg)
        return (other.divergence(reference) is not None
                or bool(other.audit_failures)
                or not other.teardown_clean)

    current = list(ops)
    shrunk = True
    while shrunk and budget[0] > 0:
        shrunk = False
        for at in range(len(current) - 1, -1, -1):
            candidate = current[:at] + current[at + 1:]
            if diverges(candidate):
                current = candidate
                shrunk = True
    return current


def verify_structure(seed: int, structure: str,
                     cfg: Optional[HIConfig] = None) -> StructureVerdict:
    """Run every schedule of one structure's workload and compare."""
    cfg = cfg or HIConfig()
    ops = generate_workload(seed, structure, cfg)
    reference = _run_schedule(seed, structure, ops, 0, cfg)
    verdict = StructureVerdict(structure=structure, ok=True,
                               schedules=cfg.schedules,
                               fingerprints=reference.fingerprints)
    if reference.audit_failures:
        verdict.ok = False
        verdict.failures.extend("reference audit: " + f
                                for f in reference.audit_failures)
    if not reference.teardown_clean:
        verdict.ok = False
        verdict.failures.append("reference teardown leaked lines")
    for index in range(1, cfg.schedules):
        observed = _run_schedule(seed, structure, ops, index, cfg)
        problems = []
        mismatch = observed.divergence(reference)
        if mismatch is not None:
            problems.append("schedule %d (%s%s): %s"
                            % (index, _schedule_mode(structure, index),
                               "+memo" if index % 2 else "", mismatch))
        problems.extend("schedule %d audit: %s" % (index, f)
                        for f in observed.audit_failures)
        if not observed.teardown_clean:
            problems.append("schedule %d teardown leaked lines" % index)
        if problems:
            verdict.ok = False
            verdict.failures.extend(problems)
            if verdict.minimal_ops is None:
                verdict.minimal_ops = _shrink(seed, structure, ops,
                                              index, cfg)
                verdict.failures.append(
                    "minimal repro (%d ops): %r"
                    % (len(verdict.minimal_ops), verdict.minimal_ops))
    return verdict


# ----------------------------------------------------------------------
# episodes (the fuzz-runner face)


@dataclass
class HIEpisodeResult:
    seed: int
    ok: bool
    trace: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)


def run_hi_episode(seed: int,
                   cfg: Optional[HIConfig] = None) -> HIEpisodeResult:
    """One episode: verify every configured structure under one seed."""
    cfg = cfg or HIConfig()
    trace = ["hi seed=%d structures=%d schedules=%d keys=%d ops=%d"
             % (seed, len(cfg.structures), cfg.schedules, cfg.keys,
                cfg.ops)]
    failures: List[str] = []
    for structure in cfg.structures:
        verdict = verify_structure(seed, structure, cfg)
        digest = hashlib.blake2b(
            "/".join(verdict.fingerprints).encode(),
            digest_size=6).hexdigest()
        trace.append("  %-8s schedules=%d roots=%s %s"
                     % (structure, verdict.schedules, digest,
                        "ok" if verdict.ok else "DIVERGED"))
        failures.extend("%s: %s" % (structure, f)
                        for f in verdict.failures)
    ok = not failures
    trace.append("result=%s" % ("ok" if ok else "FAILED"))
    return HIEpisodeResult(seed=seed, ok=ok, trace=trace,
                           failures=failures)


def run_hi(episodes: int = 4, seed: int = 0,
           cfg: Optional[HIConfig] = None) -> FuzzReport:
    """Run ``episodes`` seeded history-independence episodes."""
    return run_episodes(lambda s: run_hi_episode(s, cfg), episodes, seed,
                        heading="hi", profile="hi")
