"""Linearizability checking for memcached operation histories.

The recording clients of :mod:`repro.testing.fuzz` log every operation
with a **logical invocation/completion timestamp** drawn from one shared
counter; this module decides whether the whole history is linearizable
against the memcached sequential specification.

The check is per key: operations on distinct keys commute, which is not
an approximation here but the design itself — the router's batched
merge-update path only ever merges commits on *distinct* keys (§3.4:
no logical conflict, so a lost CAS is absorbed rather than retried),
and per-key operations are serialized by the owning shard's single
writer: a landing runs to completion in one loop turn. Modeling merge-update therefore costs nothing beyond the key
partition: the commutative set-merge is invisible at the level of
single-key sequential semantics.

The order the checker must respect is the memcached contract, which is
*stronger* than plain real-time linearizability:

* **real time**: op A precedes op B when A completed before B was
  invoked (logical timestamps);
* **per-connection program order**: a connection's operations take
  effect in submission order even when pipelined — a ``get`` pipelined
  behind a ``set`` of the same key must observe it (the router lands a
  write before its connection's next request is answered).

CAS tokens are content identities (a HICAMP root compare), so token
equality is value equality: a recorded ``cas`` carries the *value* its
token was read from (``expect``), and the spec says it stores exactly
when the register still holds that value.

Operations whose response was never observed (connection reset before
the reply — "reset mid-commit") are **pending**: the checker may
linearize their effect at any point after invocation, or drop them,
matching the reality that a dispatched write may or may not have landed
from the client's point of view.

**TTL expiry** extends the register: state is ``None`` (absent) or a
``(value, expirable)`` pair, where ``expirable`` records that the store
which produced the value carried a non-zero TTL. An expirable value may
*spontaneously* transition to ``None`` at any linearization point (the
checker does not model wall-clock deadlines — any expiry schedule the
server's logical clock produces is admissible), but the transition is
one-way: once expired, the key can only return by way of another
recorded store. A value observed after expiry with no store to explain
it — a **resurrected** key, e.g. a stalled commit re-applying dead
state — is therefore a violation, which is exactly the regression the
``expiry`` fuzz profile hunts. Histories without TTLs never mark a
register expirable, so the spec is unchanged for them.

The per-key search is the classic Wing & Gill algorithm with
memoization on (resolved-operation set, register state); distinct
written values keep it effectively linear in practice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: ``expect`` marker for a cas whose token cannot match any value (the
#: client fabricated it after a missed gets); such a cas never stores.
UNMATCHABLE = object()

#: Node-expansion budget per key. Pure function of the history, so a
#: given history always yields the same verdict; sized far above what
#: distinct-value workloads ever need.
SEARCH_BUDGET = 500_000

Result = Tuple  # ("stored",) | ("value", v) | ("miss",) | ...


@dataclass
class Operation:
    """One client-observed operation in a concurrent history."""

    client: int
    seq: int                      # per-client program order
    kind: str                     # set | get | gets | cas | delete | add
    key: bytes
    value: Optional[bytes] = None   # the written value (set/add/cas)
    expect: object = None           # cas: value its token was read from
    invoked: int = 0                # logical timestamps (shared counter)
    completed: Optional[int] = None  # None -> pending (no response seen)
    result: Optional[Result] = None  # None -> pending
    ttl: int = 0                    # store TTL; non-zero -> may expire

    @property
    def pending(self) -> bool:
        return self.completed is None


class HistoryRecorder:
    """Collects operations with logical timestamps from one shared clock.

    Single-threaded asyncio gives the counter a total order for free:
    ``invoke`` stamps the operation when its bytes are written,
    ``complete`` when its response has been parsed.
    """

    def __init__(self) -> None:
        self._clock = itertools.count()
        self.ops: List[Operation] = []

    def tick(self) -> int:
        """One logical timestamp (exposed for interleaving tests)."""
        return next(self._clock)

    def invoke(self, client: int, seq: int, kind: str, key: bytes,
               value: Optional[bytes] = None,
               expect: object = None, ttl: int = 0) -> Operation:
        op = Operation(client=client, seq=seq, kind=kind, key=key,
                       value=value, expect=expect, invoked=self.tick(),
                       ttl=ttl)
        self.ops.append(op)
        return op

    def complete(self, op: Operation, result: Result) -> None:
        op.completed = self.tick()
        op.result = result

    def operations(self) -> List[Operation]:
        return list(self.ops)


# ----------------------------------------------------------------------
# the sequential specification


_FAIL = object()

#: Register state is ``None`` (absent) or ``(value, expirable)`` — the
#: stored bytes plus whether the store that produced them carried a TTL
#: (an expirable value may spontaneously expire to ``None``; see the
#: module docstring). Kept hashable: states are memoization keys.
Register = Optional[Tuple[bytes, bool]]


def _stored(op: Operation) -> Register:
    return (op.value, bool(op.ttl))


def _step(reg: Register, op: Operation, result: Result):
    """Apply ``op`` with observed ``result`` to register state ``reg``.

    Returns the next register state, or ``_FAIL`` when the observed
    result is impossible in state ``reg``.
    """
    kind = result[0]
    if op.kind == "set":
        if kind == "stored":
            return _stored(op)
        return reg  # an errored set has no effect
    if op.kind == "add":
        if kind == "stored":
            return _stored(op) if reg is None else _FAIL
        if kind == "not_stored":
            return reg if reg is not None else _FAIL
        return reg
    if op.kind in ("get", "gets"):
        if kind == "value":
            return reg if reg is not None and reg[0] == result[1] \
                else _FAIL
        if kind == "miss":
            return reg if reg is None else _FAIL
        return reg
    if op.kind == "cas":
        if kind == "stored":
            if reg is not None and op.expect is not UNMATCHABLE \
                    and reg[0] == op.expect:
                return _stored(op)
            return _FAIL
        if kind == "exists":
            if reg is not None and (op.expect is UNMATCHABLE
                                    or reg[0] != op.expect):
                return reg
            return _FAIL
        if kind == "not_found":
            return reg if reg is None else _FAIL
        return reg
    if op.kind == "delete":
        if kind == "deleted":
            return None if reg is not None else _FAIL
        if kind == "not_found":
            return reg if reg is None else _FAIL
        return reg
    raise ValueError("unknown operation kind %r" % op.kind)


def _pending_effect(reg: Register, op: Operation):
    """The state change if a pending op's lost commit actually landed.

    Returns the new register state, or ``None``-marker ``_FAIL`` when
    the op could not have taken effect in ``reg`` (in which case
    skipping it is the only branch — a failed cas/delete is a no-op).
    """
    if op.kind in ("set",):
        return _stored(op)
    if op.kind == "add":
        return _stored(op) if reg is None else _FAIL
    if op.kind == "cas":
        if reg is not None and op.expect is not UNMATCHABLE \
                and reg[0] == op.expect:
            return _stored(op)
        return _FAIL
    if op.kind == "delete":
        return None if reg is not None else _FAIL
    return _FAIL  # pending reads carry no information


# ----------------------------------------------------------------------
# the per-key search


@dataclass
class KeyVerdict:
    key: bytes
    ok: bool
    ops: int
    explanation: str = ""
    witness: List[str] = field(default_factory=list)


@dataclass
class LinearizabilityReport:
    """Outcome of checking one history."""

    verdicts: List[KeyVerdict] = field(default_factory=list)
    checked_ops: int = 0

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    @property
    def violations(self) -> List[KeyVerdict]:
        return [v for v in self.verdicts if not v.ok]

    def summary(self) -> str:
        if self.ok:
            return ("linearizable: %d ops over %d keys"
                    % (self.checked_ops, len(self.verdicts)))
        bad = self.violations
        return "NOT linearizable: %d violating key(s), first %r: %s" % (
            len(bad), bad[0].key, bad[0].explanation)


def _describe(op: Operation) -> str:
    return "c%d#%d %s %s val=%r expect=%r result=%r [%s,%s]%s" % (
        op.client, op.seq, op.kind, op.key.decode("ascii", "replace"),
        op.value, "<none>" if op.expect is UNMATCHABLE else op.expect,
        op.result, op.invoked,
        "pending" if op.pending else op.completed,
        " ttl=%d" % op.ttl if op.ttl else "")


def _check_key(key: bytes, ops: Sequence[Operation],
               initial: Register) -> KeyVerdict:
    n = len(ops)
    if n == 0:
        return KeyVerdict(key=key, ok=True, ops=0)
    # precedence masks: preds[j] has bit i set when op i must be
    # linearized (or, for pending ops, explicitly dropped) before op j
    preds = [0] * n
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            if i == j:
                continue
            if a.completed is not None and a.completed < b.invoked:
                preds[j] |= 1 << i
            elif a.client == b.client and a.seq < b.seq:
                preds[j] |= 1 << i
    completed_mask = 0
    for i, op in enumerate(ops):
        if not op.pending:
            completed_mask |= 1 << i
    all_done = completed_mask

    seen = set()
    budget = [SEARCH_BUDGET]

    def search(resolved: int, reg: Register) -> bool:
        if resolved & all_done == all_done:
            return True
        state = (resolved, reg)
        if state in seen or budget[0] <= 0:
            return False
        seen.add(state)
        budget[0] -= 1
        # spontaneous expiry: an expirable value may vanish at any
        # linearization point — one-way, so a later observation of it
        # needs a store to explain it (no resurrection)
        if reg is not None and reg[1] and search(resolved, None):
            return True
        for i in range(n):
            bit = 1 << i
            if resolved & bit or (preds[i] & ~resolved):
                continue
            op = ops[i]
            if op.pending:
                effect = _pending_effect(reg, op)
                if effect is not _FAIL and search(resolved | bit, effect):
                    return True
                if search(resolved | bit, reg):  # lost commit never landed
                    return True
            else:
                nxt = _step(reg, op, op.result)
                if nxt is not _FAIL and search(resolved | bit, nxt):
                    return True
        return False

    if search(0, initial):
        return KeyVerdict(key=key, ok=True, ops=n)
    explanation = ("no linearization of %d ops explains the observed "
                   "responses" % n)
    if budget[0] <= 0:
        explanation = "search budget exhausted over %d ops" % n
    witness = [_describe(op) for op in
               sorted(ops, key=lambda o: (o.invoked,))]
    return KeyVerdict(key=key, ok=False, ops=n, explanation=explanation,
                      witness=witness)


def check_history(ops: Sequence[Operation],
                  initial: Optional[Dict[bytes, bytes]] = None
                  ) -> LinearizabilityReport:
    """Check a whole multi-key history; see the module docstring."""
    initial = initial or {}
    by_key: Dict[bytes, List[Operation]] = {}
    for op in ops:
        by_key.setdefault(op.key, []).append(op)
    report = LinearizabilityReport(checked_ops=len(ops))
    for key in sorted(by_key):
        start = initial.get(key)
        report.verdicts.append(_check_key(
            key, by_key[key],
            None if start is None else (start, False)))
    return report
