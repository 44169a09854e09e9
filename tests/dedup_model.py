"""A dict-model oracle for :class:`DedupStore`.

The suites that used to run one seeded script through two store
implementations and compare them drive the one store through
:class:`ModelledStore` instead: the model is content → PLID plus
PLID → reference count, and after every operation the store must agree
with it and pass its own index audit. A line released to zero under
epoch reclamation stays in the model at count zero (it is resident and
resurrectable) until a drain frees it.
"""

from repro.memory.dedup_store import DedupStore
from repro.params import MemoryConfig

#: 4 buckets x 2 ways: every bucket spills at once, so the store
#: resolves lookups by fingerprint over ways and overflow lines
SPILLED = MemoryConfig(num_buckets=4, data_ways=2)


def indexed_plids(store: DedupStore) -> set:
    """PLIDs of the buckets that have spilled (resolved by fingerprint)."""
    return {plid for plid in store.live_plids()
            if store.bucket_of(plid) in store._overflow}


class ModelledStore:
    """Drive ``store`` and check it against the model after every op."""

    def __init__(self, store: DedupStore) -> None:
        self.store = store
        self.baseline = store.footprint_lines()
        self.plid_of = {}   # content -> PLID, resident lines
        self.lines = {}     # PLID -> content, its inverse
        self.refs = {}      # PLID -> reference count (0 = deferred-dead)

    def lookup(self, line):
        plid, created = self.store.lookup(line)
        assert created == (line not in self.plid_of), line
        if created:
            # a fresh PLID: no two live PLIDs ever share content
            assert plid not in self.refs, "PLID %d handed out twice" % plid
            self.plid_of[line] = plid
            self.lines[plid] = line
            self.refs[plid] = 1
        else:
            assert plid == self.plid_of[line], line
            self.refs[plid] += 1
        self.check()
        return plid, created

    def decref(self, plid: int, count: int = 1) -> None:
        self.store.decref(plid, count)
        self.refs[plid] -= count
        self._forget_freed([plid])
        self.check()

    def advance(self, budget=None) -> None:
        self.store.reclaim_advance(budget)
        self._forget_freed([p for p, n in self.refs.items() if n == 0])
        self.check()

    def _forget_freed(self, plids) -> None:
        """Drop count-zero lines the store has freed. *When* a deferred
        line is freed is the reclaimer's business; :meth:`check` then
        holds the store to everything else."""
        for plid in plids:
            if self.refs[plid] == 0 and not self.store.is_allocated(plid):
                del self.plid_of[self.lines.pop(plid)], self.refs[plid]

    def check(self) -> None:
        assert self.store._refcounts == self.refs
        assert self.store._lines == self.lines
        assert self.store.index_failures() == []

    def release_all(self, held) -> None:
        """Drop every held reference; the store must return to where it
        started, no bucket spilled."""
        for plid in held:
            self.decref(plid)
        self.advance()
        assert self.refs == {} and self.plid_of == {}
        assert self.store.footprint_lines() == self.baseline
        assert self.store.indexed_buckets() == 0
