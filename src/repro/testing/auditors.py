"""Machine-level invariant auditors.

After any workload — and especially after an adversarial fuzz episode —
the HICAMP machine underneath the cache must still satisfy the
architecture's structural invariants. Each auditor returns a list of
human-readable failure strings (empty means clean); ``audit_machine``
bundles them into one :class:`AuditReport`.

* :func:`audit_refcounts` — hardware reference counting (§3.1): every
  line's stored refcount covers its in-memory references (line words
  plus segment-map roots); in ``strict`` mode any *excess* is reported
  too, which catches leaked references in a quiesced machine where the
  auditor's caller holds no snapshots or iterators of its own.
* :func:`audit_dedup` — content-unique storage: every live line's
  signature verifies (§3.1 error detection) and no two live lines hold
  identical content (the dedup property that makes root comparison a
  content compare).
* :func:`audit_segment_map` — VSID translation (§2.3): every mapped
  root is the zero entry, an inline pack, or a live PLID with a
  positive refcount; lengths fit the entry's height; every segment is
  readable end to end; and each root is the **canonical form** of its
  own content (rebuilding the segment's words reproduces the root,
  bit for bit).
* :func:`audit_index` — the lookup-by-content structures (the
  ``content -> PLID`` map and every line's stored fingerprint) are
  exactly reconstructible from the live lines: every live line is
  reachable under its *current* content, no stale or duplicate entries
  exist, and each fingerprint byte is the one its current content
  derives. The canonical-form audit stays the oracle; this proves the
  lookup path adds no state of its own.

Auditors are read-mostly: the canonical-form rebuild allocates through
the dedup store and releases everything it allocated, leaving the
footprint unchanged on a healthy machine.

**Quiesce-then-audit:** in a held store (a router's or a follower's)
released-to-zero lines stay resident until the reclaimer drains, which
would trip the refcount auditor's non-positive-count check. The drain
at the top of :func:`audit_refcounts` goes through
:meth:`repro.memory.system.MemorySystem.drain`, which quiesces the
reclaimer first — so every audit observes a store holding only live
lines, held or not, and the auditors remain the oracle for the
reclamation subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.machine import Machine
from repro.errors import IntegrityError
from repro.memory.line import (
    PlidRef,
    encode_line,
    is_zero_line,
    line_child_plids,
)
from repro.segments import dag


@dataclass
class AuditReport:
    """Combined outcome of the machine auditors."""

    failures: List[str] = field(default_factory=list)
    checks: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_if_failed(self) -> None:
        if self.failures:
            raise AssertionError(
                "machine audit failed (%d):\n  %s"
                % (len(self.failures), "\n  ".join(self.failures)))

    def summary(self) -> str:
        return ("audits=ok checks=%d" % self.checks if self.ok
                else "audits=FAILED failures=%d" % len(self.failures))


def _map_root_refs(machine: Machine) -> Dict[int, int]:
    """References on PLIDs held by segment-map entries (weak aliases
    own no reference and are skipped)."""
    segmap = machine.segmap
    refs: Dict[int, int] = {}
    for vsid in segmap.live_vsids():
        if vsid in segmap._weak_target:
            continue
        root = segmap._entries[vsid].root
        if isinstance(root, PlidRef):
            refs[root.plid] = refs.get(root.plid, 0) + 1
    return refs


def audit_refcounts(machine: Machine, strict: bool = False) -> List[str]:
    """Check stored refcounts against actual in-memory references.

    Every stored count must cover the references from line words plus
    segment-map roots; with ``strict`` (a quiesced machine, no caller-
    held snapshots/iterators) a count *above* that is a leak and is
    reported as well.
    """
    # quiesce deferred reclamation, then spill the deferred RC cache
    machine.drain()
    store = machine.mem.store
    if store.reclaimer.pending():
        return ["reclaim: %d deferred lines survived quiesce"
                % store.reclaimer.pending()]
    internal: Dict[int, int] = {}
    for line in store._lines.values():
        for child in line_child_plids(line):
            internal[child] = internal.get(child, 0) + 1
    external = _map_root_refs(machine)
    failures = []
    for plid in store.live_plids():
        held = internal.get(plid, 0) + external.get(plid, 0)
        rc = store.refcount(plid)
        if rc < held:
            failures.append(
                "refcount: PLID %d counts %d but %d references exist "
                "(%d line words + %d map roots)"
                % (plid, rc, held, internal.get(plid, 0),
                   external.get(plid, 0)))
        elif strict and rc > held:
            failures.append(
                "refcount leak: PLID %d counts %d but only %d references "
                "exist" % (plid, rc, held))
        if rc <= 0:
            failures.append(
                "refcount: live PLID %d has non-positive count %d"
                % (plid, rc))
    return failures


def audit_dedup(machine: Machine) -> List[str]:
    """Check line signatures and the content-uniqueness of live lines."""
    store = machine.mem.store
    failures = []
    seen: Dict[bytes, int] = {}
    for plid in store.live_plids():
        try:
            store.verify_line(plid)
        except IntegrityError as exc:
            failures.append("signature: PLID %d: %s" % (plid, exc))
            continue
        line = store._lines[plid]
        if is_zero_line(line):
            failures.append(
                "dedup: PLID %d is an all-zero line (must be entry 0)"
                % plid)
            continue
        content = encode_line(line)
        other = seen.setdefault(content, plid)
        if other != plid:
            failures.append(
                "dedup: PLIDs %d and %d hold identical content"
                % (other, plid))
    return failures


#: Segments at most this long are rebuilt word-by-word; longer (sparse)
#: segments — the HMap keys content into a huge index space — are
#: rebuilt from their non-zero words only.
DENSE_REBUILD_LIMIT = 4096


def audit_segment_map(machine: Machine) -> List[str]:
    """Check root validity, lengths, readability, and canonical form."""
    segmap, mem, store = machine.segmap, machine.mem, machine.mem.store
    live = set(store.live_plids())
    failures = []
    for vsid in segmap.live_vsids():
        entry = segmap.entry(vsid)
        root = entry.root
        if isinstance(root, PlidRef):
            if root.plid not in live:
                failures.append(
                    "segmap: VSID %d root PLID %d is not a live line"
                    % (vsid, root.plid))
                continue
            if store.refcount(root.plid) < 1:
                failures.append(
                    "segmap: VSID %d root PLID %d has refcount %d"
                    % (vsid, root.plid, store.refcount(root.plid)))
        if entry.length > dag.entry_capacity(mem, entry.height):
            failures.append(
                "segmap: VSID %d length %d exceeds height-%d capacity %d"
                % (vsid, entry.length, entry.height,
                   dag.entry_capacity(mem, entry.height)))
            continue
        if vsid in segmap._weak_target:
            continue  # a mirror of its target; the target is audited
        try:
            if entry.length <= DENSE_REBUILD_LIMIT:
                words = machine.read_segment(vsid)
                if len(words) != entry.length:
                    failures.append(
                        "segmap: VSID %d read %d words, map says %d"
                        % (vsid, len(words), entry.length))
                    continue
                rebuilt, height = dag.build_segment(mem, words)
                if height < entry.height:
                    rebuilt = dag.grow_entry(mem, rebuilt, height,
                                             entry.height)
                    height = entry.height
            else:
                # sparse: walking the non-zero words is the readability
                # check, and rebuilding from them the canonicality check
                nonzero = dict(dag.iter_nonzero(mem, root, entry.height))
                rebuilt = dag.write_words_bulk(mem, 0, entry.height,
                                               nonzero)
                height = entry.height
        except Exception as exc:  # any read failure is a finding
            failures.append("segmap: VSID %d unreadable: %s" % (vsid, exc))
            continue
        canonical = (height == entry.height and
                     dag.entry_key(rebuilt) == dag.entry_key(root))
        dag.release_entry(mem, rebuilt)
        if not canonical:
            failures.append(
                "segmap: VSID %d root is not the canonical form of its "
                "content" % vsid)
    return failures


def audit_index(machine: Machine) -> List[str]:
    """Check the lookup-by-content structures against the live lines.

    Delegates to :meth:`repro.memory.dedup_store.DedupStore.
    index_failures`, which derives the expected content keys and
    fingerprints from each line's actual stored content — so they are
    proven reconstructible, and a silently corrupted line shows up here
    as well as in :func:`audit_dedup`.
    """
    return machine.mem.store.index_failures()


def audit_machine(machine: Machine, strict: bool = False) -> AuditReport:
    """Run every auditor; ``strict`` enables refcount-leak detection."""
    report = AuditReport()
    store = machine.mem.store
    for failures in (audit_refcounts(machine, strict=strict),
                     audit_dedup(machine),
                     audit_segment_map(machine),
                     audit_index(machine)):
        report.failures.extend(failures)
    report.checks = len(store.live_plids()) + len(machine.segmap)
    return report
