"""Tests for the machine invariant auditors (and their fixtures)."""

import pytest

from repro.apps.memcached.server import HicampMemcached
from repro.memory.line import ref
from repro.testing.auditors import (
    audit_dedup,
    audit_machine,
    audit_refcounts,
    audit_segment_map,
)


def run_workload(machine, items=24):
    """A mixed memcached workload leaving the machine quiesced."""
    server = HicampMemcached(machine)
    for i in range(items):
        server.set(b"k%02d" % i, b"value-%d" % i)
    for i in range(0, items, 3):
        server.set(b"k%02d" % i, b"value-%d-rewritten" % i)
    for i in range(0, items, 5):
        server.delete(b"k%02d" % i)
    assert server.get(b"k01") == b"value-1"
    return server


class TestHealthyMachines:
    def test_quiesced_workload_audits_clean_strict(self, machine):
        run_workload(machine)
        report = audit_machine(machine, strict=True)
        assert report.ok, report.failures
        assert report.checks > 0
        assert "audits=ok" in report.summary()

    def test_audit_leaves_footprint_unchanged(self, machine):
        # the canonical-form rebuild allocates through the dedup store
        # and must release everything it allocated
        run_workload(machine)
        before = machine.footprint_lines()
        audit_machine(machine, strict=True).raise_if_failed()
        assert machine.footprint_lines() == before

    def test_plain_segments_audit_clean(self, machine):
        vsid = machine.create_segment(list(range(16)))
        machine.write_word(vsid, 3, 999)
        snap = machine.snapshot(vsid)
        machine.write_word(vsid, 3, 1000)
        snap.release()
        # a caller-held snapshot was released; strict must hold
        audit_machine(machine, strict=True).raise_if_failed()

    def test_fresh_machine_is_clean(self, audited_machine):
        # the audited_machine fixture strict-audits at teardown; a
        # small balanced workload must satisfy it
        run_workload(audited_machine, items=8)


class TestInjectedCorruption:
    def _target_plid(self, machine):
        store = machine.mem.store
        # a line that other lines point into (has internal references)
        for plid in store.live_plids():
            if store.refcount(plid) > 0:
                return plid
        pytest.fail("workload produced no live lines")

    def test_refcount_underflow_is_caught(self, machine):
        run_workload(machine)
        machine.drain()
        store = machine.mem.store
        plid = self._target_plid(machine)
        store._refcounts[plid] = 0  # simulate a dropped count
        failures = audit_refcounts(machine)
        assert any("PLID %d" % plid in f for f in failures)

    def test_leaked_reference_needs_strict(self, machine):
        run_workload(machine)
        store = machine.mem.store
        store.incref(self._target_plid(machine))  # nobody owns this ref
        assert audit_refcounts(machine) == []
        assert any("leak" in f for f in audit_refcounts(machine,
                                                        strict=True))

    def test_corrupted_line_content_is_caught(self, machine):
        run_workload(machine)
        store = machine.mem.store
        plids = store.live_plids()
        # overwrite one line with another's content, like a DRAM flip;
        # its content no longer hashes to the bucket it lives in
        store.corrupt_line_for_test(plids[0], store.peek(plids[1]))
        failures = audit_dedup(machine)
        assert failures
        assert any("signature" in f or "dedup" in f for f in failures)

    def test_dangling_segmap_root_is_caught(self, machine):
        server = run_workload(machine)
        segmap = machine.segmap
        vsid = server.kvp.vsid
        entry = segmap._entries[vsid]
        entry.root = ref((1 << 40) - 1)  # no such line
        failures = audit_segment_map(machine)
        assert any("not a live line" in f for f in failures)

    def test_audit_machine_bundles_all(self, machine):
        run_workload(machine)
        store = machine.mem.store
        store._refcounts[self._target_plid(machine)] = 0
        report = audit_machine(machine)
        assert not report.ok
        with pytest.raises(AssertionError):
            report.raise_if_failed()
        assert "FAILED" in report.summary()


class TestFixtures:
    def test_machine_audit_fixture_raises_on_failure(self, machine,
                                                     machine_audit):
        run_workload(machine)
        machine_audit(machine, strict=True)  # clean: no raise
        machine.mem.store._refcounts[self._first_live(machine)] = 0
        with pytest.raises(AssertionError):
            machine_audit(machine)

    @staticmethod
    def _first_live(machine):
        store = machine.mem.store
        for plid in store.live_plids():
            if store.refcount(plid) > 0:
                return plid
        pytest.fail("no live lines")
