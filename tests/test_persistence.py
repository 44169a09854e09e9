"""Tests for machine checkpoint/restore."""

import dataclasses
import gzip
import json
import os

import pytest

from repro.core.persistence import (
    FORMAT_VERSION,
    load_machine,
    machine_image,
    restore_machine,
    save_machine,
)
from repro.errors import PersistenceError
from repro.memory.dedup_store import DedupStore
from repro.memory.line import is_ref, pack, pack_for, ref
from repro.structures import HMap
from repro.testing.auditors import audit_machine
from tests.conftest import small_config
from tests.dedup_model import SPILLED, indexed_plids
from repro import Machine, MachineConfig, MemoryConfig


@pytest.fixture
def populated(machine):
    a = machine.create_segment([1, 2, 3])
    b = machine.create_segment([0] * 64)
    machine.write_words(b, {5: 50, 40: 9})
    kvp = HMap.create(machine)
    kvp.put(b"alpha", b"value-1")
    kvp.put(b"beta", bytes(range(200)))
    return machine, a, b, kvp


class TestRoundtrip:
    def test_segments_survive(self, populated, tmp_path):
        machine, a, b, kvp = populated
        path = str(tmp_path / "image.json")
        save_machine(machine, path)
        restored, _ = load_machine(path)
        assert restored.read_segment(a) == [1, 2, 3]
        assert restored.read_word(b, 5) == 50
        assert restored.read_word(b, 40) == 9

    def test_map_survives_with_working_dedup_indexes(self, populated,
                                                     tmp_path):
        machine, a, b, kvp = populated
        path = str(tmp_path / "image.json")
        save_machine(machine, path)
        restored, _ = load_machine(path)
        restored_map = HMap(restored, kvp.vsid)
        # gets rebuild key segments: dedup must find the restored lines
        assert restored_map.get(b"alpha") == b"value-1"
        assert restored_map.get(b"beta") == bytes(range(200))
        # and updates keep working
        restored_map.put(b"gamma", b"new")
        assert restored_map.get(b"gamma") == b"new"
        assert len(restored_map) == 3

    def test_footprint_identical(self, populated, tmp_path):
        machine, *_ = populated
        path = str(tmp_path / "image.json")
        save_machine(machine, path)
        restored, _ = load_machine(path)
        assert restored.footprint_lines() == machine.footprint_lines()
        assert restored.footprint_bytes() == machine.footprint_bytes()

    def test_refcounts_identical(self, populated, tmp_path):
        machine, *_ = populated
        restored = restore_machine(machine_image(machine))
        for plid in machine.mem.store.live_plids():
            assert (restored.mem.store.refcount(plid)
                    == machine.mem.store.refcount(plid))
        restored.mem.store.check_refcounts()

    def test_dedup_continues_across_restore(self, populated, tmp_path):
        machine, a, *_ = populated
        restored = restore_machine(machine_image(machine))
        lines = restored.footprint_lines()
        c = restored.create_segment([1, 2, 3])  # same content as segment a
        assert restored.footprint_lines() == lines
        assert restored.segments_equal(a, c)

    def test_drop_after_restore_reclaims(self, tmp_path):
        machine = Machine(small_config())
        vsid = machine.create_segment(list(range(500)))
        restored = restore_machine(machine_image(machine))
        restored.drop_segment(vsid)
        assert restored.footprint_lines() == 0

    def test_reclaimed_state_roundtrips(self, tmp_path):
        machine = Machine(small_config())
        vsid = machine.create_segment(list(range(100)))
        machine.drop_segment(vsid)
        restored = restore_machine(machine_image(machine))
        assert restored.footprint_lines() == 0
        restored.create_segment([7])  # allocator still sane

    def test_bad_format_rejected(self):
        with pytest.raises(PersistenceError, match="format 999"):
            restore_machine({"format": 999})

    def test_missing_format_rejected(self):
        with pytest.raises(PersistenceError):
            restore_machine({"lines": {}})

    def test_malformed_image_rejected(self):
        with pytest.raises(PersistenceError, match="malformed"):
            restore_machine({"format": FORMAT_VERSION, "config": {}})

    def test_version_1_image_refused(self, populated):
        image = machine_image(populated[0])
        image["format"] = 1
        with pytest.raises(PersistenceError,
                           match="unsupported image format 1"):
            restore_machine(image)

    def test_version_2_image_refused(self, populated):
        # version 2 also carried the reclamation kind
        image = machine_image(populated[0])
        image["format"] = 2
        with pytest.raises(PersistenceError,
                           match="unsupported image format 2"):
            restore_machine(image)

    def test_version_3_image_refused(self, populated):
        # version 3 tagged references and packs as JSON objects
        image = machine_image(populated[0])
        image["format"] = 3
        with pytest.raises(PersistenceError,
                           match="unsupported image format 3"):
            restore_machine(image)

    def test_a_word_is_its_int(self, populated):
        machine, a, *_ = populated
        image = machine_image(machine)
        words = [w for line in image["lines"].values() for w in line]
        assert FORMAT_VERSION == 4 and {type(w) for w in words} == {int}
        # the tiny segment's root is a pack, stored as the int itself
        assert image["segmap"][str(a)]["root"] == pack_for((1, 2, 3))
        assert json.loads(json.dumps(image)) == image

    @pytest.mark.parametrize("bad", [
        pack_for((1, 2)) | 1 << 40,    # a value past count * width
        pack(2, (1, 2), 2),            # not the narrowest width
        3 << 64,                       # width 3
        ~((1 << 16) << 40),            # path digits without a length
        {"t": "P", "p": 7, "q": []},   # a version-3 tagged word
        True,
    ])
    def test_a_word_no_machine_holds_is_refused(self, populated, bad):
        machine, a, *_ = populated
        image = machine_image(machine)
        plid = next(iter(image["lines"]))
        image["lines"][plid][0] = bad
        with pytest.raises(PersistenceError, match="not a data word"):
            restore_machine(image)
        image = machine_image(machine)
        image["segmap"][str(a)]["root"] = bad
        with pytest.raises(PersistenceError, match="not a data word"):
            restore_machine(image)

    def test_a_line_referencing_an_absent_plid_is_refused(
            self, populated, monkeypatch):
        image = machine_image(populated[0])
        plid, at = next((plid, at) for plid, line in image["lines"].items()
                        for at, word in enumerate(line) if is_ref(word))
        image["lines"][plid][at] = ref(777777)
        restored = []
        monkeypatch.setattr(DedupStore, "restore_line",
                            lambda *args: restored.append(args))
        with pytest.raises(PersistenceError, match="PLID 777777"):
            restore_machine(image)
        assert restored == []  # refused before any line went in

    def test_a_root_naming_an_absent_plid_is_refused(self, populated,
                                                     monkeypatch):
        machine, a, b, kvp = populated
        image = machine_image(machine)
        assert is_ref(image["segmap"][str(b)]["root"])
        image["segmap"][str(b)]["root"] = ref(777777)
        restored = []
        monkeypatch.setattr(DedupStore, "restore_line",
                            lambda *args: restored.append(args))
        with pytest.raises(PersistenceError, match="PLID 777777"):
            restore_machine(image)
        assert restored == []
        # the zero PLID counts as held
        image["segmap"][str(b)]["root"] = ref(0)
        monkeypatch.undo()
        restore_machine(image)

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(MemoryConfig)])
    def test_every_memory_field_is_carried_and_required(self, populated,
                                                        field):
        image = machine_image(populated[0])
        assert image["format"] == FORMAT_VERSION
        del image["config"][field]
        with pytest.raises(PersistenceError, match="malformed.*" + field):
            restore_machine(image)

    def test_spilled_held_store_roundtrips_index(self):
        machine = Machine(MachineConfig(memory=SPILLED))
        store = machine.mem.store
        store.hold_reclaim()
        vsid = machine.create_segment([(i * 31 + 5) for i in range(200)])
        machine.drop_segment(machine.create_segment([9] * 64))
        assert store.counters.overflow_allocations > 0
        assert store.pending_lines() > 0

        restored = restore_machine(machine_image(machine))
        rstore = restored.mem.store
        assert restored.config.memory == machine.config.memory
        assert store.pending_lines() == 0  # imaging quiesced
        assert indexed_plids(rstore) == indexed_plids(store) != set()
        assert rstore.indexed_buckets() == store.indexed_buckets()
        assert rstore.index_failures() == []
        assert restored.read_segment(vsid) == machine.read_segment(vsid)

    def test_image_from_the_per_bucket_store_restores(self):
        # written before the store's buckets became flat rows: 2 buckets
        # x 2 ways, both spilled, with a recycled overflow slot (written
        # at version 3; its tagged words since rewritten as their ints)
        path = os.path.join(os.path.dirname(__file__), "data",
                            "machine_image_v4.json")
        with open(path) as f:
            image = json.load(f)
        restored, _ = load_machine(path)
        # every PLID in place; the image's config also names the
        # deleted index_buckets field, which restore never read
        del image["config"]["index_buckets"]
        assert machine_image(restored) == image
        assert restored.mem.store.index_failures() == []
        assert restored.read_segment(2) == [1000 * w for w in range(1, 9)]
        kvp = HMap(restored, 3)
        assert (kvp.get(b"alpha"), kvp.get(b"beta")) == (b"one", b"two")
        assert audit_machine(restored, strict=True).ok

    def test_save_machine_file_plain_and_gzip(self, populated, tmp_path):
        machine, a, *_ = populated
        for name in ("image.json", "image.json.gz"):
            path = str(tmp_path / name)
            save_machine(machine, path)
            restored, extra = load_machine(path)
            assert restored.read_segment(a) == [1, 2, 3]
            assert extra == {}
        # the .gz file really is gzip-compressed JSON
        with gzip.open(str(tmp_path / "image.json.gz"), "rb") as f:
            assert json.loads(f.read())["format"] == FORMAT_VERSION

    def test_save_machine_file_extra_metadata(self, populated, tmp_path):
        machine, *_ = populated
        path = str(tmp_path / "image.json")
        save_machine(machine, path,
                          extra={"replication_streams": {"0": 1}})
        _, extra = load_machine(path)
        assert extra == {"replication_streams": {"0": 1}}

    def test_load_machine_file_garbage_rejected(self, tmp_path):
        bad = tmp_path / "bad.gz"
        bad.write_bytes(b"this is not gzip")
        with pytest.raises(PersistenceError):
            load_machine(str(bad))
        missing = str(tmp_path / "missing.json")
        with pytest.raises(FileNotFoundError):
            load_machine(missing)

    def test_overflow_lines_roundtrip(self, tmp_path):
        from repro import MachineConfig, MemoryConfig
        from repro.params import CacheGeometry
        machine = Machine(MachineConfig(
            memory=MemoryConfig(line_bytes=16, num_buckets=1, data_ways=2,
                                overflow_lines=64),
            cache=CacheGeometry(size_bytes=1024, ways=2, line_bytes=16)))
        vsids = [machine.create_segment([i + 1, 0]) for i in range(6)]
        restored = restore_machine(machine_image(machine))
        for i, vsid in enumerate(vsids):
            assert restored.read_segment(vsid) == [i + 1, 0]
