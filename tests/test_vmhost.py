"""Unit tests for the VM-hosting dedup study."""

import pytest

from repro.analysis.experiments import VM_COUNTS
from repro.apps.vmhost import (
    VmhostMeasurement,
    ideal_page_sharing_bytes,
    load_images_into_hicamp,
    measure_images,
    measure_series,
    study,
)
from repro.memory.line import pack_words
from repro.workloads.vm_images import (
    PAGE,
    TILE_ROLES,
    VmImage,
    scale_vms,
    vmmark_tile,
    vmmark_tiles,
)


def image(role, vm_id, pages):
    return VmImage(role=role, vm_id=vm_id, pages=pages)


class TestIdealPageSharing:
    def test_duplicates_counted_once(self):
        page_a = b"\x01" * PAGE
        page_b = b"\x02" * PAGE
        vms = [image("web", 0, [page_a, page_b]),
               image("web", 1, [page_a, page_a])]
        assert ideal_page_sharing_bytes(vms) == 2 * PAGE

    def test_zero_pages_free(self):
        vms = [image("web", 0, [b"\x00" * PAGE, b"\x07" * PAGE])]
        assert ideal_page_sharing_bytes(vms) == PAGE


class TestHicampLoading:
    def test_identical_images_share_everything(self):
        page = bytes(range(256)) * (PAGE // 256)
        vms = [image("web", i, [page, page]) for i in range(3)]
        machine = load_images_into_hicamp(vms)
        # 2 identical pages x 3 identical VMs: one page worth of lines
        assert machine.footprint_bytes() < 2 * PAGE

    def test_patched_page_shares_most_lines(self):
        base = bytes(range(256)) * (PAGE // 256)
        patched = bytearray(base)
        patched[0:64] = b"\xff" * 64  # one dirty 64-byte line
        vms = [image("web", 0, [base]), image("web", 1, [bytes(patched)])]
        machine = load_images_into_hicamp(vms)
        # page sharing keeps both full pages; HICAMP shares all but ~1 line
        assert ideal_page_sharing_bytes(vms) == 2 * PAGE
        assert machine.footprint_bytes() < PAGE + PAGE // 4

    def test_measurement_fields(self):
        vms = scale_vms("standby", 2, seed=0)
        m = measure_images("standby", vms)
        assert m.n_vms == 2
        assert m.allocated_bytes == sum(vm.allocated_bytes for vm in vms)
        assert 0 < m.hicamp_bytes <= m.allocated_bytes
        assert m.hicamp_compaction >= 1.0

    def test_hicamp_at_least_page_sharing_on_real_roles(self):
        vms = scale_vms("database", 6, seed=1)
        m = measure_images("database", vms)
        # line dedup subsumes page dedup up to DAG overhead
        assert m.hicamp_bytes < m.page_sharing_bytes * 1.25

    def test_compaction_grows_with_vm_count(self):
        one = measure_images("java", scale_vms("java", 1, seed=3))
        ten = measure_images("java", scale_vms("java", 10, seed=3))
        assert ten.hicamp_compaction > one.hicamp_compaction


def reference_measure_images(label, images, line_bytes=64):
    """The measurement as it was before ``measure_series``: every image
    loaded into a machine of its own making, every page hashed again."""
    machine = study.vmhost_machine(line_bytes)
    unique = set()
    for vm in images:
        machine.create_segment(pack_words(b"".join(vm.pages)))
        for page in vm.pages:
            if page.count(0) != PAGE:
                unique.add(page)
    return VmhostMeasurement(
        label=label,
        n_vms=len(images),
        allocated_bytes=sum(vm.allocated_bytes for vm in images),
        page_sharing_bytes=len(unique) * PAGE,
        hicamp_bytes=machine.footprint_bytes(),
    )


class TestSeries:
    """One incremental load against a fresh load per count."""

    @pytest.mark.parametrize("seed", (0, 2))
    @pytest.mark.parametrize("role", TILE_ROLES)
    def test_role_series_equals_fresh_loads(self, role, seed):
        images = scale_vms(role, max(VM_COUNTS), seed=seed)
        assert measure_series(role, images, VM_COUNTS) == [
            reference_measure_images(role, images[:n]) for n in VM_COUNTS]

    def test_tile_series_equals_fresh_loads(self):
        images = vmmark_tiles((1, 2, 3), seed=2)
        counts = [len(TILE_ROLES) * t for t in (1, 2, 3)]
        assert measure_series("tiles", images, counts) == [
            reference_measure_images("tiles", images[:n]) for n in counts]

    def test_measure_images_is_a_series_of_one(self):
        images = scale_vms("web", 3, seed=1)
        assert measure_images("web", images) == \
            reference_measure_images("web", images)
        assert measure_images("web", []) == \
            reference_measure_images("web", [])

    @pytest.mark.parametrize("seed", (0, 2))
    @pytest.mark.parametrize("role", TILE_ROLES)
    def test_scale_vms_prefix_stable(self, role, seed):
        # what lets Figure 9 generate ten VMs once and measure prefixes
        ten = scale_vms(role, 10, seed=seed)
        for n in VM_COUNTS:
            assert scale_vms(role, n, seed=seed) == ten[:n]

    def test_tile_prefix_stable(self):
        six = vmmark_tiles(range(1, 7), seed=2)
        per_tile = len(TILE_ROLES)
        for t in range(1, 7):
            assert vmmark_tiles(range(1, t + 1), seed=2) == six[:per_tile * t]
            # a tile does not depend on which tiles drew from the pools first
            assert vmmark_tile(t, seed=2) == six[per_tile * (t - 1):per_tile * t]

    @pytest.mark.parametrize("counts", [(2, 1), (1, 1), (1, 4), (-1, 2), (4,)])
    def test_bad_counts_raise(self, counts):
        with pytest.raises(ValueError):
            measure_series("web", scale_vms("web", 3, seed=0), counts)

    def test_no_counts_builds_no_machine(self, monkeypatch):
        def no_machine(line_bytes=64):
            raise AssertionError("built a machine for an empty series")

        monkeypatch.setattr(study, "vmhost_machine", no_machine)
        assert measure_series("web", scale_vms("web", 2, seed=0), ()) == []
