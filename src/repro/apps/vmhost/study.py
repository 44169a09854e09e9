"""VM-hosting deduplication measurements (section 5.3).

The paper took VMmark VM memory snapshots, loaded them "into HICAMP's
memory system simulator to compute the total number of memory lines
required", and compared against an ideal page-sharing scheme. The same
pipeline runs here over the synthetic images of
:mod:`repro.workloads.vm_images`:

* **allocated** — the configured memory of all VMs;
* **page sharing (ideal)** — unique 4 KB pages x 4 KB, the instantaneous
  dedup upper bound for a hypervisor;
* **HICAMP** — each VM image becomes one segment; the footprint is the
  machine's unique-line count (DAG overhead included), measured at the
  paper's 64-byte line size by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Set

from repro.core.machine import Machine
from repro.memory.line import pack_words
from repro.params import CacheGeometry, MachineConfig, MemoryConfig
from repro.workloads.vm_images import PAGE, VmImage


@dataclass
class VmhostMeasurement:
    """One Figure 9/10 data point."""

    label: str
    n_vms: int
    allocated_bytes: int
    page_sharing_bytes: int
    hicamp_bytes: int

    @property
    def hicamp_compaction(self) -> float:
        """Allocated over HICAMP bytes (the paper's 1.86x-10.87x range)."""
        return self.allocated_bytes / max(1, self.hicamp_bytes)

    @property
    def page_sharing_compaction(self) -> float:
        """Allocated over ideal-page-sharing bytes (1.44x-5.21x range)."""
        return self.allocated_bytes / max(1, self.page_sharing_bytes)


def vmhost_machine(line_bytes: int = 64) -> Machine:
    """A machine sized for whole-image footprint loading."""
    return Machine(MachineConfig(
        memory=MemoryConfig(line_bytes=line_bytes, num_buckets=1 << 15,
                            data_ways=12, overflow_lines=1 << 22),
        cache=CacheGeometry(size_bytes=1 << 20, ways=16, line_bytes=line_bytes),
    ))


def _shareable_pages(image: VmImage) -> Iterator[bytes]:
    """The image's non-zero pages (zero pages are free in both schemes)."""
    return (page for page in image.pages if page.count(0) != PAGE)


def ideal_page_sharing_bytes(images: Iterable[VmImage]) -> int:
    """Unique non-zero pages across all images, at page granularity."""
    unique: Set[bytes] = set()
    for image in images:
        unique.update(_shareable_pages(image))
    return len(unique) * PAGE


def _load_image(machine: Machine, image: VmImage) -> None:
    machine.create_segment(pack_words(b"".join(image.pages)))


def load_images_into_hicamp(images: Iterable[VmImage],
                            line_bytes: int = 64) -> Machine:
    """Load every image as a segment; returns the machine for inspection."""
    machine = vmhost_machine(line_bytes)
    for image in images:
        _load_image(machine, image)
    return machine


def measure_series(label: str, images: Sequence[VmImage],
                   counts: Iterable[int],
                   line_bytes: int = 64) -> List[VmhostMeasurement]:
    """One measurement per prefix ``images[:n]``, ``n`` in ``counts``.

    The images are loaded in order into one machine and each prefix is
    measured as the load passes it. Step ``n`` of that load is the
    operation sequence a fresh load of ``images[:n]`` performs, so every
    point equals what a machine loaded with that prefix alone reports.
    ``counts`` must ascend strictly within ``0..len(images)``.
    """
    counts = list(counts)
    ascending = all(a < b for a, b in zip(counts, counts[1:]))
    if not ascending or (counts and (counts[0] < 0
                                     or counts[-1] > len(images))):
        raise ValueError("counts %r must ascend within 0..%d"
                         % (counts, len(images)))
    if not counts:
        return []
    machine = vmhost_machine(line_bytes)
    series = []
    loaded = allocated = 0
    unique_pages: Set[bytes] = set()
    for count in counts:
        for image in images[loaded:count]:
            _load_image(machine, image)
            allocated += image.allocated_bytes
            unique_pages.update(_shareable_pages(image))
        loaded = count
        series.append(VmhostMeasurement(
            label=label,
            n_vms=count,
            allocated_bytes=allocated,
            page_sharing_bytes=len(unique_pages) * PAGE,
            hicamp_bytes=machine.footprint_bytes(),
        ))
    return series


def measure_images(label: str, images: List[VmImage],
                   line_bytes: int = 64) -> VmhostMeasurement:
    """Allocated / page-sharing / HICAMP bytes for a set of VM images."""
    return measure_series(label, images, (len(images),), line_bytes)[0]
