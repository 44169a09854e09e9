"""Virtual-machine hosting study (section 5.3, Figures 9-10).

Loads VM memory snapshots into the HICAMP memory system and compares the
unique-line footprint against (a) the allocated size and (b) an *ideal*
page-sharing scheme that detects every duplicate 4 KB page instantly —
the paper's upper bound on hypervisor-level sharing.
"""

from repro.apps.vmhost.study import (
    VmhostMeasurement,
    ideal_page_sharing_bytes,
    load_images_into_hicamp,
    measure_images,
    measure_series,
)

__all__ = [
    "VmhostMeasurement",
    "ideal_page_sharing_bytes",
    "load_images_into_hicamp",
    "measure_images",
    "measure_series",
]
