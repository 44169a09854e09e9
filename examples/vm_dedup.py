#!/usr/bin/env python
"""VM hosting on HICAMP (section 5.3): line-granularity deduplication of
VM memory images vs ideal page sharing.

Run:  python examples/vm_dedup.py
"""

from repro.apps.vmhost import measure_series
from repro.workloads.vm_images import TILE_ROLES, scale_vms, vmmark_tiles


def main() -> None:
    print("Per-role scaling (Figure 9): compaction vs #VMs")
    for role in ("database", "web", "standby"):
        print("  %s:" % role)
        # one load of ten VMs, measured as it passes 1, 4 and 10
        for m in measure_series(role, scale_vms(role, 10, seed=2),
                                (1, 4, 10)):
            print("    %2d VMs: allocated %5d KB | page sharing %.2fx "
                  "| HICAMP 64B %.2fx"
                  % (m.n_vms, m.allocated_bytes // 1024,
                     m.page_sharing_compaction, m.hicamp_compaction))

    print("\nWhole tiles (Figure 10): six mixed VMs per tile")
    images = vmmark_tiles(range(4), seed=2)
    per_tile = len(TILE_ROLES)
    # one load of four tiles, measured after each whole tile
    for m in measure_series("tiles", images,
                            range(per_tile, len(images) + 1, per_tile)):
        print("  %d tile(s), %2d VMs: page sharing %.2fx | HICAMP %.2fx"
              % (m.n_vms // per_tile, m.n_vms, m.page_sharing_compaction,
                 m.hicamp_compaction))

    print("\nWhy HICAMP beats page sharing: a guest page with a few dirty"
          "\n64-byte lines defeats page-level sharing entirely, but HICAMP"
          "\nstill shares every untouched line of it.")


if __name__ == "__main__":
    main()
