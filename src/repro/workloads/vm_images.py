"""Synthetic VM memory images (stand-in for the paper's VMmark snapshots,
section 5.3, Figures 9-10).

A VMmark tile holds six VMs (database, java, mail, web, file, standby)
over a mix of 32/64-bit guests. What Figures 9-10 measure is duplicate
content across the tile's physical memory at two granularities: whole
4 KB pages (what a hypervisor's page sharing can reclaim) and 64-byte
lines (what HICAMP reclaims). The generator therefore composes each VM
image from:

* **zero pages** (guest free memory),
* **OS pool pages** shared by every VM running the same guest OS,
* **role pool pages** shared by VMs of the same workload role
  (application binaries, library text),
* **patched pages** — a shared page with a handful of 64-byte lines
  rewritten (relocations, dirty heap): page sharing loses the whole
  page, line dedup loses only the touched lines,
* **unique pages**: per-VM anonymous data, partially built from a
  per-role line vocabulary (intra-page, cross-VM line-level similarity)
  and partially high-entropy.

Sizes are scaled to a few hundred KB per VM (the paper's VMs are GBs);
the compaction *ratios* are governed by the composition fractions, not
the absolute size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

PAGE = 4096
LINE = 64

#: Per-role image composition. Fractions must sum to <= 1.0; the
#: remainder is unique high-entropy data. The mixes follow the workload
#: characters: the standby server is almost all zero/OS pages (the paper
#: shows it compacting the most), the database has large unique buffer
#: caches, the file server's cache is high-entropy file data.
ROLE_PROFILES: Dict[str, dict] = {
    "database": dict(pages=48, zero=0.30, os=0.20, role=0.15, patched=0.16,
                     vocab=0.12, guest="linux64"),
    "java":     dict(pages=32, zero=0.32, os=0.22, role=0.18, patched=0.14,
                     vocab=0.10, guest="linux64"),
    "mail":     dict(pages=32, zero=0.30, os=0.24, role=0.18, patched=0.14,
                     vocab=0.10, guest="win64"),
    "web":      dict(pages=20, zero=0.34, os=0.24, role=0.18, patched=0.12,
                     vocab=0.08, guest="linux32"),
    "file":     dict(pages=12, zero=0.22, os=0.20, role=0.14, patched=0.10,
                     vocab=0.08, guest="win32"),
    "standby":  dict(pages=12, zero=0.60, os=0.28, role=0.06, patched=0.03,
                     vocab=0.02, guest="win32"),
}

TILE_ROLES = ("database", "java", "mail", "web", "file", "standby")


@dataclass
class VmImage:
    """One VM's memory snapshot."""

    role: str
    vm_id: int
    pages: List[bytes] = field(default_factory=list)

    @property
    def allocated_bytes(self) -> int:
        """Configured (allocated) memory size."""
        return len(self.pages) * PAGE


class _Pools:
    """Shared page/line pools, lazily built per guest OS and role."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(("vm-pools", seed).__repr__())
        self.os_pages: Dict[str, List[bytes]] = {}
        self.role_pages: Dict[str, List[bytes]] = {}
        self.role_vocab: Dict[str, List[bytes]] = {}

    def _random_page(self) -> bytes:
        return self._rng.getrandbits(8 * PAGE).to_bytes(PAGE, "big")

    def _random_line(self) -> bytes:
        return self._rng.getrandbits(8 * LINE).to_bytes(LINE, "big")

    def os_pool(self, guest: str, size: int = 12) -> List[bytes]:
        if guest not in self.os_pages:
            self.os_pages[guest] = [self._random_page() for _ in range(size)]
        return self.os_pages[guest]

    def role_pool(self, role: str, size: int = 8) -> List[bytes]:
        if role not in self.role_pages:
            self.role_pages[role] = [self._random_page() for _ in range(size)]
        return self.role_pages[role]

    def vocab(self, role: str, size: int = 96) -> List[bytes]:
        if role not in self.role_vocab:
            self.role_vocab[role] = [self._random_line() for _ in range(size)]
        return self.role_vocab[role]


def _patch_page(rng: random.Random, page: bytes, lines: int = 2) -> bytes:
    """Rewrite a few 64-byte lines of a shared page (dirty/relocated)."""
    data = bytearray(page)
    for _ in range(lines):
        at = rng.randrange(PAGE // LINE) * LINE
        data[at:at + LINE] = rng.getrandbits(8 * LINE).to_bytes(LINE, "big")
    return bytes(data)


def _vocab_page(rng: random.Random, vocab: List[bytes]) -> bytes:
    """A page assembled from the role's line vocabulary plus noise."""
    out = []
    for _ in range(PAGE // LINE):
        if rng.random() < 0.75:
            out.append(rng.choice(vocab))
        else:
            out.append(rng.getrandbits(8 * LINE).to_bytes(LINE, "big"))
    return b"".join(out)


def generate_vm(role: str, vm_id: int, pools: _Pools, seed: int = 0) -> VmImage:
    """Generate one VM image for a role."""
    profile = ROLE_PROFILES[role]
    rng = random.Random(("vm", role, vm_id, seed).__repr__())
    os_pool = pools.os_pool(profile["guest"])
    role_pool = pools.role_pool(role)
    vocab = pools.vocab(role)
    image = VmImage(role=role, vm_id=vm_id)
    for _ in range(profile["pages"]):
        x = rng.random()
        if x < profile["zero"]:
            image.pages.append(b"\x00" * PAGE)
        elif x < profile["zero"] + profile["os"]:
            image.pages.append(rng.choice(os_pool))
        elif x < profile["zero"] + profile["os"] + profile["role"]:
            image.pages.append(rng.choice(role_pool))
        elif x < (profile["zero"] + profile["os"] + profile["role"]
                  + profile["patched"]):
            base = rng.choice(os_pool if rng.random() < 0.5 else role_pool)
            image.pages.append(_patch_page(rng, base))
        elif x < (profile["zero"] + profile["os"] + profile["role"]
                  + profile["patched"] + profile["vocab"]):
            image.pages.append(_vocab_page(rng, vocab))
        else:
            image.pages.append(rng.getrandbits(8 * PAGE).to_bytes(PAGE, "big"))
    return image


def vmmark_tile(tile_id: int, pools: _Pools = None, seed: int = 0) -> List[VmImage]:
    """The six VMs of one VMmark tile."""
    if pools is None:
        pools = _Pools(seed)
    return [generate_vm(role, tile_id * 10 + i, pools, seed)
            for i, role in enumerate(TILE_ROLES)]


def vmmark_tiles(tile_ids: Iterable[int], seed: int = 0) -> List[VmImage]:
    """The VMs of several tiles over one set of pools, tile after tile
    (the Figure 10 x-axis)."""
    pools = _Pools(seed)
    return [vm for t in tile_ids for vm in vmmark_tile(t, pools, seed)]


def scale_vms(role: str, count: int, seed: int = 0) -> List[VmImage]:
    """``count`` instances of one role's VM (the Figure 9 x-axis)."""
    pools = _Pools(seed)
    return [generate_vm(role, i, pools, seed) for i in range(count)]
