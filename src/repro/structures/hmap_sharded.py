"""The sharded key-value map (section 5.1.1, closing paragraph).

"If contention on a map is high for merge-updates, the map can be split
into an array of segments (i.e. a segment that points to the
subsegments), indexed by several bits of the key PLID, while the rest of
key PLID bits can be used as offset within the selected subsegment. Such
a split would reduce probability of conflict and re-execution even
further."

:class:`ShardedHMap` realizes that: a directory of ``2**shard_bits``
sub-maps, the shard selected by low bits of the key's content-unique
index. Updates to keys in different shards never even share a CAS
target, so the conflict window shrinks by the shard count.
"""

from __future__ import annotations

import zlib

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.machine import Machine
from repro.segments.anon import AnonSegment
from repro.structures.hmap import HMap, key_index


class ShardedHMap:
    """A map split across ``2**shard_bits`` independent sub-maps."""

    def __init__(self, machine: Machine, shards: List[HMap],
                 shard_bits: int) -> None:
        self.machine = machine
        self.shards = shards
        self.shard_bits = shard_bits

    @classmethod
    def create(cls, machine: Machine, shard_bits: int = 2) -> "ShardedHMap":
        """Create ``2**shard_bits`` shards."""
        if not 0 <= shard_bits <= 8:
            raise ValueError("shard_bits out of range")
        shards = [HMap.create(machine) for _ in range(1 << shard_bits)]
        return cls(machine, shards, shard_bits)

    # ------------------------------------------------------------------

    def _with_shard(self, key: bytes, op):
        # The key segment must stay alive across the whole operation:
        # its content-unique index (and hence shard choice) is only
        # stable while its lines are pinned.
        seg = AnonSegment.from_bytes(self.machine.mem, key)
        try:
            return op(self.shards[self._selector(seg, len(key))])
        finally:
            seg.release()

    def _selector(self, seg: AnonSegment, key_len: int) -> int:
        index = key_index(seg.root, seg.height, key_len)
        # "indexed by several bits of the key PLID": fold the
        # content-unique identity so the selector bits vary for both
        # line-referenced and inline-compacted key roots
        digest = zlib.crc32(index.to_bytes((index.bit_length() + 7) // 8
                                           or 1, "big"))
        return digest & ((1 << self.shard_bits) - 1)

    def shard_for(self, key: bytes) -> HMap:
        """The sub-map that holds ``key`` (stable for a given content)."""
        return self._with_shard(key, lambda shard: shard)

    def get(self, key: bytes) -> Optional[bytes]:
        """Value for ``key`` or None."""
        return self._with_shard(key, lambda shard: shard.get(key))

    def put(self, key: bytes, value: bytes) -> bool:
        """Insert or update; returns True when new."""
        return self._with_shard(key, lambda shard: shard.put(key, value))

    def put_many(self, items: Sequence[Tuple[bytes, Optional[bytes]]]
                 ) -> List[bool]:
        """Bulk write (a None value deletes): one atomic commit *per
        touched shard*.

        Items are grouped by owning shard and each group goes through
        :meth:`HMap.put_many`, so a batch of N keys costs at most
        ``2**shard_bits`` tree rebuilds instead of N. Returns its flags
        in input order.
        """
        results = [False] * len(items)
        groups: Dict[int, List[Tuple[int, bytes, bytes]]] = {}
        # Pin every key segment until its group has committed: the shard
        # selector is only stable while the key's lines stay allocated,
        # and after the commit nothing needs it.
        pins: List[AnonSegment] = []
        try:
            for idx, (key, value) in enumerate(items):
                seg = AnonSegment.from_bytes(self.machine.mem, key)
                pins.append(seg)
                selector = self._selector(seg, len(key))
                groups.setdefault(selector, []).append((idx, key, value))
            for selector in sorted(groups):
                group = groups[selector]
                flags = self.shards[selector].put_many(
                    [(k, v) for _, k, v in group])
                for (idx, _, _), created in zip(group, flags):
                    results[idx] = created
        finally:
            for seg in pins:
                seg.release()
        return results

    def put_steps(self, key: bytes, value: bytes, max_retries: int = 16):
        """Generator variant of :meth:`put` (see :meth:`HMap.put_steps`).

        Routed to the owning shard, so concurrent updates in *different*
        shards never even share a CAS target — the update window only
        interleaves with same-shard clients.
        """
        retries = yield from self.shard_for(key).put_steps(
            key, value, max_retries)
        return retries

    def delete(self, key: bytes) -> bool:
        """Remove ``key``."""
        return self._with_shard(key, lambda shard: shard.delete(key))

    def contains(self, key: bytes) -> bool:
        """Membership test."""
        return self._with_shard(key, lambda shard: shard.contains(key))

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """All items (shard by shard; per-shard snapshot consistency)."""
        for shard in self.shards:
            for item in shard.items():
                yield item

    def drop(self) -> None:
        """Release every shard."""
        for shard in self.shards:
            shard.drop()
