"""Checkpoint and restore of a machine's memory image.

A pure-Python simulator is slow, so long experiments want to build a
state once (preload a cache, load VM images, assemble matrices) and
reuse it. :func:`save_machine` serializes the deduplicated store — every
line with its tagged words and exact PLID — plus the segment map, to a
JSON document; :func:`load_machine` reconstructs a machine whose PLIDs,
VSIDs, refcounts and dedup behaviour are identical to the original
(content lookups after a restore find the pre-existing lines).

Caches, DRAM counters and iterator registers are *not* part of the image
(they are transient microarchitectural state); a restored machine starts
cold.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
from typing import Any, Dict, Optional, Tuple

from repro.core.machine import Machine
from repro.errors import PersistenceError
from repro.memory.line import Inline, Line, PlidRef
from repro.params import CacheGeometry, MachineConfig, MemoryConfig
from repro.segments.segment_map import MapEntry, SegmentFlags

#: Version 3: the image config carries every ``MemoryConfig`` field by
#: name and all are required. Version 2 also carried the reclamation
#: kind, which no machine has any more; version 1 had per-field
#: defaults for images older than a field.
FORMAT_VERSION = 3


def _word_to_json(word) -> Any:
    if isinstance(word, int):
        return word
    if isinstance(word, PlidRef):
        return {"t": "P", "p": word.plid, "q": list(word.path)}
    if isinstance(word, Inline):
        return {"t": "I", "w": word.width, "v": list(word.values),
                "s": word.span}
    raise TypeError("unserializable word %r" % (word,))


def _word_from_json(obj) -> Any:
    if isinstance(obj, int):
        return obj
    if obj["t"] == "P":
        return PlidRef(obj["p"], tuple(obj["q"]))
    if obj["t"] == "I":
        return Inline(width=obj["w"], values=tuple(obj["v"]), span=obj["s"])
    raise ValueError("bad word record %r" % (obj,))


def _entry_to_json(entry) -> Any:
    return 0 if entry == 0 else _word_to_json(entry)


def _entry_from_json(obj) -> Any:
    return 0 if obj == 0 else _word_from_json(obj)


def machine_image(machine: Machine) -> Dict[str, Any]:
    """The machine's durable state as a JSON-safe document.

    Quiesces the reclaimer first (its queue is empty unless the store
    is held): deferred-dead lines must not be serialized — restoring
    them would leak count-zero lines into a machine with no reclaimer
    queue entry pointing at them.
    """
    store = machine.mem.store
    store.reclaim_quiesce()
    mc = machine.config
    lines = {str(plid): [_word_to_json(w) for w in store.peek(plid)]
             for plid in store.live_plids()}
    refcounts = {str(plid): store.refcount(plid)
                 for plid in store.live_plids()}
    segmap = {
        str(vsid): {
            "root": _entry_to_json(entry.root),
            "height": entry.height,
            "length": entry.length,
            "flags": int(entry.flags),
            "version": entry.version,
        }
        for vsid, entry in machine.segmap._entries.items()
    }
    return {
        "format": FORMAT_VERSION,
        "config": dict(
            dataclasses.asdict(mc.memory),
            cache_bytes=mc.cache.size_bytes,
            cache_ways=mc.cache.ways,
            path_compaction=mc.path_compaction,
            data_compaction=mc.data_compaction,
            iterator_registers=mc.iterator_registers,
            n_processors=mc.n_processors,
        ),
        "next_overflow": store._next_overflow,
        "free_overflow": list(store.slots.free_overflow),
        "overflow_bucket": {str(p): b
                            for p, b in store._overflow_bucket.items()},
        "lines": lines,
        "refcounts": refcounts,
        "segmap": segmap,
        "next_vsid": machine.segmap._next_vsid,
    }


def save_machine(machine: Machine, path: str) -> None:
    """Write a machine image to ``path``."""
    with open(path, "w") as f:
        json.dump(machine_image(machine), f)


def restore_machine(image: Dict[str, Any]) -> Machine:
    """Reconstruct a machine from an image document.

    Raises :class:`PersistenceError` for images written by an unknown
    ``FORMAT_VERSION`` or missing required fields — a versioned refusal
    beats silently misreading a future layout.
    """
    if not isinstance(image, dict) or "format" not in image:
        raise PersistenceError("not a machine image (no format field)")
    if image["format"] != FORMAT_VERSION:
        raise PersistenceError(
            "unsupported image format %r (this build reads version %d)"
            % (image["format"], FORMAT_VERSION))
    try:
        cfg = image["config"]
        machine = Machine(MachineConfig(
            memory=MemoryConfig(**{
                f.name: cfg[f.name]
                for f in dataclasses.fields(MemoryConfig)}),
            cache=CacheGeometry(size_bytes=cfg["cache_bytes"],
                                ways=cfg["cache_ways"],
                                line_bytes=cfg["line_bytes"]),
            path_compaction=cfg["path_compaction"],
            data_compaction=cfg["data_compaction"],
            iterator_registers=cfg["iterator_registers"],
            n_processors=cfg["n_processors"],
        ))
        store = machine.mem.store

        # restore lines at their exact PLIDs
        for plid_str, words in image["lines"].items():
            line: Line = tuple(_word_from_json(w) for w in words)
            store.restore_line(int(plid_str), line,
                               image["refcounts"][plid_str],
                               image["overflow_bucket"].get(plid_str))
        store._next_overflow = image["next_overflow"]
        store.slots.free_overflow[:] = [int(p) for p
                                        in image["free_overflow"]]

        # restore the segment map
        for vsid_str, rec in image["segmap"].items():
            machine.segmap._entries[int(vsid_str)] = MapEntry(
                root=_entry_from_json(rec["root"]),
                height=rec["height"],
                length=rec["length"],
                flags=SegmentFlags(rec["flags"]),
                version=rec["version"],
            )
        machine.segmap._next_vsid = image["next_vsid"]
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError("malformed machine image: %s" % exc) from exc
    return machine


def load_machine(path: str) -> Machine:
    """Read a machine image from ``path``."""
    with open(path) as f:
        return restore_machine(json.load(f))


# ----------------------------------------------------------------------
# file images with metadata (operator checkpoints, follower warm start)

def save_machine_file(machine: Machine, path: str,
                      extra: Optional[Dict[str, Any]] = None) -> None:
    """Write a machine image to ``path``, gzipped when it ends in ``.gz``.

    ``extra`` rides along in the document under ``"extra"`` — the
    replication CLI stores its stream table (shard → VSID) there so a
    follower warm-started from a checkpoint knows which segments the
    image's VSIDs correspond to.
    """
    image = machine_image(machine)
    if extra is not None:
        image["extra"] = extra
    data = json.dumps(image).encode()
    if path.endswith(".gz"):
        with gzip.open(path, "wb") as f:
            f.write(data)
    else:
        with open(path, "wb") as f:
            f.write(data)


def load_machine_file(path: str) -> Tuple[Machine, Dict[str, Any]]:
    """Read an image written by :func:`save_machine_file`.

    Returns ``(machine, extra)``; ``extra`` is ``{}`` when the image
    carries no metadata. Transparently handles gzip by the ``.gz``
    suffix and raises :class:`PersistenceError` on undecodable files.
    """
    try:
        if path.endswith(".gz"):
            with gzip.open(path, "rb") as f:
                data = f.read()
        else:
            with open(path, "rb") as f:
                data = f.read()
        image = json.loads(data)
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:
        raise PersistenceError("cannot read machine image %s: %s"
                               % (path, exc)) from exc
    machine = restore_machine(image)
    return machine, image.get("extra", {})
