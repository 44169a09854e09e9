"""A small in-memory database on the HICAMP structures.

What the paper sketches (section 4.4): "a client thread with a read-only
reference to the database can access the state and process a query with
its own private snapshot of the database state. It constructs a view as
a new segment that specifies the result of the query, while referencing
data directly in the database itself. Updates can be performed either by
a designated updater thread or by the (trusted) client threads."

Realization:

* a **table** is an :class:`~repro.structures.hmap.HMap` from primary key
  to an encoded row (named byte-string fields);
* a **query** runs against a snapshot of the table segment — concurrent
  commits cannot tear it (the bank-audit property of section 2.2);
* a **view** is a fresh segment whose slots hold the *root entries of
  the matching rows' key/value segments* — result sets reference the
  base data, they do not copy it, and they stay valid (pinned by the
  view's own lines) even if the rows are later deleted;
* **transactions** across tables use
  :class:`~repro.core.transactions.MultiSegmentCommit`: buffered row
  updates become visible all-or-nothing.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.machine import Machine
from repro.core.transactions import MultiSegmentCommit
from repro.structures.anon import AnonSegment, pack_meta, read_ref_slot
from repro.structures.hmap import HMap

_LEN = struct.Struct(">I")

Row = Dict[str, bytes]


def encode_row(schema: Sequence[str], row: Row) -> bytes:
    """Encode named fields as length-prefixed byte strings."""
    missing = set(row) - set(schema)
    if missing:
        raise KeyError("fields not in schema: %s" % sorted(missing))
    out = []
    for column in schema:
        value = row.get(column, b"")
        out.append(_LEN.pack(len(value)))
        out.append(value)
    return b"".join(out)


def decode_row(schema: Sequence[str], data: bytes) -> Row:
    """Inverse of :func:`encode_row`."""
    row: Row = {}
    at = 0
    for column in schema:
        (n,) = _LEN.unpack_from(data, at)
        at += 4
        row[column] = data[at:at + n]
        at += n
    return row


class Table:
    """One table: an HMap of primary key → encoded row."""

    def __init__(self, machine: Machine, name: str,
                 schema: Sequence[str]) -> None:
        self.machine = machine
        self.name = name
        self.schema = tuple(schema)
        self.kvp = HMap.create(machine)

    @property
    def vsid(self) -> int:
        """The table's map segment (transaction footprint handle)."""
        return self.kvp.vsid

    def insert(self, key: bytes, row: Row) -> None:
        """Insert or replace one row (atomic)."""
        self.kvp.put(key, encode_row(self.schema, row))

    def get(self, key: bytes) -> Optional[Row]:
        """Fetch one row by primary key."""
        data = self.kvp.get(key)
        if data is None:
            return None
        return decode_row(self.schema, data)

    def delete(self, key: bytes) -> bool:
        """Delete one row."""
        return self.kvp.delete(key)

    def rows(self) -> Iterator[Tuple[bytes, Row]]:
        """Iterate all rows over a stable snapshot."""
        for key, data in self.kvp.items():
            yield key, decode_row(self.schema, data)

    def __len__(self) -> int:
        return len(self.kvp)


class QueryView:
    """A query result: a segment of references into the base data.

    Slot ``i`` holds the matching row's key and value root entries plus
    shape words — four words per result, regardless of row size. The
    view's lines own references on those entries, so the result set
    remains readable even if the base rows are deleted afterwards.
    """

    def __init__(self, machine: Machine, table: Table, vsid: int,
                 count: int) -> None:
        self.machine = machine
        self.table = table
        self.vsid = vsid
        self.count = count

    def __len__(self) -> int:
        return self.count

    def rows(self) -> Iterator[Tuple[bytes, Row]]:
        """Materialize the referenced rows (reads through the view)."""
        with self.machine.snapshot(self.vsid) as snap:
            for i in range(self.count):
                base = 4 * i
                key = read_ref_slot(self.machine.mem, snap.read(base),
                                    snap.read(base + 1))
                data = read_ref_slot(self.machine.mem, snap.read(base + 2),
                                     snap.read(base + 3))
                yield key, decode_row(self.table.schema, data)

    def footprint_words(self) -> int:
        """Words the view itself occupies (4 per result row)."""
        return self.machine.segment_length(self.vsid)

    def drop(self) -> None:
        """Release the view (unpins the referenced versions)."""
        self.machine.drop_segment(self.vsid)


class Database:
    """Named tables plus snapshot queries and multi-table transactions."""

    def __init__(self, machine: Optional[Machine] = None) -> None:
        self.machine = machine or Machine()
        self.tables: Dict[str, Table] = {}

    def create_table(self, name: str, schema: Sequence[str]) -> Table:
        """Create a table; names are unique."""
        if name in self.tables:
            raise ValueError("table %r exists" % name)
        table = Table(self.machine, name, schema)
        self.tables[name] = table
        return table

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        return self.tables[name]

    # ------------------------------------------------------------------

    def query(self, table_name: str,
              predicate: Callable[[bytes, Row], bool]) -> QueryView:
        """Run a filter query against a private snapshot of the table.

        The long-running-read guarantee: rows committed after the query
        began are not seen; rows deleted after it began still are.
        """
        table = self.tables[table_name]
        machine = self.machine
        updates: Dict[int, object] = {}
        count = 0
        # iterate the table's snapshot; collect references, not copies
        from repro.structures.hmap import SLOT_BASE
        with machine.snapshot(table.kvp.vsid) as snap:
            slots: Dict[int, Dict[int, object]] = {}
            for offset, word in snap.iter_nonzero(start=SLOT_BASE):
                slot_base = SLOT_BASE + ((offset - SLOT_BASE) // 4) * 4
                slots.setdefault(slot_base, {})[offset - slot_base] = word
            for slot_base in sorted(slots):
                words = slots[slot_base]
                if 3 not in words:
                    continue
                k_entry, k_meta = words.get(0, 0), words.get(1, 0)
                v_entry, v_meta = words.get(2, 0), words[3]
                key = read_ref_slot(machine.mem, k_entry, k_meta)
                row = decode_row(table.schema,
                                 read_ref_slot(machine.mem, v_entry, v_meta))
                if predicate(key, row):
                    base = 4 * count
                    updates[base] = k_entry
                    updates[base + 1] = k_meta
                    updates[base + 2] = v_entry
                    updates[base + 3] = v_meta
                    count += 1
            # build the view while the snapshot still pins the entries;
            # the view's own lines take references as they materialize
            view_vsid = machine.create_segment([])
            if updates:
                machine.write_words(view_vsid, updates)
        return QueryView(machine, table, view_vsid, count)

    # ------------------------------------------------------------------

    class Transaction:
        """Buffered multi-table updates, committed all-or-nothing."""

        def __init__(self, db: "Database") -> None:
            self.db = db
            self._writes: List[Tuple[Table, bytes, Optional[Row]]] = []
            self._txn = MultiSegmentCommit(db.machine.mem, db.machine.segmap)
            for table in db.tables.values():
                self._txn.enroll(table.vsid)

        def insert(self, table_name: str, key: bytes, row: Row) -> None:
            """Buffer an insert/replace."""
            self._writes.append((self.db.tables[table_name], key, row))

        def delete(self, table_name: str, key: bytes) -> None:
            """Buffer a delete."""
            self._writes.append((self.db.tables[table_name], key, None))

        def commit(self) -> bool:
            """Apply every buffered write atomically.

            Returns False (nothing applied) if any enrolled table changed
            since the transaction began.
            """
            machine = self.db.machine
            # build new versions of each touched table privately
            by_table: Dict[Table, List[Tuple[bytes, Optional[Row]]]] = {}
            for table, key, row in self._writes:
                by_table.setdefault(table, []).append((key, row))
            from repro.structures.hmap import (
                COUNT_OFFSET,
                SLOT_BASE,
                _index_for_key,
            )

            # handles must outlive build_updated_root: the transient
            # buffer holds bare reference words until the rebuild
            # materializes lines that own them
            handles: List[AnonSegment] = []
            try:
                for table, ops in by_table.items():
                    it = machine.iterator(table.vsid)
                    try:
                        for key, row in ops:
                            key_seg = AnonSegment.from_bytes(machine.mem, key)
                            handles.append(key_seg)
                            base = SLOT_BASE + 4 * _index_for_key(
                                key_seg.root, key_seg.height, len(key))
                            was_new = it.get(base + 3) == 0
                            if row is None:
                                if not was_new:
                                    for off in range(4):
                                        it.put(0, offset=base + off)
                                    it.put(it.get(COUNT_OFFSET) - 1,
                                           offset=COUNT_OFFSET)
                                continue
                            data = encode_row(table.schema, row)
                            value_seg = AnonSegment.from_bytes(machine.mem,
                                                               data)
                            handles.append(value_seg)
                            it.put(key_seg.root, offset=base)
                            it.put(pack_meta(key_seg.height, key_seg.length,
                                             len(key)), offset=base + 1)
                            it.put(value_seg.root, offset=base + 2)
                            it.put(pack_meta(value_seg.height,
                                             value_seg.length, len(data)),
                                   offset=base + 3)
                            if was_new:
                                it.put(it.get(COUNT_OFFSET) + 1,
                                       offset=COUNT_OFFSET)
                        new_root, new_height = it.build_updated_root()
                        self._txn.stage(table.vsid, new_root, new_height,
                                        it.length)
                    finally:
                        machine.release_iterator(it)
                return self._txn.commit()
            finally:
                for handle in handles:
                    handle.release()

        def abort(self) -> None:
            """Discard buffered writes."""
            self._txn.abort()
            self._writes.clear()

    def begin(self) -> "Database.Transaction":
        """Start a multi-table transaction."""
        return Database.Transaction(self)
