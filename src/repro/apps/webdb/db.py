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
from repro.segments.anon import read_ref_slot
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
        with machine.snapshot(table.vsid) as snap:
            for slot in table.kvp.slots(snap):
                k_entry, k_meta, v_entry, v_meta = slot
                key = read_ref_slot(machine.mem, k_entry, k_meta)
                row = decode_row(table.schema,
                                 read_ref_slot(machine.mem, v_entry, v_meta))
                if predicate(key, row):
                    for off, word in enumerate(slot):
                        updates[4 * count + off] = word
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
            by_table: Dict[Table, List[Tuple[bytes, Optional[bytes]]]] = {}
            for table, key, row in self._writes:
                by_table.setdefault(table, []).append(
                    (key, None if row is None
                     else encode_row(table.schema, row)))
            # build new versions of each touched table privately
            for table, items in by_table.items():
                it = machine.iterator(table.vsid)
                try:
                    with table.kvp.staging(items) as stage:
                        stage(it)
                        new_root, new_height = it.build_updated_root()
                    self._txn.stage(table.vsid, new_root, new_height,
                                    it.length)
                finally:
                    machine.release_iterator(it)
            return self._txn.commit()

        def abort(self) -> None:
            """Discard buffered writes."""
            self._txn.abort()
            self._writes.clear()

    def begin(self) -> "Database.Transaction":
        """Start a multi-table transaction."""
        return Database.Transaction(self)
