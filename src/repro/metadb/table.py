"""Table storage: schemas, typed columns, rows and constraint checks.

Rows are stored as a dict ``rowid -> dict(column -> value)``.  Row ids
are internal, monotonically increasing integers — they give UPDATE and
DELETE a stable handle, and let the transaction layer journal precise
undo records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterator

from ..errors import ConstraintError, SchemaError
from .ast_nodes import ColumnDef
from .index import HashIndex, UniqueIndex

__all__ = ["Column", "Table"]

_VALID_TYPES = {"INTEGER", "REAL", "TEXT", "JSON"}


@dataclass(frozen=True)
class Column:
    """One column of a table schema."""

    name: str
    type_name: str
    primary_key: bool = False
    not_null: bool = False
    unique: bool = False
    default: Any = None
    has_default: bool = False

    @classmethod
    def from_def(cls, cdef: ColumnDef) -> "Column":
        if cdef.type_name not in _VALID_TYPES:
            raise SchemaError(f"unknown column type {cdef.type_name!r}")
        return cls(
            cdef.name,
            cdef.type_name,
            cdef.primary_key,
            cdef.not_null or cdef.primary_key,
            cdef.unique or cdef.primary_key,
            cdef.default,
            cdef.has_default,
        )

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` to this column's type; raise on impossibility."""
        if value is None:
            return None
        if self.type_name == "INTEGER":
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, int):
                return value
            if isinstance(value, float) and value.is_integer():
                return int(value)
            if isinstance(value, str):
                try:
                    return int(value)
                except ValueError:
                    pass
            raise ConstraintError(
                f"column {self.name!r}: cannot store {value!r} as INTEGER"
            )
        if self.type_name == "REAL":
            if isinstance(value, bool):
                return float(value)
            if isinstance(value, (int, float)):
                return float(value)
            if isinstance(value, str):
                try:
                    return float(value)
                except ValueError:
                    pass
            raise ConstraintError(
                f"column {self.name!r}: cannot store {value!r} as REAL"
            )
        if self.type_name == "TEXT":
            if isinstance(value, str):
                return value
            if isinstance(value, (int, float)):
                return str(value)
            raise ConstraintError(
                f"column {self.name!r}: cannot store {value!r} as TEXT"
            )
        # JSON: any json-serialisable structure (the brick lists of
        # DPFS-FILE-DISTRIBUTION live here).
        try:
            json.dumps(value)
        except (TypeError, ValueError) as exc:
            raise ConstraintError(
                f"column {self.name!r}: value is not JSON-serialisable: {exc}"
            ) from exc
        return value


class Table:
    """Heap of rows plus unique indexes for PK/UNIQUE columns."""

    def __init__(self, name: str, columns: list[Column]) -> None:
        if not columns:
            raise SchemaError(f"table {name!r} needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column name in table {name!r}")
        if sum(1 for c in columns if c.primary_key) > 1:
            raise SchemaError(f"table {name!r}: multiple PRIMARY KEY columns")
        self.name = name
        self.columns = list(columns)
        self.column_names = names
        self._by_name = {c.name: c for c in columns}
        self.rows: dict[int, dict[str, Any]] = {}
        self._next_rowid = 1
        self.indexes: dict[str, UniqueIndex] = {
            c.name: UniqueIndex(c.name) for c in columns if c.unique
        }
        #: non-unique secondary indexes: index name → (column, HashIndex)
        self.secondary: dict[str, tuple[str, HashIndex]] = {}

    # -- secondary indexes ---------------------------------------------------
    def create_secondary_index(self, name: str, column: str) -> None:
        """Build a non-unique hash index over an existing column."""
        self.column(column)  # validates
        if name in self.secondary:
            raise SchemaError(f"index {name!r} already exists")
        index = HashIndex(column)
        for rowid, row in self.rows.items():
            index.add(row.get(column), rowid)
        self.secondary[name] = (column, index)

    def drop_secondary_index(self, name: str) -> None:
        if name not in self.secondary:
            raise SchemaError(f"no such index {name!r}")
        del self.secondary[name]

    def secondary_for_column(self, column: str) -> HashIndex | None:
        for col, index in self.secondary.values():
            if col == column:
                return index
        return None

    # -- schema ------------------------------------------------------------
    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    @property
    def primary_key(self) -> Column | None:
        for col in self.columns:
            if col.primary_key:
                return col
        return None

    def __len__(self) -> int:
        return len(self.rows)

    def scan(self) -> Iterator[tuple[int, dict[str, Any]]]:
        """Iterate (rowid, row) in insertion order."""
        yield from list(self.rows.items())

    # -- row operations -------------------------------------------------------
    def prepare_row(self, values: dict[str, Any]) -> dict[str, Any]:
        """Coerce + fill defaults + check NOT NULL for an insert."""
        row: dict[str, Any] = {}
        for col in self.columns:
            if col.name in values:
                row[col.name] = col.coerce(values[col.name])
            elif col.has_default:
                row[col.name] = col.coerce(col.default)
            else:
                row[col.name] = None
            if row[col.name] is None and col.not_null:
                raise ConstraintError(
                    f"column {self.name}.{col.name} is NOT NULL"
                )
        unknown = set(values) - set(self.column_names)
        if unknown:
            raise SchemaError(
                f"table {self.name!r} has no column(s) {sorted(unknown)}"
            )
        return row

    def insert(self, values: dict[str, Any]) -> int:
        """Insert a row; returns its rowid.  Values are pre-validated here."""
        row = self.prepare_row(values)
        for col_name, index in self.indexes.items():
            value = row[col_name]
            if index.get(value) is not None:
                raise ConstraintError(
                    f"duplicate value {value!r} for unique column "
                    f"{self.name}.{col_name}"
                )
        rowid = self._next_rowid
        self._next_rowid += 1
        self.rows[rowid] = row
        for col_name, index in self.indexes.items():
            index.add(row[col_name], rowid)
        for _name, (column, index) in self.secondary.items():
            index.add(row.get(column), rowid)
        return rowid

    def insert_with_rowid(self, rowid: int, row: dict[str, Any]) -> None:
        """Re-insert an exact row (transaction undo / WAL replay path)."""
        if rowid in self.rows:
            raise ConstraintError(f"rowid {rowid} already present")
        self.rows[rowid] = dict(row)
        self._next_rowid = max(self._next_rowid, rowid + 1)
        for col_name, index in self.indexes.items():
            index.add(row.get(col_name), rowid)
        for _name, (column, index) in self.secondary.items():
            index.add(row.get(column), rowid)

    def update(self, rowid: int, changes: dict[str, Any]) -> dict[str, Any]:
        """Apply ``changes``; returns the *previous* row for undo logging."""
        old = self.rows[rowid]
        new = dict(old)
        for name, value in changes.items():
            col = self.column(name)
            coerced = col.coerce(value)
            if coerced is None and col.not_null:
                raise ConstraintError(f"column {self.name}.{name} is NOT NULL")
            new[name] = coerced
        for col_name, index in self.indexes.items():
            if new[col_name] != old[col_name]:
                owner = index.get(new[col_name])
                if owner is not None and owner != rowid:
                    raise ConstraintError(
                        f"duplicate value {new[col_name]!r} for unique "
                        f"column {self.name}.{col_name}"
                    )
        for col_name, index in self.indexes.items():
            if new[col_name] != old[col_name]:
                index.remove(old[col_name], rowid)
                index.add(new[col_name], rowid)
        for _name, (column, index) in self.secondary.items():
            if new.get(column) != old.get(column):
                index.remove(old.get(column), rowid)
                index.add(new.get(column), rowid)
        self.rows[rowid] = new
        return old

    def delete(self, rowid: int) -> dict[str, Any]:
        """Delete a row; returns it for undo logging."""
        row = self.rows.pop(rowid)
        for col_name, index in self.indexes.items():
            index.remove(row.get(col_name), rowid)
        for _name, (column, index) in self.secondary.items():
            index.remove(row.get(column), rowid)
        return row

    # -- persistence helpers -----------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "columns": [
                {
                    "name": c.name,
                    "type": c.type_name,
                    "primary_key": c.primary_key,
                    "not_null": c.not_null,
                    "unique": c.unique,
                    "default": c.default,
                    "has_default": c.has_default,
                }
                for c in self.columns
            ],
            "next_rowid": self._next_rowid,
            "secondary": {
                name: column
                for name, (column, _index) in self.secondary.items()
            },
            "rows": [[rowid, row] for rowid, row in self.rows.items()],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Table":
        columns = [
            Column(
                c["name"],
                c["type"],
                c["primary_key"],
                c["not_null"],
                c["unique"],
                c.get("default"),
                c.get("has_default", False),
            )
            for c in data["columns"]
        ]
        table = cls(data["name"], columns)
        for rowid, row in data["rows"]:
            table.insert_with_rowid(int(rowid), row)
        for name, column in data.get("secondary", {}).items():
            table.create_secondary_index(name, column)
        table._next_rowid = max(table._next_rowid, int(data["next_rowid"]))
        return table
