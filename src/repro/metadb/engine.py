"""The embedded database engine: SQL execution, transactions, durability.

:class:`Database` is the single public entry point::

    db = Database("/path/meta.db")            # or Database() for in-memory
    db.execute("CREATE TABLE t (k TEXT PRIMARY KEY, v INTEGER)")
    db.execute("INSERT INTO t VALUES (?, ?)", ["a", 1])
    rows = db.execute("SELECT v FROM t WHERE k = ?", ["a"]).rows

Durability design: a JSON snapshot plus a write-ahead log of committed
transactions.  Statements outside BEGIN/COMMIT autocommit.  ROLLBACK
applies the in-memory undo journal in reverse.  ``checkpoint()`` folds
the WAL into a fresh snapshot.

This replaces the POSTGRES instance the paper ran at Northwestern; the
DPFS metadata manager (:mod:`repro.core.metadata`) speaks plain SQL to
it exactly as §5 describes.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from ..errors import (
    MetaDBError,
    SchemaError,
    TransactionError,
)
from .ast_nodes import (
    Begin,
    Binary,
    ColumnRef,
    Commit,
    CreateIndex,
    CreateTable,
    Delete,
    DropIndex,
    DropTable,
    Expr,
    FuncCall,
    Insert,
    Literal,
    Param,
    Rollback,
    Select,
    Statement,
    Update,
)
from . import ast_nodes as _ast
from .expr import evaluate, expr_name, truthy
from .parser import parse
from .table import Column, Table
from .wal import RedoOp, WriteAheadLog

__all__ = ["Database", "ResultSet"]

_SNAPSHOT_SUFFIX = ".snapshot.json"
_WAL_SUFFIX = ".wal"


@dataclass
class ResultSet:
    """Outcome of one statement: result rows and/or affected-row count."""

    rows: list[dict[str, Any]] = field(default_factory=list)
    rowcount: int = 0

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> Any:
        """First column of the first row (aggregate shortcut)."""
        if not self.rows:
            return None
        first = self.rows[0]
        return next(iter(first.values())) if first else None


class Database:
    """Tables + SQL executor + transaction manager + WAL persistence."""

    def __init__(self, path: str | os.PathLike[str] | None = None) -> None:
        self.tables: dict[str, Table] = {}
        # Reentrant lock serializing statements; begin()/commit()/rollback()
        # hold it across the whole transaction so concurrent threads see
        # transactions atomically (POSTGRES gave the paper this for free).
        self._lock = threading.RLock()
        self._in_txn = False
        self._txn_owner: int | None = None
        self._undo: list[RedoOp] = []
        self._redo: list[RedoOp] = []
        self._plan_cache: dict[str, Statement] = {}
        #: bound counter of rows visited by scans and probes (bind_metrics)
        self._c_examined = None
        self.path = Path(path) if path is not None else None
        self._wal: WriteAheadLog | None = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._wal = WriteAheadLog(str(self.path) + _WAL_SUFFIX)
            self._recover()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def execute(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        """Parse (with plan caching) and execute one SQL statement.

        Thread-safe for single statements.  Multi-statement transactions
        must use :meth:`begin`/:meth:`commit`/:meth:`rollback` (or
        :meth:`transaction`), which hold the database lock across the
        whole transaction; issuing ``BEGIN`` through ``execute`` directly
        is not safe under concurrency.
        """
        with self._lock:
            stmt = self._plan_cache.get(sql)
            if stmt is None:
                stmt = parse(sql)
                if len(self._plan_cache) > 512:
                    self._plan_cache.clear()
                self._plan_cache[sql] = stmt
            return self._dispatch(stmt, list(params))

    def begin(self) -> None:
        """Start a transaction, holding the database lock until
        :meth:`commit` or :meth:`rollback`."""
        self._lock.acquire()
        try:
            self.execute("BEGIN")
        except BaseException:
            self._lock.release()
            raise
        self._txn_owner = threading.get_ident()

    def commit(self) -> None:
        try:
            self.execute("COMMIT")
        except TransactionError:
            raise                      # no transaction → lock was never ours
        except BaseException:
            self._lock.release()       # broken mid-commit: free the lock
            raise
        self._txn_owner = None
        self._lock.release()

    def rollback(self) -> None:
        try:
            self.execute("ROLLBACK")
        except TransactionError:
            raise
        except BaseException:
            self._lock.release()
            raise
        self._txn_owner = None
        self._lock.release()

    def transaction(self) -> "_TransactionContext":
        """``with db.transaction(): ...`` — commit on success, rollback on error."""
        return _TransactionContext(self)

    @property
    def in_transaction(self) -> bool:
        return self._in_txn

    def bind_metrics(self, registry) -> None:
        """Count the rows every statement's full scan or index probe
        visits, from now on, as ``dpfs_metadb_rows_examined_total`` in
        ``registry``."""
        self._c_examined = registry.counter(
            "dpfs_metadb_rows_examined_total",
            "metadata rows visited by full scans and index probes",
        ).labels()

    def table_names(self) -> list[str]:
        return sorted(self.tables)

    def column_names(self, table: str) -> list[str]:
        """The columns of ``table`` in schema order (a schema probe that,
        unlike a SELECT, also answers for an empty table)."""
        with self._lock:
            return list(self._get_table(table).column_names)

    def close(self) -> None:
        if self._in_txn:
            self.rollback()
        if self._wal is not None:
            self._wal.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, stmt: Statement, params: list[Any]) -> ResultSet:
        if isinstance(stmt, Select):
            return self._select(stmt, params)
        if isinstance(stmt, Insert):
            return self._autocommit(lambda: self._insert(stmt, params))
        if isinstance(stmt, Update):
            return self._autocommit(lambda: self._update(stmt, params))
        if isinstance(stmt, Delete):
            return self._autocommit(lambda: self._delete(stmt, params))
        if isinstance(stmt, CreateTable):
            return self._autocommit(lambda: self._create_table(stmt))
        if isinstance(stmt, DropTable):
            return self._autocommit(lambda: self._drop_table(stmt))
        if isinstance(stmt, CreateIndex):
            return self._autocommit(lambda: self._create_index(stmt))
        if isinstance(stmt, DropIndex):
            return self._autocommit(lambda: self._drop_index(stmt))
        if isinstance(stmt, Begin):
            if self._in_txn:
                raise TransactionError("nested BEGIN is not supported")
            self._in_txn = True
            self._undo.clear()
            self._redo.clear()
            return ResultSet()
        if isinstance(stmt, Commit):
            if not self._in_txn:
                raise TransactionError("COMMIT outside a transaction")
            self._finish_commit()
            return ResultSet()
        if isinstance(stmt, Rollback):
            if not self._in_txn:
                raise TransactionError("ROLLBACK outside a transaction")
            self._apply_undo()
            self._in_txn = False
            self._undo.clear()
            self._redo.clear()
            return ResultSet()
        raise MetaDBError(f"unhandled statement {type(stmt).__name__}")

    def _autocommit(self, action) -> ResultSet:
        """Run a mutating action; if not inside BEGIN, commit immediately."""
        if self._in_txn:
            return action()
        self._undo.clear()
        self._redo.clear()
        try:
            result = action()
        except Exception:
            self._apply_undo()
            self._undo.clear()
            self._redo.clear()
            raise
        self._flush_redo()
        return result

    def _finish_commit(self) -> None:
        self._flush_redo()
        self._in_txn = False
        self._undo.clear()
        self._redo.clear()

    def _flush_redo(self) -> None:
        if self._redo and self._wal is not None:
            self._wal.append(list(self._redo))

    def _apply_undo(self) -> None:
        for op, table_name, rowid, payload in reversed(self._undo):
            if op == "insert":          # undo an insert → delete the row
                self.tables[table_name].delete(rowid)
            elif op == "delete":        # undo a delete → restore the row
                self.tables[table_name].insert_with_rowid(rowid, payload)
            elif op == "update":        # undo an update → restore old image
                table = self.tables[table_name]
                table.update(rowid, payload)
            elif op == "create_table":
                del self.tables[table_name]
            elif op == "drop_table":
                self.tables[table_name] = Table.from_dict(payload)
            elif op == "create_index":
                self.tables[table_name].create_secondary_index(
                    payload["name"], payload["column"]
                )
            elif op == "drop_index":
                self.tables[table_name].drop_secondary_index(payload["name"])
            else:  # pragma: no cover - defensive
                raise MetaDBError(f"unknown undo op {op!r}")

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def _create_table(self, stmt: CreateTable) -> ResultSet:
        if stmt.table in self.tables:
            if stmt.if_not_exists:
                return ResultSet()
            raise SchemaError(f"table {stmt.table!r} already exists")
        columns = [Column.from_def(cdef) for cdef in stmt.columns]
        table = Table(stmt.table, columns)
        self.tables[stmt.table] = table
        self._undo.append(("create_table", stmt.table, 0, None))
        self._redo.append(("create_table", stmt.table, 0, table.to_dict()))
        return ResultSet()

    def _drop_table(self, stmt: DropTable) -> ResultSet:
        table = self.tables.get(stmt.table)
        if table is None:
            if stmt.if_exists:
                return ResultSet()
            raise SchemaError(f"no such table {stmt.table!r}")
        snapshot = table.to_dict()
        del self.tables[stmt.table]
        self._undo.append(("drop_table", stmt.table, 0, snapshot))
        self._redo.append(("drop_table", stmt.table, 0, None))
        return ResultSet()

    def _index_owner(self, name: str) -> Table | None:
        for table in self.tables.values():
            if name in table.secondary:
                return table
        return None

    def _create_index(self, stmt: CreateIndex) -> ResultSet:
        if self._index_owner(stmt.name) is not None:
            if stmt.if_not_exists:
                return ResultSet()
            raise SchemaError(f"index {stmt.name!r} already exists")
        table = self._get_table(stmt.table)
        table.create_secondary_index(stmt.name, stmt.column)
        payload = {"name": stmt.name, "column": stmt.column}
        self._undo.append(("drop_index", stmt.table, 0, {"name": stmt.name}))
        self._redo.append(("create_index", stmt.table, 0, payload))
        return ResultSet()

    def _drop_index(self, stmt: DropIndex) -> ResultSet:
        table = self._index_owner(stmt.name)
        if table is None:
            if stmt.if_exists:
                return ResultSet()
            raise SchemaError(f"no such index {stmt.name!r}")
        column, _index = table.secondary[stmt.name]
        table.drop_secondary_index(stmt.name)
        self._undo.append(
            ("create_index", table.name, 0, {"name": stmt.name, "column": column})
        )
        self._redo.append(("drop_index", table.name, 0, {"name": stmt.name}))
        return ResultSet()

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def _get_table(self, name: str) -> Table:
        table = self.tables.get(name)
        if table is None:
            raise SchemaError(f"no such table {name!r}")
        return table

    def _insert(self, stmt: Insert, params: list[Any]) -> ResultSet:
        table = self._get_table(stmt.table)
        target_cols = list(stmt.columns) if stmt.columns else table.column_names
        count = 0
        for value_tuple in stmt.rows:
            if len(value_tuple) != len(target_cols):
                raise SchemaError(
                    f"INSERT into {stmt.table!r}: {len(target_cols)} columns "
                    f"but {len(value_tuple)} values"
                )
            values = {
                name: evaluate(expr, {}, params)
                for name, expr in zip(target_cols, value_tuple)
            }
            rowid = table.insert(values)
            row_image = dict(table.rows[rowid])
            self._undo.append(("insert", stmt.table, rowid, None))
            self._redo.append(("insert", stmt.table, rowid, row_image))
            count += 1
        return ResultSet(rowcount=count)

    def _matching_rowids(
        self, table: Table, where: Expr | None, params: list[Any]
    ) -> list[int]:
        """Row ids satisfying WHERE, via an index when possible.

        The rows visited — the probe's hits, or the whole table — count
        toward the rows-examined counter once one is bound.
        """
        rowids = None
        if where is not None:
            rowids = self._index_probe(table, where, params)
        if rowids is None:
            examined = len(table)
            rowids = [
                rowid
                for rowid, row in table.scan()
                if where is None or truthy(evaluate(where, row, params))
            ]
        else:
            examined = len(rowids)
        if self._c_examined is not None:
            self._c_examined.inc(examined)
        return rowids

    def _index_probe(
        self, table: Table, where: Expr, params: list[Any]
    ) -> list[int] | None:
        """Recognize ``indexed_col = constant`` and serve it from the index."""
        if not isinstance(where, Binary) or where.op != "=":
            return None
        column: ColumnRef | None = None
        constant: Expr | None = None
        if isinstance(where.left, ColumnRef) and isinstance(
            where.right, (Literal, Param)
        ):
            column, constant = where.left, where.right
        elif isinstance(where.right, ColumnRef) and isinstance(
            where.left, (Literal, Param)
        ):
            column, constant = where.right, where.left
        if column is None:
            return None
        index = table.indexes.get(column.name)
        if index is None:
            index = table.secondary_for_column(column.name)
        if index is None:
            return None
        value = evaluate(constant, {}, params)
        if value is None:
            return []
        return sorted(index.lookup(value))

    def _update(self, stmt: Update, params: list[Any]) -> ResultSet:
        table = self._get_table(stmt.table)
        for name, _expr in stmt.assignments:
            table.column(name)  # validate early
        count = 0
        for rowid in self._matching_rowids(table, stmt.where, params):
            row = table.rows[rowid]
            changes = {
                name: evaluate(expr, row, params)
                for name, expr in stmt.assignments
            }
            old = table.update(rowid, changes)
            undo_image = {name: old[name] for name in changes}
            redo_image = {name: table.rows[rowid][name] for name in changes}
            self._undo.append(("update", stmt.table, rowid, undo_image))
            self._redo.append(("update", stmt.table, rowid, redo_image))
            count += 1
        return ResultSet(rowcount=count)

    def _delete(self, stmt: Delete, params: list[Any]) -> ResultSet:
        table = self._get_table(stmt.table)
        count = 0
        for rowid in self._matching_rowids(table, stmt.where, params):
            row = table.delete(rowid)
            self._undo.append(("delete", stmt.table, rowid, row))
            self._redo.append(("delete", stmt.table, rowid, None))
            count += 1
        return ResultSet(rowcount=count)

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def _select(self, stmt: Select, params: list[Any]) -> ResultSet:
        table = self._get_table(stmt.table)
        rowids = self._matching_rowids(table, stmt.where, params)
        rows = [table.rows[rowid] for rowid in rowids]

        # Grouped / aggregate path.
        if stmt.group_by or (
            stmt.columns is not None
            and any(
                _contains_aggregate(expr) for expr, _alias in stmt.columns
            )
        ):
            return self._select_grouped(stmt, rows, params)

        if stmt.order_by:
            def sort_key(row: dict[str, Any]):
                key = []
                for item in stmt.order_by:
                    value = evaluate(item.expr, row, params)
                    # POSTGRES convention: NULLs sort as largest — last
                    # ascending, first descending.
                    key.append(
                        (
                            (value is None) != item.descending,
                            _Reversor(value) if item.descending else value,
                        )
                    )
                return key

            rows = sorted(rows, key=sort_key)

        projected: list[dict[str, Any]] = []
        for row in rows:
            if stmt.columns is None:
                projected.append(dict(row))
            else:
                out: dict[str, Any] = {}
                for expr, alias in stmt.columns:
                    out[alias or expr_name(expr)] = evaluate(expr, row, params)
                projected.append(out)

        if stmt.distinct:
            seen: set[str] = set()
            unique: list[dict[str, Any]] = []
            for row in projected:
                fingerprint = json.dumps(row, sort_keys=True, default=str)
                if fingerprint not in seen:
                    seen.add(fingerprint)
                    unique.append(row)
            projected = unique

        if stmt.limit is not None:
            projected = projected[: stmt.limit]
        return ResultSet(rows=projected, rowcount=len(projected))

    def _select_grouped(
        self, stmt: Select, rows: list[dict[str, Any]], params: list[Any]
    ) -> ResultSet:
        """GROUP BY / HAVING / aggregate evaluation.

        Without GROUP BY every row falls into one group (and an empty
        table still yields one aggregate row, as SQL requires).
        """
        if stmt.columns is None:
            raise MetaDBError("SELECT * cannot be combined with GROUP BY")

        groups: dict[str, list[dict[str, Any]]] = {}
        group_reps: dict[str, dict[str, Any]] = {}
        if stmt.group_by:
            for row in rows:
                key_values = [
                    evaluate(g, row, params) for g in stmt.group_by
                ]
                key = json.dumps(key_values, sort_keys=True, default=str)
                groups.setdefault(key, []).append(row)
                group_reps.setdefault(key, row)
        else:
            groups[""] = rows
            group_reps[""] = rows[0] if rows else {}

        projected: list[dict[str, Any]] = []
        for key, group in groups.items():
            rep = group_reps[key]
            if stmt.having is not None:
                folded = _fold_aggregates(stmt.having, group, params)
                if not truthy(evaluate(folded, rep, params)):
                    continue
            out: dict[str, Any] = {}
            for expr, alias in stmt.columns:
                folded = _fold_aggregates(expr, group, params)
                out[alias or expr_name(expr)] = evaluate(folded, rep, params)
            projected.append(out)

        if stmt.order_by:
            def sort_key(row: dict[str, Any]):
                key = []
                for item in stmt.order_by:
                    value = evaluate(item.expr, row, params)
                    key.append(
                        (
                            (value is None) != item.descending,
                            _Reversor(value) if item.descending else value,
                        )
                    )
                return key

            projected = sorted(projected, key=sort_key)
        if stmt.limit is not None:
            projected = projected[: stmt.limit]
        return ResultSet(rows=projected, rowcount=len(projected))

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _snapshot_path(self) -> Path:
        assert self.path is not None
        return Path(str(self.path) + _SNAPSHOT_SUFFIX)

    def checkpoint(self) -> None:
        """Write an atomic snapshot and truncate the WAL."""
        if self.path is None:
            return
        if self._in_txn:
            raise TransactionError("checkpoint inside a transaction")
        assert self._wal is not None
        snapshot = {
            "format": 1,
            # the id this snapshot covers: if the crash lands between the
            # snapshot rename below and the WAL truncation, recovery must
            # not re-apply the (stale) records at or below it
            "last_txn": self._wal.last_txn,
            "tables": [table.to_dict() for table in self.tables.values()],
        }
        target = self._snapshot_path()
        fd, tmp_name = tempfile.mkstemp(
            dir=str(target.parent), prefix=target.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(snapshot, fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_name, target)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
        self._wal.truncate()
        self._wal.open_for_append()

    def _recover(self) -> None:
        """Load snapshot, then replay committed WAL transactions.

        Only transactions the snapshot does not already cover are
        replayed — a crash between the snapshot rewrite and the WAL
        truncation in :meth:`checkpoint` leaves a stale log behind, and
        re-applying it would resurrect deleted rows.  Snapshots written
        before ``last_txn`` existed cover nothing (id 0).
        """
        assert self._wal is not None
        last_txn = 0
        snap = self._snapshot_path()
        if snap.exists():
            data = json.loads(snap.read_text(encoding="utf-8"))
            last_txn = int(data.get("last_txn", 0))
            for table_data in data["tables"]:
                table = Table.from_dict(table_data)
                self.tables[table.name] = table
        for txn, ops in self._wal.replay():
            if txn > last_txn:
                self._apply_redo(ops)
        # ids stay monotone even when the log is empty, so the next
        # append can never collide with what the snapshot covers
        self._wal.advance_txn_counter(last_txn)
        self._wal.open_for_append()

    def _apply_redo(self, ops: list[RedoOp]) -> None:
        for op, table_name, rowid, payload in ops:
            if op == "create_table":
                self.tables[table_name] = Table.from_dict(payload)
            elif op == "drop_table":
                self.tables.pop(table_name, None)
            elif op == "insert":
                self.tables[table_name].insert_with_rowid(int(rowid), payload)
            elif op == "update":
                self.tables[table_name].update(int(rowid), payload)
            elif op == "delete":
                self.tables[table_name].delete(int(rowid))
            elif op == "create_index":
                self.tables[table_name].create_secondary_index(
                    payload["name"], payload["column"]
                )
            elif op == "drop_index":
                self.tables[table_name].drop_secondary_index(payload["name"])
            else:  # pragma: no cover - defensive
                raise MetaDBError(f"unknown redo op {op!r}")


def _contains_aggregate(expr: Expr) -> bool:
    if isinstance(expr, FuncCall):
        return True
    if isinstance(expr, _ast.Unary):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, _ast.Binary):
        return _contains_aggregate(expr.left) or _contains_aggregate(expr.right)
    if isinstance(expr, _ast.InList):
        return _contains_aggregate(expr.operand) or any(
            _contains_aggregate(i) for i in expr.items
        )
    if isinstance(expr, _ast.IsNull):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, _ast.Like):
        return _contains_aggregate(expr.operand) or _contains_aggregate(expr.pattern)
    return False


def _compute_aggregate(
    fn: FuncCall, group: list[dict[str, Any]], params: list[Any]
) -> Any:
    """Evaluate one aggregate over a group of rows."""
    name = fn.name.upper()
    if name == "COUNT" and fn.argument is None:
        return len(group)
    if fn.argument is None:
        raise MetaDBError(f"{name}(*) is not valid")
    values = [evaluate(fn.argument, row, params) for row in group]
    values = [v for v in values if v is not None]
    if fn.distinct:
        seen: dict[str, Any] = {}
        for v in values:
            seen.setdefault(json.dumps(v, sort_keys=True, default=str), v)
        values = list(seen.values())
    if name == "COUNT":
        return len(values)
    if not values:
        return None                      # SQL: aggregates over nothing → NULL
    if name == "SUM":
        return sum(values)
    if name == "AVG":
        return sum(values) / len(values)
    if name == "MIN":
        return min(values)
    if name == "MAX":
        return max(values)
    raise MetaDBError(f"unsupported aggregate {name!r}")


def _fold_aggregates(
    expr: Expr, group: list[dict[str, Any]], params: list[Any]
) -> Expr:
    """Replace every aggregate call in ``expr`` with its computed value,
    yielding a plain expression evaluable against a representative row."""
    if isinstance(expr, FuncCall):
        return Literal(_compute_aggregate(expr, group, params))
    if isinstance(expr, _ast.Unary):
        return _ast.Unary(expr.op, _fold_aggregates(expr.operand, group, params))
    if isinstance(expr, _ast.Binary):
        return _ast.Binary(
            expr.op,
            _fold_aggregates(expr.left, group, params),
            _fold_aggregates(expr.right, group, params),
        )
    if isinstance(expr, _ast.InList):
        return _ast.InList(
            _fold_aggregates(expr.operand, group, params),
            tuple(_fold_aggregates(i, group, params) for i in expr.items),
            expr.negated,
        )
    if isinstance(expr, _ast.IsNull):
        return _ast.IsNull(
            _fold_aggregates(expr.operand, group, params), expr.negated
        )
    if isinstance(expr, _ast.Like):
        return _ast.Like(
            _fold_aggregates(expr.operand, group, params),
            _fold_aggregates(expr.pattern, group, params),
            expr.negated,
        )
    return expr


class _Reversor:
    """Inverts comparison order for ORDER BY ... DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversor) and self.value == other.value

    def __lt__(self, other: "_Reversor") -> bool:
        if self.value is None or other.value is None:
            return False
        return other.value < self.value


class _TransactionContext:
    """Context manager returned by :meth:`Database.transaction`.

    Nesting joins: entered while a transaction is already open (same
    thread — the database lock is an RLock held by the outer one), the
    inner context becomes part of the outer transaction and neither
    commits nor rolls back on its own.  This lets a caller make a
    multi-operation sequence atomic — e.g. a metadata commit plus the
    intent-journal mark of that commit — even though each operation
    opens ``db.transaction()`` internally.
    """

    def __init__(self, db: Database) -> None:
        self.db = db
        self._owns = False

    def __enter__(self) -> Database:
        # join only a transaction *this thread* opened; another thread's
        # transaction makes begin() block on the database lock as before
        if not (
            self.db.in_transaction
            and self.db._txn_owner == threading.get_ident()
        ):
            self.db.begin()
            self._owns = True
        return self.db

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._owns:
            return False  # the outermost context commits or rolls back
        if exc_type is None:
            self.db.commit()
        else:
            if self.db.in_transaction:
                self.db.rollback()
        return False
