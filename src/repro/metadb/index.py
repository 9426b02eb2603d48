"""Hash indexes mapping column values to row ids.

Used for UNIQUE/PRIMARY KEY enforcement and as an access path for
equality predicates (``WHERE pk = ?``) — the dominant query shape in the
DPFS metadata workload (lookup by file name / server name).

A unique column holds at most one row per value, so :class:`UniqueIndex`
maps a value straight to its rowid; :class:`HashIndex` (non-unique
secondary indexes) keeps a set per value.  Both answer ``lookup`` with
the matching rowids in O(1) of the table size.

Values that are unhashable (JSON lists) are indexed by their canonical
JSON encoding.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = ["HashIndex", "UniqueIndex"]


def _key(value: Any) -> Any:
    """Hashable proxy for an arbitrary column value."""
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return value


class UniqueIndex:
    """value -> rowid for a UNIQUE/PRIMARY KEY column (NULLs not indexed)."""

    def __init__(self, column: str) -> None:
        self.column = column
        self._map: dict[Any, int] = {}

    def add(self, value: Any, rowid: int) -> None:
        if value is None:
            return
        self._map[_key(value)] = rowid

    def remove(self, value: Any, rowid: int) -> None:
        if value is None:
            return
        key = _key(value)
        if self._map.get(key) == rowid:
            del self._map[key]

    def get(self, value: Any) -> int | None:
        """The rowid holding ``value``, or ``None``."""
        if value is None:
            return None
        return self._map.get(_key(value))

    def lookup(self, value: Any) -> list[int]:
        rowid = self.get(value)
        return [] if rowid is None else [rowid]


class HashIndex:
    """value -> rowid, or a set of rowids once several rows share the
    value (NULLs are not indexed, as in SQL).

    Most keys of a DPFS secondary index name one or a few rows (a
    file's distribution rows), so a lone rowid is stored bare rather
    than in a one-element set.
    """

    def __init__(self, column: str) -> None:
        self.column = column
        self._map: dict[Any, int | set[int]] = {}

    def add(self, value: Any, rowid: int) -> None:
        if value is None:
            return
        key = _key(value)
        held = self._map.get(key)
        if held is None:
            self._map[key] = rowid
        elif isinstance(held, set):
            held.add(rowid)
        elif held != rowid:
            self._map[key] = {held, rowid}

    def remove(self, value: Any, rowid: int) -> None:
        if value is None:
            return
        key = _key(value)
        held = self._map.get(key)
        if isinstance(held, set):
            held.discard(rowid)
            if len(held) == 1:
                self._map[key] = held.pop()
        elif held == rowid:
            del self._map[key]

    def lookup(self, value: Any) -> set[int]:
        if value is None:
            return set()
        held = self._map.get(_key(value))
        if held is None:
            return set()
        return set(held) if isinstance(held, set) else {held}
