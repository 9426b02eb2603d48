"""Per-layer spans for the benchmark's traced run.

Every span is taken from here, around a *public* call into one layer of
the program; nothing inside ``src/`` is edited.  :class:`Layers` swaps
each wrapped attribute for a timing wrapper on :meth:`install` and puts
the original back on :meth:`uninstall`, so untraced rounds run the
program exactly as shipped.

A span is ``(id, name, start, end, parent, op, count)``.  Spans are kept
in memory and reduced to per-layer numbers when the run ends
(:func:`layer_metrics`).

Self time.  A span's self time is its duration minus the part of that
interval its children cover.  Dispatcher worker threads run a data op's
backend calls concurrently; with one op in flight, a span opened on a
thread with no open span of its own is a child of the open
``dispatch.run`` span (or of the op when none is open).  Where ``k``
spans are innermost at the same instant, each is charged ``1/k`` of
that stretch, so the self times of one op partition its wall time and
their sum checks that every span nests inside its op.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable

perf = time.perf_counter

# Metadata methods reported one by one; every other public
# MetadataManager method is traced and reported as ``metadata.other``.
METADATA_METHODS = (
    "create_file",
    "load_file",
    "stat",
    "rename_file",
    "remove_file",
    "server_usage",
    "update_brick_crcs",
)
BACKEND_NS_METHODS = (
    "create_subfile",
    "delete_subfile",
    "rename_subfile",
    "subfile_exists",
    "subfile_size",
    "list_subfiles",
)
SQL_KINDS = ("select", "insert", "update", "delete", "other")
# layers whose self times partition op wall time; ``handle`` is the self
# time of a data op, ``filesystem`` that of a namespace op (DPFS facade)
SELF_LAYERS = (
    "handle",
    "filesystem",
    "striping",
    "combine",
    "cache",
    "dispatch",
    "backend",
    "checksum",
    "metadata",
    "metadb",
    "wal",
    "intent",
)
DATA_OPS = ("read", "write")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class SpanRecorder:
    """In-memory span log plus the op currently in flight (one at a time)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: (op id, kind, start, end, root span id)
        self.ops: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._dispatch: list[int] = []
        self.op_id: int | None = None
        self.op_kind: str | None = None
        self.op_root: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        if self._dispatch:
            return self._dispatch[-1]
        return self.op_root

    # -- ops ---------------------------------------------------------------
    def begin_op(self, op_id: int, kind: str) -> float:
        sid = next(self._ids)
        self.op_id, self.op_kind, self.op_root = op_id, kind, sid
        self._stack().append(sid)
        return perf()

    def end_op(self, start: float, end: float) -> None:
        sid = self._stack().pop()
        self.spans.append((sid, f"op.{self.op_kind}", start, end, None, self.op_id, 1))
        self.ops.append((self.op_id, self.op_kind, start, end, sid))
        self.op_id = self.op_kind = self.op_root = None

    # -- wrappers ----------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Callable[[tuple, Any], Any] | None = None,
        *,
        dispatch: bool = False,
    ) -> Callable:
        rec = self

        def traced(*args, **kwargs):
            stack = rec._stack()
            parent = rec._parent(stack)
            sid = next(rec._ids)
            stack.append(sid)
            if dispatch:
                rec._dispatch.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf()
                rec._close(stack, sid, dispatch)
                rec.spans.append((sid, name, t0, t1, parent, rec.op_id, 0))
                raise
            t1 = perf()
            rec._close(stack, sid, dispatch)
            n = count(args, result) if count is not None else 1
            rec.spans.append((sid, name, t0, t1, parent, rec.op_id, n))
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _close(self, stack: list[int], sid: int, dispatch: bool) -> None:
        stack.pop()
        if dispatch:
            self._dispatch.remove(sid)


def _sql_kind(sql: str) -> str:
    word = sql.lstrip().split(None, 1)[0].lower() if sql.strip() else ""
    return word if word in SQL_KINDS else "other"


class Layers:
    """Installs and removes the span wrappers around one mount's layers."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.rec = recorder
        self._undo: list[tuple[Any, str, bool, Any]] = []

    def _patch(self, owner: Any, attr: str, name: str, count=None, **kw) -> None:
        had = attr in vars(owner)
        old = vars(owner).get(attr)
        setattr(owner, attr, self.rec.wrap(name, getattr(owner, attr), count, **kw))
        self._undo.append((owner, attr, had, old))

    def install(self, fs) -> None:
        """Wrap the public calls of every layer of mount ``fs``."""
        from repro.core import handle as handle_mod
        from repro.core.metadata import MetadataManager
        from repro.core.striping import ArrayStriping, LinearStriping, MultidimStriping
        from repro.metadb.wal import WriteAheadLog

        rec = self.rec
        n_items = lambda args, res: len(res)  # noqa: E731
        for cls in (LinearStriping, MultidimStriping, ArrayStriping):
            for attr in ("slices_for_region", "slices_for_extents"):
                self._patch(cls, attr, f"striping.{attr}", n_items)
        self._patch(
            handle_mod,
            "plan_requests",
            "combine.plan_requests",
            lambda args, res: (len(res), sum(len(r.extents) for r in res)),
        )
        make_crc = handle_mod.checksum_fn

        def traced_checksum_fn(algo: str):
            return rec.wrap("checksum", make_crc(algo), lambda args, res: len(args[0]))

        self._undo.append((handle_mod, "checksum_fn", True, make_crc))
        handle_mod.checksum_fn = traced_checksum_fn
        if fs.cache is not None:
            for attr in ("get", "put", "patch"):
                self._patch(fs.cache, attr, f"cache.{attr}")
        self._patch(
            fs.dispatcher, "run", "dispatch.run",
            lambda args, res: len(args[0]), dispatch=True,
        )
        backend = fs.backend
        self._patch(backend, "read_extents", "backend.read", lambda a, res: len(res))
        self._patch(backend, "write_extents", "backend.write", lambda a, res: len(a[3]))
        for attr in BACKEND_NS_METHODS:
            self._patch(backend, attr, "backend.ns")
        for attr, value in vars(MetadataManager).items():
            if attr.startswith("_") or not callable(value):
                continue
            label = attr if attr in METADATA_METHODS else "other"
            self._patch(fs.meta, attr, f"metadata.{label}")
        self._patch(
            fs.db, "execute", "metadb.execute",
            lambda args, res: (_sql_kind(args[0]), len(res.rows)),
        )
        self._patch(WriteAheadLog, "append", "wal.append")
        for attr in ("begin", "mark", "retire"):
            self._patch(fs.intents, attr, f"intent.{attr}")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


def exported_counters(fs) -> dict[str, float]:
    """Counts the program exports itself, as running totals.

    Cache and dispatch counters come from ``DPFS.metrics.snapshot()``;
    server time comes from ``RemoteBackend.server_stats()`` (the sum of
    ``dpfs_server_request_seconds`` over every op but ``stats``/``ping``).
    """
    snap = fs.metrics.snapshot()

    def total(name: str) -> float:
        metric = snap.get(name)
        if metric is None:
            return 0.0
        key = "sum" if metric["type"] == "histogram" else "value"
        return float(sum(series[key] for series in metric["series"]))

    out = {
        "cache.hits": total("dpfs_cache_hits_total"),
        "cache.misses": total("dpfs_cache_misses_total"),
        "cache.evictions": total("dpfs_cache_evictions_total"),
        "dispatch.queue_wait_s": total("dpfs_dispatch_queue_wait_seconds"),
        "dispatch.retries": total("dpfs_dispatch_retries_total"),
        "dispatch.failures": total("dpfs_dispatch_failures_total"),
        "net.requests": total("dpfs_net_requests_total"),
        "net.reconnects": total("dpfs_net_reconnects_total"),
    }
    server_stats = getattr(fs.backend, "server_stats", None)
    if callable(server_stats):
        out["net.server_s"] = sum(
            _server_seconds(s["metrics"]) for s in server_stats()
        )
    return out


def _server_seconds(text: str) -> float:
    total = 0.0
    for line in text.splitlines():
        if not line.startswith("dpfs_server_request_seconds_sum"):
            continue
        labels, _, value = line.rpartition(" ")
        if 'op="stats"' in labels or 'op="ping"' in labels:
            continue
        total += float(value)
    return total


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def _self_times(spans: list[tuple], out: dict[int, float]) -> None:
    """Charge each instant of one op to its innermost open spans."""
    events = []
    for s in spans:
        events.append((s[2], 1, s[0], s[4]))
        events.append((s[3], 0, s[0], s[4]))
    events.sort(key=lambda e: (e[0], e[1]))
    active: set[int] = set()
    open_children: dict[int, int] = defaultdict(int)
    prev = None
    for t, is_start, sid, parent in events:
        if active and prev is not None and t > prev:
            leaves = [x for x in active if not open_children[x]]
            share = (t - prev) / len(leaves)
            for x in leaves:
                out[x] += share
        prev = t
        if is_start:
            active.add(sid)
            if parent is not None:
                open_children[parent] += 1
        else:
            active.discard(sid)
            if parent is not None:
                open_children[parent] -= 1


def layer_metrics(rec: SpanRecorder, counters: dict[str, float]) -> dict[str, float]:
    """Per-layer numbers over every traced op (spans outside ops are dropped).

    ``counters`` holds deltas the program exports itself (cache and
    dispatch counters from ``DPFS.metrics.snapshot()``, server time from
    ``RemoteBackend.server_stats()``), summed over the traced rounds.
    """
    op_kind = {op[0]: op[1] for op in rec.ops}
    by_op: dict[int, list[tuple]] = defaultdict(list)
    for s in rec.spans:
        if s[5] in op_kind:
            by_op[s[5]].append(s)
    self_s: dict[int, float] = defaultdict(float)
    for spans in by_op.values():
        _self_times(spans, self_s)

    name_of = {}
    for spans in by_op.values():
        for s in spans:
            name_of[s[0]] = s[1]
    m: dict[str, float] = defaultdict(float)
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = 0.0
    for spans in by_op.values():
        for sid, name, t0, t1, parent, op, n in spans:
            layer = _layer(name)
            dur = t1 - t0
            if layer == "op":
                target = "handle" if name[3:] in DATA_OPS else "filesystem"
                m[f"{target}.self_s"] += self_s[sid]
                continue
            m[f"{layer}.self_s"] += self_s[sid]
            # inclusive busy time: count a span only when its parent is
            # not of the same layer (MultidimStriping.slices_for_extents
            # calls slices_for_region, for instance)
            if parent is not None and _layer(name_of.get(parent, "")) == layer:
                continue
            if layer in ("striping", "checksum", "cache", "intent", "wal"):
                key = {"wal": "appends"}.get(layer, "calls")
                m[f"{layer}.{key}"] += 1
                m[f"{layer}.s"] += dur
                if layer == "striping":
                    m["striping.slices"] += n
                elif layer == "checksum":
                    m["checksum.bytes"] += n
            elif layer == "combine":
                m["combine.calls"] += 1
                m["combine.s"] += dur
                if n:
                    m["combine.requests"] += n[0]
                    m["combine.extents"] += n[1]
            elif layer == "dispatch":
                m["dispatch.batches"] += 1
                m["dispatch.requests"] += n
                m["dispatch.s"] += dur
            elif layer == "backend":
                kind = name.split(".", 1)[1]
                m[f"backend.{kind}_calls"] += 1
                m[f"backend.{kind}_s"] += dur
                if kind in ("read", "write"):
                    m[f"backend.{kind}_bytes"] += n
                if kind == "read" and op_kind[op] == "write":
                    m["backend.readback_calls"] += 1
            elif layer == "metadata":
                method = name.split(".", 1)[1]
                m[f"metadata.{method}.calls"] += 1
                m[f"metadata.{method}.s"] += dur
            elif layer == "metadb":
                m["metadb.statements"] += 1
                m["metadb.s"] += dur
                if n:
                    m[f"metadb.statements.{n[0]}"] += 1
                    m["metadb.rows_returned"] += n[1]
    m["cache.hits"] = counters.get("cache.hits", 0.0)
    m["cache.misses"] = counters.get("cache.misses", 0.0)
    m["cache.evictions"] = counters.get("cache.evictions", 0.0)
    lookups = m["cache.hits"] + m["cache.misses"]
    m["cache.hit_rate"] = m["cache.hits"] / lookups if lookups else 0.0
    for key in ("queue_wait_s", "retries", "failures"):
        m[f"dispatch.{key}"] = counters.get(f"dispatch.{key}", 0.0)
    m["net.server_s"] = counters.get("net.server_s", 0.0)
    m["net.requests"] = counters.get("net.requests", 0.0)
    m["net.reconnects"] = counters.get("net.reconnects", 0.0)
    if m["net.requests"]:
        calls = m["backend.read_s"] + m["backend.write_s"] + m["backend.ns_s"]
        m["net.wire_s"] = calls - m["net.server_s"]
    else:
        m["net.wire_s"] = 0.0
    wall = sum(op[3] - op[2] for op in rec.ops)
    m["trace.ops"] = len(rec.ops)
    m["trace.spans"] = sum(len(v) for v in by_op.values())
    m["trace.op_wall_s"] = wall
    m["trace.self_sum_s"] = sum(m[f"{layer}.self_s"] for layer in SELF_LAYERS)
    m["trace.self_ratio"] = m["trace.self_sum_s"] / wall if wall else 0.0
    return dict(m)
