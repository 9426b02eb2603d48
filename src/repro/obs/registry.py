"""Thread-safe metrics registry: counters, gauges, fixed-bucket histograms.

Design goals, in order:

1. **cheap on the hot path** — an increment is one lock acquire plus one
   dict update; callers that increment the same labeled series
   repeatedly should hold a bound series (:meth:`Counter.labels`) so the
   label-key tuple is built once, not per event;
2. **bounded** — every metric caps its label cardinality
   (``max_series``); series beyond the cap collapse into a single
   ``{"overflow": "true"}`` series instead of growing without bound;
3. **zero dependencies** — Prometheus *text* export only
   (:meth:`MetricsRegistry.render`) plus a JSON-friendly
   :meth:`MetricsRegistry.snapshot` for benchmark artifacts.

Metric names follow Prometheus conventions: ``dpfs_<subsystem>_<what>``
with ``_total`` for counters and ``_seconds`` / ``_bytes`` units.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Iterable, Mapping

from ..errors import ConfigError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: label key under which over-cardinality series are collapsed
_OVERFLOW_KEY = (("overflow", "true"),)

#: default histogram buckets — geometric, micro-seconds to seconds,
#: suitable for both in-memory dispatch (~us) and TCP round trips (~ms)
DEFAULT_BUCKETS = (
    0.000_05,
    0.000_2,
    0.001,
    0.005,
    0.02,
    0.1,
    0.5,
    2.0,
    10.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    """Normalize a label mapping into a hashable, sorted key."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


class _Metric:
    """Shared machinery: a lock, a series table, a cardinality cap."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", *, max_series: int = 256) -> None:
        if max_series < 1:
            raise ConfigError("max_series must be >= 1")
        self.name = name
        self.help = help
        self.max_series = max_series
        self._lock = threading.Lock()
        self._series: dict[LabelKey, Any] = {}

    def _admit(self, key: LabelKey) -> LabelKey:
        """Return ``key``, or the overflow key once the cap is reached.

        Callers hold ``self._lock``.
        """
        if key in self._series or len(self._series) < self.max_series:
            return key
        return _OVERFLOW_KEY

    # -- introspection -----------------------------------------------------
    def series(self) -> dict[LabelKey, Any]:
        """Point-in-time copy of every labeled series."""
        with self._lock:
            return dict(self._series)

    def render(self) -> str:
        raise NotImplementedError

    def snapshot(self) -> dict[str, Any]:
        raise NotImplementedError

    def _header(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class _Cell:
    """One counter series: a mutable float slot with its own lock.

    Per-series locking keeps concurrent writers to *different* label
    sets (e.g. dispatch workers on different servers) from contending
    on one metric-wide lock.  Readers that aggregate across series take
    only the metric lock and read ``v`` directly — a float load is
    atomic, so a point-in-time sum is merely (harmlessly) stale with
    respect to in-flight increments.
    """

    __slots__ = ("v", "lock")

    def __init__(self) -> None:
        self.v = 0.0
        self.lock = threading.Lock()


class _BoundCounter:
    """A counter pre-bound to one label set (hot-path helper).

    Caches the series cell after the first increment, so the steady
    state is one lock acquire plus one float add — no label-key hashing,
    no admission check.
    """

    __slots__ = ("_metric", "_key", "_cell")

    def __init__(self, metric: "Counter", key: LabelKey) -> None:
        self._metric = metric
        self._key = key
        self._cell: _Cell | None = None

    def inc(self, amount: float = 1.0) -> None:
        cell = self._cell
        if cell is None:
            cell = self._metric._cell_for(self._key)
            self._cell = cell
        with cell.lock:
            cell.v += amount

    def value(self) -> float:
        cell = self._cell
        if cell is None:
            with self._metric._lock:
                cell = self._metric._series.get(self._key)
        return cell.v if cell is not None else 0.0


class Counter(_Metric):
    """A monotonically increasing float, optionally labeled."""

    kind = "counter"

    def _cell_for(self, key: LabelKey) -> _Cell:
        with self._lock:
            key = self._admit(key)
            cell = self._series.get(key)
            if cell is None:
                cell = _Cell()
                self._series[key] = cell
            return cell

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ConfigError("counters only go up")
        cell = self._cell_for(_label_key(labels))
        with cell.lock:
            cell.v += amount

    def labels(self, **labels: Any) -> _BoundCounter:
        return _BoundCounter(self, _label_key(labels))

    def value(self, **labels: Any) -> float:
        with self._lock:
            cell = self._series.get(_label_key(labels))
            return cell.v if cell is not None else 0.0

    def total(self) -> float:
        """Sum over every labeled series."""
        with self._lock:
            return sum(cell.v for cell in self._series.values())

    def by_label(self, label: str) -> dict[str, float]:
        """Aggregate series values keyed by one label's value."""
        out: dict[str, float] = {}
        with self._lock:
            for key, cell in self._series.items():
                for k, v in key:
                    if k == label:
                        out[v] = out.get(v, 0.0) + cell.v
        return out

    def render(self) -> str:
        lines = self._header()
        with self._lock:
            items = sorted((k, cell.v) for k, cell in self._series.items())
        for key, value in items:
            lines.append(f"{self.name}{_render_labels(key)} {_fmt(value)}")
        return "\n".join(lines)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            items = sorted((k, cell.v) for k, cell in self._series.items())
        return {
            "type": "counter",
            "help": self.help,
            "series": [{"labels": dict(k), "value": v} for k, v in items],
        }


class Gauge(_Metric):
    """A value that can go up and down (pool sizes, bytes in use)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            key = self._admit(key)
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            key = self._admit(key)
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def render(self) -> str:
        lines = self._header()
        with self._lock:
            items = sorted(self._series.items())
        for key, value in items:
            lines.append(f"{self.name}{_render_labels(key)} {_fmt(value)}")
        return "\n".join(lines)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            items = sorted(self._series.items())
        return {
            "type": "gauge",
            "help": self.help,
            "series": [{"labels": dict(k), "value": v} for k, v in items],
        }


class _HistSeries:
    """One labeled histogram series: bucket counts + sum + count.

    Carries its own lock (see :class:`_Cell`) so concurrent observers
    of different label sets never contend; readers copy the triple
    under this lock for a consistent view.
    """

    __slots__ = ("buckets", "sum", "count", "lock")

    def __init__(self, n_buckets: int) -> None:
        self.buckets = [0] * (n_buckets + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0
        self.lock = threading.Lock()

    def _copy(self) -> tuple[list[int], float, int]:
        with self.lock:
            return list(self.buckets), self.sum, self.count


class _BoundHistogram:
    """A histogram pre-bound to one label set (hot-path helper).

    Caches the series object after the first observation, so the steady
    state is one bisect plus one lock acquire plus three updates.
    """

    __slots__ = ("_metric", "_key", "_series", "_bounds")

    def __init__(self, metric: "Histogram", key: LabelKey) -> None:
        self._metric = metric
        self._key = key
        self._bounds = metric.bucket_bounds
        self._series: _HistSeries | None = None

    def observe(self, value: float) -> None:
        series = self._series
        if series is None:
            series = self._metric._series_for(self._key)
            self._series = series
        idx = bisect_left(self._bounds, value)
        with series.lock:
            series.buckets[idx] += 1
            series.sum += value
            series.count += 1


class Histogram(_Metric):
    """Fixed-bucket histogram (cumulative buckets on export).

    Bucket bounds are *upper* edges; an observation equal to an edge
    falls into that edge's bucket, matching Prometheus ``le`` semantics.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        *,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        max_series: int = 256,
    ) -> None:
        super().__init__(name, help, max_series=max_series)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ConfigError("histogram needs at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise ConfigError("histogram buckets must be distinct")
        self.bucket_bounds = bounds

    def observe(self, value: float, **labels: Any) -> None:
        self._observe_key(_label_key(labels), value)

    def labels(self, **labels: Any) -> _BoundHistogram:
        return _BoundHistogram(self, _label_key(labels))

    def _series_for(self, key: LabelKey) -> _HistSeries:
        with self._lock:
            key = self._admit(key)
            series = self._series.get(key)
            if series is None:
                series = _HistSeries(len(self.bucket_bounds))
                self._series[key] = series
            return series

    def _observe_key(self, key: LabelKey, value: float) -> None:
        idx = bisect_left(self.bucket_bounds, value)
        series = self._series_for(key)
        with series.lock:
            series.buckets[idx] += 1
            series.sum += value
            series.count += 1

    # -- reads -------------------------------------------------------------
    def count(self, **labels: Any) -> int:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.count if series else 0

    def sum(self, **labels: Any) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.sum if series else 0.0

    def total_count(self) -> int:
        with self._lock:
            return sum(s.count for s in self._series.values())

    def total_sum(self) -> float:
        with self._lock:
            return sum(s.sum for s in self._series.values())

    def bucket_counts(self, **labels: Any) -> dict[str, int]:
        """Cumulative counts keyed by the ``le`` edge (as rendered)."""
        with self._lock:
            series = self._series.get(_label_key(labels))
        if series is None:
            raw = [0] * (len(self.bucket_bounds) + 1)
        else:
            raw, _sum, _count = series._copy()
        out: dict[str, int] = {}
        running = 0
        for bound, n in zip(self.bucket_bounds, raw):
            running += n
            out[_fmt(bound)] = running
        out["+Inf"] = running + raw[-1]
        return out

    def render(self) -> str:
        lines = self._header()
        with self._lock:
            items = sorted((k, *s._copy()) for k, s in self._series.items())
        for key, raw, total, count in items:
            running = 0
            for bound, n in zip(self.bucket_bounds, raw):
                running += n
                le_key = key + (("le", _fmt(bound)),)
                lines.append(f"{self.name}_bucket{_render_labels(le_key)} {running}")
            inf_key = key + (("le", "+Inf"),)
            lines.append(f"{self.name}_bucket{_render_labels(inf_key)} {count}")
            lines.append(f"{self.name}_sum{_render_labels(key)} {_fmt(total)}")
            lines.append(f"{self.name}_count{_render_labels(key)} {count}")
        return "\n".join(lines)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            items = sorted((k, *s._copy()) for k, s in self._series.items())
        series = []
        for key, raw, total, count in items:
            series.append(
                {
                    "labels": dict(key),
                    "buckets": {_fmt(b): n for b, n in zip(self.bucket_bounds, raw)},
                    "inf": raw[-1],
                    "sum": total,
                    "count": count,
                }
            )
        return {"type": "histogram", "help": self.help, "series": series}


def _fmt(value: float) -> str:
    """Render a float the way Prometheus likes (ints without .0)."""
    as_int = int(value)
    if value == as_int:
        return str(as_int)
    return repr(value)


class MetricsRegistry:
    """A named collection of metrics; the process-wide source of truth.

    Metric creation is get-or-create: asking twice for the same name
    returns the same object, so independent subsystems can share series
    without coordination.  Asking for an existing name with a different
    metric *type* is a :class:`~repro.errors.ConfigError`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    # -- creation ----------------------------------------------------------
    def counter(self, name: str, help: str = "", **kwargs: Any) -> Counter:
        return self._get_or_create(Counter, name, help, **kwargs)

    def gauge(self, name: str, help: str = "", **kwargs: Any) -> Gauge:
        return self._get_or_create(Gauge, name, help, **kwargs)

    def histogram(self, name: str, help: str = "", **kwargs: Any) -> Histogram:
        return self._get_or_create(Histogram, name, help, **kwargs)

    def _get_or_create(self, cls: type, name: str, help: str, **kwargs: Any):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, **kwargs)
                self._metrics[name] = metric
            elif type(metric) is not cls:
                raise ConfigError(
                    f"metric {name!r} already registered as {metric.kind}",
                )
            return metric

    # -- access ------------------------------------------------------------
    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    def merge_into(
        self,
        other: "MetricsRegistry",
        labels: Mapping[str, Any],
        *,
        unlabelled: Iterable[str] = (),
    ) -> None:
        """Add every series of this registry to ``other``, with ``labels``
        added to each but those of the metrics named in ``unlabelled``:
        counters and histograms accumulate, gauges take this registry's
        value."""
        skip = set(unlabelled)
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            extra = {} if metric.name in skip else labels
            for key, value in metric.series().items():
                merged = {**dict(key), **extra}
                if isinstance(metric, Counter):
                    other.counter(metric.name, metric.help).inc(value.v, **merged)
                elif isinstance(metric, Gauge):
                    other.gauge(metric.name, metric.help).set(value, **merged)
                elif isinstance(metric, Histogram):
                    target = other.histogram(
                        metric.name, metric.help, buckets=metric.bucket_bounds
                    )
                    if target.bucket_bounds != metric.bucket_bounds:
                        raise ConfigError(f"{metric.name}: bucket bounds differ")
                    raw, total, count = value._copy()
                    series = target._series_for(_label_key(merged))
                    with series.lock:
                        series.buckets = [a + b for a, b in zip(series.buckets, raw)]
                        series.sum += total
                        series.count += count

    # -- export ------------------------------------------------------------
    def render(self) -> str:
        """Prometheus text exposition of every metric, name-sorted."""
        with self._lock:
            metrics = [self._metrics[n] for n in sorted(self._metrics)]
        blocks = [m.render() for m in metrics]
        return "\n".join(blocks) + ("\n" if blocks else "")

    def snapshot(self) -> dict[str, Any]:
        """JSON-friendly dump (the ``BENCH_obs.json`` payload)."""
        with self._lock:
            metrics = dict(self._metrics)
        return {name: metrics[name].snapshot() for name in sorted(metrics)}
