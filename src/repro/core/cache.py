"""Client-side brick cache.

The paper's servers inherit "I/O optimizations such as caching and
prefetching of the local file system"; on the *client* side, repeated
region reads (e.g. the out-of-core multiply's row panels) re-fetch the
same bricks over the network.  :class:`BrickCache` is an LRU,
whole-brick, write-through cache a :class:`~repro.core.filesystem.DPFS`
instance can share across handles.

Design points:

- the unit is the brick — DPFS's "basic accessing unit" (§3) — keyed by
  ``(file path, brick id)``;
- write-through: writes go to the servers immediately, and any cached
  copy of the touched brick is patched in place, so reads after writes
  are always coherent within the process;
- files are invalidated wholesale on remove/rename/growth;
- bricks larger than a quarter of the capacity are never cached (one
  array-level chunk must not evict the whole working set).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..obs.registry import MetricsRegistry
from .brick import strided_rows

__all__ = ["CacheStats", "BrickCache"]


class CacheStats:
    """Observability counters — a view over the shared metrics registry.

    The registry (``dpfs_cache_*`` series) is the source of truth; this
    class keeps the historical ``cache.stats.hits`` attribute API alive
    on top of it.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._hits = registry.counter("dpfs_cache_hits_total", "brick cache hits")
        self._misses = registry.counter(
            "dpfs_cache_misses_total", "brick cache misses"
        )
        self._insertions = registry.counter(
            "dpfs_cache_insertions_total", "bricks admitted to the cache"
        )
        self._evictions = registry.counter(
            "dpfs_cache_evictions_total", "bricks evicted by the LRU bound"
        )
        self._invalidations = registry.counter(
            "dpfs_cache_invalidations_total", "bricks dropped for coherence"
        )
        self._patched = registry.counter(
            "dpfs_cache_patched_writes_total", "write-through in-place patches"
        )
        self._used = registry.gauge(
            "dpfs_cache_used_bytes", "bytes currently cached"
        )
        self._entries = registry.gauge(
            "dpfs_cache_entries", "bricks currently cached"
        )

    @property
    def hits(self) -> int:
        return int(self._hits.total())

    @property
    def misses(self) -> int:
        return int(self._misses.total())

    @property
    def insertions(self) -> int:
        return int(self._insertions.total())

    @property
    def evictions(self) -> int:
        return int(self._evictions.total())

    @property
    def invalidations(self) -> int:
        return int(self._invalidations.total())

    @property
    def patched_writes(self) -> int:
        return int(self._patched.total())

    @property
    def hit_rate(self) -> float:
        hits, misses = self.hits, self.misses
        total = hits + misses
        return hits / total if total else 0.0


@dataclass
class _Entry:
    data: bytearray
    size: int = field(init=False)

    def __post_init__(self) -> None:
        self.size = len(self.data)


class BrickCache:
    """LRU cache of whole bricks, bounded by total bytes."""

    def __init__(
        self, capacity_bytes: int, *, registry: MetricsRegistry | None = None
    ) -> None:
        if capacity_bytes <= 0:
            raise ConfigError("cache capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[tuple[str, int], _Entry] = OrderedDict()
        self._used = 0
        #: one registry per cache unless the owner shares its own (DPFS
        #: passes ``DPFS.metrics`` so cache series land with the rest)
        self.stats = CacheStats(registry if registry is not None else MetricsRegistry())
        #: bound hit/miss series — lookups are the cache's hot path
        self._hit = self.stats._hits.labels()
        self._miss = self.stats._misses.labels()

    # -- bookkeeping ---------------------------------------------------------
    def _sync_gauges(self) -> None:
        self.stats._used.set(self._used)
        self.stats._entries.set(len(self._entries))

    @property
    def used_bytes(self) -> int:
        return self._used

    def __len__(self) -> int:
        return len(self._entries)

    def cacheable(self, size: int) -> bool:
        """Whether a brick of ``size`` bytes is admitted at all."""
        return size <= self.capacity_bytes // 4

    # -- lookup ---------------------------------------------------------------
    def get(self, path: str, brick_id: int) -> bytes | None:
        """Whole-brick lookup; promotes on hit."""
        entry = self._entries.get((path, brick_id))
        if entry is None:
            self._miss.inc()
            return None
        self._entries.move_to_end((path, brick_id))
        self._hit.inc()
        return bytes(entry.data)

    def peek(self, path: str, brick_id: int) -> bool:
        """Presence check without touching LRU order or stats."""
        return (path, brick_id) in self._entries

    # -- population -------------------------------------------------------------
    def put(self, path: str, brick_id: int, data: bytes) -> None:
        """Insert/replace a whole brick (no-op when not cacheable)."""
        if not self.cacheable(len(data)):
            return
        key = (path, brick_id)
        old = self._entries.pop(key, None)
        if old is not None:
            self._used -= old.size
        entry = _Entry(bytearray(data))
        self._entries[key] = entry
        self._used += entry.size
        self.stats._insertions.inc()
        self._sync_gauges()
        self._evict()

    def _evict(self) -> None:
        evicted = False
        while self._used > self.capacity_bytes and self._entries:
            _key, entry = self._entries.popitem(last=False)
            self._used -= entry.size
            self.stats._evictions.inc()
            evicted = True
        if evicted:
            self._sync_gauges()

    # -- coherence ---------------------------------------------------------------
    def patch(
        self, path: str, brick_id: int, offset: int, data: bytes,
        *, count: int = 1, stride: int = 0,
    ) -> None:
        """Apply a write-through update to a cached brick, if present.

        ``data`` holds ``count`` equal rows, packed; row ``i`` lands at
        ``offset + i*stride`` (one strided run of a write).
        """
        entry = self._entries.get((path, brick_id))
        if entry is None:
            return
        length = len(data) // count
        if offset + (count - 1) * stride + length > entry.size:
            # write beyond the cached image (shouldn't happen for fixed
            # bricks): drop the stale entry instead of guessing
            self.invalidate_brick(path, brick_id)
            return
        if count == 1:
            entry.data[offset : offset + length] = data
        else:
            image = np.frombuffer(entry.data, np.uint8)
            strided_rows(image, offset, count, length, stride)[...] = (
                np.frombuffer(data, np.uint8).reshape(count, length)
            )
        self._entries.move_to_end((path, brick_id))
        self.stats._patched.inc()

    def invalidate_brick(self, path: str, brick_id: int) -> None:
        entry = self._entries.pop((path, brick_id), None)
        if entry is not None:
            self._used -= entry.size
            self.stats._invalidations.inc()
            self._sync_gauges()

    def invalidate_file(self, path: str) -> None:
        """Drop every cached brick of one file (remove/rename/growth)."""
        victims = [key for key in self._entries if key[0] == path]
        for key in victims:
            self._used -= self._entries.pop(key).size
        self.stats._invalidations.inc(len(victims))
        self._sync_gauges()

    def clear(self) -> None:
        self.stats._invalidations.inc(len(self._entries))
        self._entries.clear()
        self._used = 0
        self._sync_gauges()
