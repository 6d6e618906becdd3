"""A bounded, thread-safe LRU cache (not used by the pipeline).

:class:`LRUCache` is a dict-ordered LRU with a hard entry bound and
hit/miss/eviction counters published to the *ambient* metrics registry.
Mutations happen under a per-cache lock; metric increments and compute
callbacks run outside it.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.obs.metrics import get_registry

#: Sentinel returned by :meth:`LRUCache.lookup` on a miss.
MISS = object()


class LRUCache:
    """A bounded LRU mapping with obs counters and version invalidation.

    Entries are evicted least-recently-*used* first: a hit refreshes
    recency.  ``max_entries`` is a hard bound enforced on every store;
    :meth:`resize` shrinks (evicting oldest) or grows it in place.
    """

    def __init__(self, name: str, max_entries: int = 4096) -> None:
        if max_entries <= 0:
            raise ValueError("LRUCache needs max_entries >= 1")
        self.name = name
        self.max_entries = max_entries
        self._data: dict = {}
        self._lock = threading.Lock()
        self._version = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Memoized (registry, counter-children) so the common case pays
        # one identity check instead of three registry lookups per event.
        self._children: tuple | None = None

    # -- metrics -------------------------------------------------------

    def _publish(self, hits: int = 0, misses: int = 0, evictions: int = 0):
        """Feed the ambient registry's cache counters (outside the lock)."""
        registry = get_registry()
        children = self._children
        if children is None or children[0] is not registry:
            children = (
                registry,
                registry.counter(
                    "metasql_cache_hits_total",
                    "Cache hits by cache name.",
                    labelnames=("cache",),
                ).labels(cache=self.name),
                registry.counter(
                    "metasql_cache_misses_total",
                    "Cache misses by cache name.",
                    labelnames=("cache",),
                ).labels(cache=self.name),
                registry.counter(
                    "metasql_cache_evictions_total",
                    "LRU evictions by cache name.",
                    labelnames=("cache",),
                ).labels(cache=self.name),
            )
            self._children = children
        if hits:
            children[1].inc(hits)
        if misses:
            children[2].inc(misses)
        if evictions:
            children[3].inc(evictions)

    # -- core operations -----------------------------------------------

    def lookup(self, key):
        """The cached value for *key*, or the :data:`MISS` sentinel.

        Counts a hit or miss; a hit refreshes the entry's recency.
        """
        with self._lock:
            if key in self._data:
                value = self._data.pop(key)
                self._data[key] = value  # reinsert = most recently used
                self.hits += 1
                hit = True
            else:
                self.misses += 1
                hit, value = False, MISS
        self._publish(hits=int(hit), misses=int(not hit))
        return value

    def put(self, key, value) -> None:
        """Store *key* -> *value*, evicting LRU entries past the bound."""
        evicted = 0
        with self._lock:
            version = self._version
            self._data.pop(key, None)
            self._data[key] = value
            while len(self._data) > self.max_entries:
                oldest = next(iter(self._data))
                del self._data[oldest]
                evicted += 1
            if version != self._version:  # raced an invalidate(): drop
                self._data.pop(key, None)
            self.evictions += evicted
        if evicted:
            self._publish(evictions=evicted)

    def get_or(self, key, compute: Callable[[], object]):
        """The cached value for *key*, computing and storing on a miss.

        *compute* runs outside the lock; concurrent misses on the same
        key may compute twice (deterministic computations make that
        merely redundant, never wrong).
        """
        value = self.lookup(key)
        if value is not MISS:
            return value
        value = compute()
        self.put(key, value)
        return value

    # -- management ----------------------------------------------------

    def invalidate(self) -> None:
        """Drop every entry and bump the version (e.g. after a refit)."""
        with self._lock:
            self._data.clear()
            self._version += 1

    def resize(self, max_entries: int) -> None:
        """Change the entry bound, evicting oldest entries if shrinking."""
        if max_entries <= 0:
            raise ValueError("LRUCache needs max_entries >= 1")
        evicted = 0
        with self._lock:
            self.max_entries = max_entries
            while len(self._data) > self.max_entries:
                oldest = next(iter(self._data))
                del self._data[oldest]
                evicted += 1
            self.evictions += evicted
        if evicted:
            self._publish(evictions=evicted)

    @property
    def version(self) -> int:
        """Monotonic invalidation counter (bumped by :meth:`invalidate`)."""
        return self._version

    def stats(self) -> dict[str, int]:
        """Point-in-time counters (for health endpoints and tests)."""
        with self._lock:
            return {
                "size": len(self._data),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "version": self._version,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._data
