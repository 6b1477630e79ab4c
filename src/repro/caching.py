"""The one bounded-LRU implementation shared by every memo in the tree.

Three independent LRU variants used to coexist (the telemetry cache, the
store's entailment memo wrapper, and the solve cache's lock-wrapped
copy); they are consolidated here behind a single class with a single
stats interface.  Every cache registers itself (weakly) under its name,
so :func:`cache_stats` reports the hit/miss/eviction counters of *all*
live caches in one call — the "single pane of glass" the runtime and the
bench harness read.

Hit/miss traffic also feeds the active metrics registry (counter family
``cache_hits_total``/``cache_misses_total{cache=<name>,tier=<tier>}``);
counter children are re-resolved only when the active registry changes,
so the per-access telemetry cost is one identity comparison.  The
``tier`` label is empty for standalone caches and names the level
(``l1``/``l2``) for caches stacked by :mod:`repro.fleet.cache`, so a
metrics snapshot separates per-shard from fleet-wide hit traffic.

Entries can optionally age out: pass ``ttl`` (seconds) and expired
entries read as misses (counted under ``expirations``).  Expiry reads
the injected ``clock`` — ``time.monotonic`` by default — and the clock
is consulted *only* when a TTL is configured, so the common (unbounded
lifetime) hot path never makes a syscall.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

_MISSING = object()

#: Default capacity for library caches.
DEFAULT_CACHE_SIZE = 4096

#: Weak registry of every live cache, keyed by insertion order; names may
#: repeat (e.g. per-broker solve caches), so stats are reported as a list
#: per name.
_ALL_CACHES: "weakref.WeakSet[LRUCache]" = weakref.WeakSet()


def _active_registry() -> Any:
    """The active metrics registry.

    :mod:`repro.telemetry` imports this module, so its runtime is
    imported on the first lookup, which then rebinds this name to
    ``get_registry`` itself: later lookups cost one call, not an import.
    """
    global _active_registry
    from .telemetry.runtime import get_registry

    _active_registry = get_registry
    return get_registry()


class _NullLock:
    """No-op lock for single-threaded caches (the common case)."""

    __slots__ = ()

    def __enter__(self) -> "_NullLock":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


class LRUCache:
    """Least-recently-used mapping with a hard capacity.

    Keys are kept with strong references, so identity-keyed callers
    (e.g. caching per-constraint-object results) never see an id reused
    by the garbage collector while the entry is alive.  Pass
    ``threadsafe=True`` to guard every operation with an ``RLock`` (the
    runtime's worker pool shares the solve cache across threads).
    """

    def __init__(
        self,
        maxsize: int = DEFAULT_CACHE_SIZE,
        name: str = "cache",
        threadsafe: bool = False,
        telemetry: bool = True,
        tier: str = "",
        ttl: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive (or None)")
        self.maxsize = maxsize
        self.name = name
        self.threadsafe = threadsafe
        #: Cache-tier label for the hit/miss counter family; empty for
        #: standalone caches, ``l1``/``l2`` for fleet-stacked ones.
        self.tier = tier
        #: Entry lifetime in seconds; ``None`` (the default) keeps
        #: entries until LRU eviction.  ``clock`` is injectable for
        #: tests and is never consulted while ``ttl`` is ``None``.
        self.ttl = ttl
        self._clock = clock if clock is not None else time.monotonic
        #: ``telemetry=False`` skips the per-access metrics emission —
        #: for caches on paths hot enough that even the null-registry
        #: resolution shows up (the coalition engine's scorer does a few
        #: hundred lookups per candidate).  ``hits``/``misses`` and
        #: :func:`cache_stats` still work; callers surface totals
        #: through their own counters instead.
        self.telemetry = telemetry
        self._lock = threading.RLock() if threadsafe else _NullLock()
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self._bound: Tuple[Any, Any, Any] = (None, None, None)
        _ALL_CACHES.add(self)

    # -- telemetry ------------------------------------------------------

    def _counters(self) -> Tuple[Any, Any]:
        registry, hit, miss = self._bound
        active = _active_registry()
        if registry is not active:
            hit = active.counter(
                "cache_hits_total",
                "Cache lookups answered from the cache.",
                labelnames=("cache", "tier"),
            ).labels(self.name, self.tier)
            miss = active.counter(
                "cache_misses_total",
                "Cache lookups that had to be computed.",
                labelnames=("cache", "tier"),
            ).labels(self.name, self.tier)
            self._bound = (active, hit, miss)
        return hit, miss

    # -- mapping --------------------------------------------------------

    def _lookup(self, key: Hashable) -> Any:
        """Raw lookup under the caller-held lock: the live value, or
        ``_MISSING`` for absent *and* TTL-expired entries (expired ones
        are dropped on sight)."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            return _MISSING
        if self.ttl is not None:
            expires_at, payload = value
            if self._clock() >= expires_at:
                del self._data[key]
                self.expirations += 1
                return _MISSING
            value = payload
        self._data.move_to_end(key)
        return value

    def get(self, key: Hashable, default: Any = None) -> Any:
        if not self.telemetry:
            with self._lock:
                value = self._lookup(key)
                if value is _MISSING:
                    self.misses += 1
                    return default
                self.hits += 1
            return value
        hit, miss = self._counters()
        with self._lock:
            value = self._lookup(key)
            if value is _MISSING:
                self.misses += 1
            else:
                self.hits += 1
        if value is _MISSING:
            miss.inc()
            return default
        hit.inc()
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if self.ttl is not None:
            value = (self._clock() + self.ttl, value)
        with self._lock:
            data = self._data
            if key in data:
                data.move_to_end(key)
            data[key] = value
            if len(data) > self.maxsize:
                data.popitem(last=False)
                self.evictions += 1

    def get_or_compute(
        self, key: Hashable, compute: Callable[[], Any]
    ) -> Any:
        value = self.get(key, _MISSING)
        if value is _MISSING:
            value = compute()
            self.put(key, value)
        return value

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            if self.ttl is None:
                return key in self._data
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                return False
            if self._clock() >= value[0]:
                del self._data[key]
                self.expirations += 1
                return False
            return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def resize(self, maxsize: int) -> None:
        """Change capacity, evicting the LRU tail if shrinking."""
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        with self._lock:
            self.maxsize = maxsize
            while len(self._data) > maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def stats(self) -> Dict[str, int]:
        with self._lock:
            stats: Dict[str, int] = {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations,
            }
        if self.tier:
            stats["tier"] = self.tier  # type: ignore[assignment]
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LRUCache({self.name!r}, {len(self._data)}/{self.maxsize}, "
            f"{self.hits} hit(s), {self.misses} miss(es))"
        )


#: Extra stat rows merged into :func:`cache_stats` by name — for memo-adjacent
#: counters that are not LRU caches (e.g. the solver's lowering-fallback
#: tally).  Each provider returns the same row-list shape ``stats()`` does.
_STATS_PROVIDERS: Dict[str, Callable[[], List[Dict[str, int]]]] = {}


def register_stats_provider(
    name: str, provider: Callable[[], List[Dict[str, int]]]
) -> None:
    """Publish non-LRU counter rows under ``name`` in :func:`cache_stats`."""
    _STATS_PROVIDERS[name] = provider


def cache_stats() -> Dict[str, List[Dict[str, int]]]:
    """Stats of every live cache, grouped by name — the single stats
    interface over the formerly-independent LRU implementations."""
    grouped: Dict[str, List[Dict[str, int]]] = {}
    for cache in list(_ALL_CACHES):
        grouped.setdefault(cache.name, []).append(cache.stats())
    for stats_list in grouped.values():
        stats_list.sort(
            key=lambda s: (-s.get("size", 0), -s.get("hits", 0))
        )
    for name, provider in _STATS_PROVIDERS.items():
        rows = provider()
        if rows:
            grouped[name] = rows
    return grouped
