"""The consolidated bounded-LRU utility (`repro.caching`).

One implementation now backs the solve cache and the query engine's
offer-level memo; this file
pins the shared semantics and the single ``cache_stats()`` interface
that aggregates every live cache by name.
"""

import threading

from repro.caching import DEFAULT_CACHE_SIZE, LRUCache, cache_stats


class TestSharedImplementation:
    def test_solve_cache_uses_it(self):
        from repro.solver.cache import SolveCache

        assert isinstance(SolveCache()._lru, LRUCache)

    def test_query_engine_uses_it(self):
        from repro.soa.query import QueryEngine
        from repro.soa.registry import ServiceRegistry

        engine = QueryEngine(ServiceRegistry())
        assert isinstance(engine._level_cache, LRUCache)


class TestCacheStats:
    def test_groups_live_caches_by_name(self):
        probe_a = LRUCache(maxsize=2, name="stats-probe")
        probe_b = LRUCache(maxsize=2, name="stats-probe")
        probe_a.put("k", 1)
        probe_a.get("k")
        probe_a.get("missing")
        probe_b.get("also-missing")

        grouped = cache_stats()
        assert "stats-probe" in grouped
        rows = grouped["stats-probe"]
        assert len(rows) == 2
        assert sum(row["hits"] for row in rows) == 1
        assert sum(row["misses"] for row in rows) == 2

    def test_stats_shape(self):
        cache = LRUCache(maxsize=3, name="shape-probe")
        cache.put("a", 1)
        cache.get("a")
        stats = cache.stats()
        for key in ("size", "maxsize", "hits", "misses", "evictions"):
            assert key in stats
        assert stats["hits"] == 1 and stats["size"] == 1


class TestSemantics:
    def test_default_size(self):
        assert LRUCache().maxsize == DEFAULT_CACHE_SIZE

    def test_eviction_order_is_lru(self):
        cache = LRUCache(maxsize=2, name="evict-probe")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a → b becomes the victim
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_threadsafe_mode_under_contention(self):
        cache = LRUCache(maxsize=64, name="mt-probe", threadsafe=True)

        def worker(base):
            for i in range(200):
                cache.put((base, i % 32), i)
                cache.get((base, (i + 7) % 32))

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) <= 64
