"""Unit tests for the invalidating query-result cache (a versioned LRU)."""

import pytest

from repro.perf import QueryResultCache


class TestLRU:
    def test_hit_after_put(self):
        cache = QueryResultCache(maxsize=4)
        cache.put("a", 1, version=0)
        assert cache.get("a", version=0) == 1
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_on_absent(self):
        cache = QueryResultCache(maxsize=4)
        assert cache.get("a", version=0) is None
        assert cache.misses == 1

    def test_capacity_evicts_least_recent(self):
        cache = QueryResultCache(maxsize=2)
        cache.put("a", 1, version=0)
        cache.put("b", 2, version=0)
        assert cache.get("a", version=0) == 1  # refresh "a"
        cache.put("c", 3, version=0)           # evicts "b"
        assert cache.get("b", version=0) is None
        assert cache.get("a", version=0) == 1
        assert cache.get("c", version=0) == 3
        assert cache.evictions == 1

    def test_put_overwrites(self):
        cache = QueryResultCache(maxsize=2)
        cache.put("a", 1, version=0)
        cache.put("a", 2, version=0)
        assert cache.get("a", version=0) == 2
        assert len(cache) == 1

    def test_zero_size_disables(self):
        cache = QueryResultCache(maxsize=0)
        assert not cache.enabled
        cache.put("a", 1, version=0)
        assert cache.get("a", version=0) is None
        assert len(cache) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            QueryResultCache(maxsize=-1)


class TestVersioning:
    def test_version_mismatch_invalidates(self):
        cache = QueryResultCache(maxsize=4)
        cache.put("a", 1, version=0)
        assert cache.get("a", version=1) is None
        assert cache.invalidations == 1
        assert "a" not in cache  # evicted for good, not retried

    def test_entries_at_new_version_coexist(self):
        cache = QueryResultCache(maxsize=4)
        cache.put("a", 1, version=0)
        cache.put("b", 2, version=1)
        assert cache.get("b", version=1) == 2
        assert cache.get("a", version=1) is None

    def test_clear_counts_invalidations(self):
        cache = QueryResultCache(maxsize=4)
        cache.put("a", 1, version=0)
        cache.put("b", 2, version=0)
        cache.clear()
        assert len(cache) == 0
        assert cache.invalidations == 2

    def test_purge_other_versions_drops_every_stale_entry(self):
        cache = QueryResultCache(maxsize=100)
        for key in range(80):
            cache.put(key, key, version=0)
        for key in range(10):
            cache.get(key, version=0)  # reorder: purge ignores recency
        for key in range(80, 90):
            cache.put(key, key, version=1)
        dropped = cache.purge_other_versions(1)
        assert dropped == 80
        for key in range(80):
            assert key not in cache
        for key in range(80, 90):
            assert cache.get(key, version=1) == key

    def test_stats_snapshot(self):
        cache = QueryResultCache(maxsize=4)
        cache.put("a", 1, version=0)
        cache.get("a", version=0)
        cache.get("zzz", version=0)
        stats = cache.stats()
        assert stats == {
            "size": 1,
            "maxsize": 4,
            "hits": 1,
            "misses": 1,
            "invalidations": 0,
            "evictions": 0,
        }


class TestPeek:
    def test_peek_returns_what_get_would_and_counts_nothing(self):
        cache = QueryResultCache(maxsize=2)
        cache.put("a", 1, version=0)
        cache.put("b", 2, version=0)
        before = cache.stats()
        assert cache.peek("a", version=0) == 1
        assert cache.peek("absent", version=0) is None
        assert cache.peek("a", version=1) is None  # stale stamp
        # No counter or entry moved: the stale entry is still there for
        # a counted get() to discard, and "a" is still the least recent.
        assert cache.stats() == before
        assert "a" in cache
        cache.put("c", 3, version=0)
        assert "a" not in cache and "b" in cache
