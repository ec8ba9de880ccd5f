"""Unit tests for the invalidating query-result cache (both policies)."""

import pytest

from repro.perf import QueryResultCache


class TestLRU:
    """The plain-LRU baseline policy keeps its original semantics."""

    def test_hit_after_put(self):
        cache = QueryResultCache(maxsize=4, policy="lru")
        cache.put("a", 1, version=0)
        assert cache.get("a", version=0) == 1
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_on_absent(self):
        cache = QueryResultCache(maxsize=4, policy="lru")
        assert cache.get("a", version=0) is None
        assert cache.misses == 1

    def test_capacity_evicts_least_recent(self):
        cache = QueryResultCache(maxsize=2, policy="lru")
        cache.put("a", 1, version=0)
        cache.put("b", 2, version=0)
        assert cache.get("a", version=0) == 1  # refresh "a"
        cache.put("c", 3, version=0)           # evicts "b"
        assert cache.get("b", version=0) is None
        assert cache.get("a", version=0) == 1
        assert cache.get("c", version=0) == 3
        assert cache.evictions == 1
        assert cache.admission_rejects == 0

    def test_put_overwrites(self):
        cache = QueryResultCache(maxsize=2, policy="lru")
        cache.put("a", 1, version=0)
        cache.put("a", 2, version=0)
        assert cache.get("a", version=0) == 2
        assert len(cache) == 1

    def test_zero_size_disables(self):
        cache = QueryResultCache(maxsize=0, policy="lru")
        assert not cache.enabled
        cache.put("a", 1, version=0)
        assert cache.get("a", version=0) is None
        assert len(cache) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            QueryResultCache(maxsize=-1)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            QueryResultCache(maxsize=4, policy="clairvoyant")


class TestTinyLFU:
    """W-TinyLFU admission: window, frequency gate, segmented LRU."""

    def test_default_policy_is_tinylfu(self):
        assert QueryResultCache(maxsize=8).policy == "tinylfu"

    def test_basic_hit(self):
        cache = QueryResultCache(maxsize=8)
        cache.put("a", 1, version=0)
        assert cache.get("a", version=0) == 1

    def test_working_set_below_capacity_never_rejects(self):
        cache = QueryResultCache(maxsize=64)
        for i in range(60):
            cache.put(i, i, version=0)
        for i in range(60):
            assert cache.get(i, version=0) == i
        assert cache.admission_rejects == 0
        assert cache.evictions == 0

    def test_one_hit_wonders_do_not_flush_the_hot_head(self):
        cache = QueryResultCache(maxsize=100)
        # Build a hot head with real request frequency.
        for _ in range(5):
            for key in range(99):
                if cache.get(key, version=0) is None:
                    cache.put(key, key, version=0)
        # A long scan of one-hit wonders tries to flow through.
        for noise in range(1000, 1400):
            cache.get(noise, version=0)
            cache.put(noise, noise, version=0)
        assert cache.admission_rejects > 0
        # The hot head survived the scan.
        survivors = sum(
            1 for key in range(99) if cache.get(key, version=0) is not None
        )
        assert survivors >= 90

    def test_repeated_candidate_eventually_admitted(self):
        cache = QueryResultCache(maxsize=100)
        for _ in range(3):
            for key in range(99):
                if cache.get(key, version=0) is None:
                    cache.put(key, key, version=0)
        # A genuinely popular newcomer builds sketch credit with every
        # (missing) lookup and must eventually displace a victim.
        for _ in range(8):
            cache.get("newcomer", version=0)
            cache.put("newcomer", 42, version=0)
        assert cache.get("newcomer", version=0) == 42

    def test_sketch_halving_keeps_admission_live_after_drift(self):
        cache = QueryResultCache(maxsize=32)
        # Phase 1: an extremely hot head monopolizes the frequency
        # sketch (far beyond the sample limit, forcing halvings).
        for _ in range(200):
            for key in range(30):
                if cache.get(key, version=0) is None:
                    cache.put(key, key, version=0)
        assert cache.stats()["sketch"]["age_resets"] > 0
        # Phase 2: traffic drifts to a brand-new head.  Halving must
        # decay the old head's counts enough for the new head to win
        # admission within a couple of sample windows.
        for _ in range(40):
            for key in range(100, 130):
                if cache.get(key, version=0) is None:
                    cache.put(key, key, version=0)
        admitted = sum(
            1
            for key in range(100, 130)
            if cache.get(key, version=0) is not None
        )
        assert admitted >= 15

    def test_maxsize_one_degenerates_to_lru(self):
        cache = QueryResultCache(maxsize=1)
        cache.put("a", 1, version=0)
        cache.put("b", 2, version=0)
        assert cache.get("b", version=0) == 2
        assert cache.get("a", version=0) is None
        assert cache.evictions == 1

    def test_version_mismatch_invalidates_in_main_region(self):
        cache = QueryResultCache(maxsize=100)
        for key in range(99):  # fill past the window into probation
            cache.put(key, key, version=0)
        assert cache.get(5, version=1) is None
        assert cache.invalidations == 1
        assert 5 not in cache


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

    @pytest.mark.parametrize("policy", ["lru", "tinylfu"])
    def test_purge_other_versions_sweeps_every_segment(self, policy):
        cache = QueryResultCache(maxsize=100, policy=policy)
        for key in range(80):
            cache.put(key, key, version=0)
        for key in range(10):
            cache.get(key, version=0)  # promote some to protected
        for key in range(80, 90):
            cache.put(key, key, version=1)
        dropped = cache.purge_other_versions(1)
        assert dropped == 80
        for key in range(80):
            assert key not in cache
        for key in range(80, 90):
            assert cache.get(key, version=1) == key

    def test_stats_snapshot(self):
        cache = QueryResultCache(maxsize=4, policy="lru")
        cache.put("a", 1, version=0)
        cache.get("a", version=0)
        cache.get("zzz", version=0)
        stats = cache.stats()
        assert stats == {
            "size": 1,
            "maxsize": 4,
            "policy": "lru",
            "hits": 1,
            "misses": 1,
            "invalidations": 0,
            "evictions": 0,
            "admission_rejects": 0,
            "sketch": None,
        }

    def test_tinylfu_stats_include_sketch(self):
        cache = QueryResultCache(maxsize=4)
        stats = cache.stats()
        assert stats["policy"] == "tinylfu"
        assert stats["sketch"]["age_resets"] == 0
        assert stats["sketch"]["sample_limit"] == 40


class TestPeek:
    @pytest.mark.parametrize("policy", ["lru", "tinylfu"])
    def test_peek_returns_what_get_would_and_counts_nothing(self, policy):
        cache = QueryResultCache(maxsize=8, policy=policy)
        cache.put("a", 1, version=0)
        before = cache.stats()
        assert cache.peek("a", version=0) == 1
        assert cache.peek("absent", version=0) is None
        assert cache.peek("a", version=1) is None  # stale stamp
        # No counter, sketch sample or entry moved: the stale entry is
        # still there for a counted get() to discard.
        assert cache.stats() == before
        assert "a" in cache
