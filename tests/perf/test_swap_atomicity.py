"""Result-cache version-stamp atomicity across snapshot hot-swaps.

The bug class under test: the cache stamp check used to read the index
version and consult the cache as two separate steps, and ``put`` used
to stamp entries with the *store-time* version — so an evaluation (or
even just a lookup) straddling :meth:`XRefine.swap_index` could serve
or store a previous generation's answer under the new generation's
stamp.  The fix captures the version exactly once, atomically with the
lookup, under the cache's lock (which the swap also holds while it
flips), and stamps the put with that captured version.
"""

from __future__ import annotations

import threading

import pytest

from repro import XRefine, build_document_index
from repro.datasets import generate_dblp
from repro.index.tokenize_text import query_terms
from repro.lexicon.mining import RuleMiner
from repro.perf.result_cache import QueryResultCache
from repro.verify.oracle import response_fingerprint
from repro.workload import WorkloadGenerator


@pytest.fixture()
def corpus_pair():
    """Two distinct corpora (what two frozen snapshots would hold)."""
    index_a = build_document_index(generate_dblp(num_authors=30, seed=7))
    index_b = build_document_index(generate_dblp(num_authors=45, seed=8))
    return index_a, index_b


def refinable_query(index, seed=5):
    return list(WorkloadGenerator(index, seed=seed).refinable_query().query)


class TestSwapPurgesTheCache:
    def test_stale_entries_are_unreachable_after_swap(self, corpus_pair):
        index_a, index_b = corpus_pair
        engine = XRefine(index_a)
        query = refinable_query(index_a)
        first = engine.search(query, k=2)
        assert engine.search(query, k=2) is first  # warm

        old_version = engine.index.version
        engine.swap_index(index_b)
        assert engine.index.version == old_version + 1
        # The purge ran under the same lock as the flip: even a reader
        # that captured the *old* version before the swap finds nothing.
        assert engine.result_cache.stats()["size"] == 0
        assert len(engine.result_cache) == 0
        # The sub-result layer obeys the same generation contract.
        assert engine.subresult_cache.stats()["size"] == 0

        after = engine.search(query, k=2)
        assert after is not first
        fresh = XRefine(index_b, cache_size=0)
        assert response_fingerprint(after) == response_fingerprint(
            fresh.search(query, k=2)
        )

    def test_swap_is_idempotent_for_the_same_index(self, corpus_pair):
        index_a, _ = corpus_pair
        engine = XRefine(index_a)
        query = refinable_query(index_a)
        cached = engine.search(query, k=2)
        version = engine.index.version
        engine.swap_index(index_a)  # no-op: same object
        assert engine.index.version == version
        assert engine.search(query, k=2) is cached  # cache survived


class TestStraddlingEvaluation:
    def test_evaluation_across_a_swap_cannot_poison_the_cache(
        self, corpus_pair, monkeypatch
    ):
        """A response computed against generation N, whose store races
        the flip to N+1, must never be served on N+1."""
        import repro.core.ranking.results as results_module

        index_a, index_b = corpus_pair
        engine = XRefine(index_a)
        query = refinable_query(index_a)
        real = results_module.rank_response_results
        swapped = []

        def swapping_hook(index, response):
            real(index, response)
            # Between evaluation and the cache put: the flip happens.
            if not swapped:
                swapped.append(True)
                engine.swap_index(index_b)

        monkeypatch.setattr(
            results_module, "rank_response_results", swapping_hook
        )
        straddler = engine.search(query, k=2, rank_results=True)
        assert swapped  # the race fired

        # The straddling response was stamped with the generation it
        # was computed against (now purged/unreachable) — the next
        # request re-evaluates against the new index.
        after = engine.search(query, k=2, rank_results=True)
        assert after is not straddler
        fresh = XRefine(index_b, cache_size=0)
        assert response_fingerprint(after) == response_fingerprint(
            fresh.search(query, k=2, rank_results=True)
        )

    def test_slca_lookup_and_version_capture_are_atomic(
        self, corpus_pair
    ):
        index_a, index_b = corpus_pair
        engine = XRefine(index_a)
        query = refinable_query(index_a)
        before = engine.slca_search(query)
        engine.swap_index(index_b)
        after = engine.slca_search(query)
        fresh = XRefine(index_b, cache_size=0)
        assert after == fresh.slca_search(query)
        # Not a stale serve of the old generation's list.
        assert engine.result_cache.stats()["invalidations"] >= 1 or (
            after != before
        )


class TestPreparedSwap:
    """``prepare_swap`` pre-builds exactly the state the flip installs."""

    def test_flip_adopts_the_prepared_miner_and_rules(self, corpus_pair):
        index_a, index_b = corpus_pair
        engine = XRefine(index_a)
        query = refinable_query(index_b)
        terms = tuple(query_terms(query))

        warmup = engine.prepare_swap(index_b, [query])
        assert warmup.queries == 1
        assert warmup.miner is not engine.miner  # built for index_b
        prepared_rules = warmup.rules_memo[terms][1]

        engine.swap_index(index_b, warmup=warmup)
        # The flip installed the pre-built miner, so the first post-swap
        # mine_rules is a memo hit on the prepared rule set — no
        # fresh-vocabulary mining on the serving path.
        assert engine.miner is warmup.miner
        assert engine.mine_rules(query) is prepared_rules

    def test_prepared_swap_answers_match_a_fresh_engine(self, corpus_pair):
        index_a, index_b = corpus_pair
        engine = XRefine(index_a)
        query = refinable_query(index_b)
        warmup = engine.prepare_swap(index_b, [query])
        engine.swap_index(index_b, warmup=warmup)
        fresh = XRefine(index_b, cache_size=0)
        assert response_fingerprint(
            engine.search(query, k=2)
        ) == response_fingerprint(fresh.search(query, k=2))

    def test_incremental_prepare_dedups_and_accumulates(self, corpus_pair):
        index_a, index_b = corpus_pair
        engine = XRefine(index_a)
        gen = WorkloadGenerator(index_b, seed=11)
        queries = [list(gen.refinable_query().query) for _ in range(3)]

        warmup = engine.prepare_swap(index_b, queries[:1])
        warmup = engine.prepare_swap(index_b, queries, warmup=warmup)
        # Chained calls share one warmup: the repeat of queries[0] is
        # deduplicated, distinct signatures accumulate.
        distinct = {tuple(query_terms(q)) for q in queries}
        assert warmup.queries == len(distinct)
        assert warmup.seen == distinct

    def test_seed_reuses_mined_rules_when_vocabulary_matches(
        self, corpus_pair
    ):
        """Cycling back to a served snapshot skips re-mining."""
        index_a, index_b = corpus_pair
        engine = XRefine(index_a)
        query = refinable_query(index_b)
        terms = tuple(query_terms(query))
        first = engine.prepare_swap(index_b, [query])
        seed = first.seed_only()
        assert seed.packed is None  # never pins the old generation
        again = engine.prepare_swap(index_b, [query], seed=seed)
        assert again.miner is first.miner
        assert again.rules_memo[terms][1] is first.rules_memo[terms][1]
        assert again.packed is not None  # per-index state is rebuilt
        assert again.queries == 1

    def test_seed_with_different_vocabulary_is_ignored(self, corpus_pair):
        index_a, index_b = corpus_pair
        engine = XRefine(index_a)
        seed = engine.prepare_swap(index_b, [refinable_query(index_b)])
        warmup = engine.prepare_swap(
            index_a, [refinable_query(index_a)], seed=seed.seed_only()
        )
        # index_a's vocabulary differs from index_b's: a reused miner
        # would mine against the wrong keyword set.
        assert warmup.miner is not seed.miner
        assert warmup.miner.vocabulary == set(index_a.inverted.keywords())

    def test_explicit_miner_is_left_untouched(self, corpus_pair):
        index_a, index_b = corpus_pair
        miner = RuleMiner(index_a.inverted.keywords())
        engine = XRefine(index_a, miner=miner)
        query = refinable_query(index_b)
        warmup = engine.prepare_swap(index_b, [query])
        # Caller-supplied miners are the caller's contract: prepare
        # builds no replacement and the flip must not install one.
        assert warmup.miner is None
        engine.swap_index(index_b, warmup=warmup)
        assert engine.miner is miner

    def test_swap_without_warmup_still_works(self, corpus_pair):
        index_a, index_b = corpus_pair
        engine = XRefine(index_a)
        engine.swap_index(index_b)
        query = refinable_query(index_b)
        fresh = XRefine(index_b, cache_size=0)
        assert response_fingerprint(
            engine.search(query, k=2)
        ) == response_fingerprint(fresh.search(query, k=2))


class TestCachedBodyProbe:
    """``XRefine.cached_body``: the daemon's loop-side lookup."""

    def test_counts_only_when_it_returns_a_body(self, corpus_pair):
        index_a, _ = corpus_pair
        engine = XRefine(index_a)
        query = refinable_query(index_a)
        terms = engine.normalize(query, 2, "auto")
        cache = engine.result_cache

        def counted():
            stats = cache.stats()
            return (
                stats["hits"], stats["misses"], stats["sketch"]["samples"]
            )

        # Nothing cached: the probe leaves every counter alone.
        assert engine.cached_body(terms, 2) is None
        assert counted() == (0, 0, 0)
        # Cached, but nobody has rendered it yet: still untouched.
        response = engine.search(terms, k=2)
        after_search = counted()
        assert engine.cached_body(terms, 2) is None
        assert counted() == after_search
        # Rendered: exactly one counted lookup, a hit.
        response.wire_body = b"{}"
        assert engine.cached_body(terms, 2) == b"{}"
        hits, misses, samples = after_search
        assert counted() == (hits + 1, misses, samples + 1)
        # A different k is a different entry.
        assert engine.cached_body(terms, 3) is None

    def test_swap_makes_the_body_unreachable(self, corpus_pair):
        index_a, index_b = corpus_pair
        engine = XRefine(index_a)
        terms = engine.normalize(refinable_query(index_a), 2, "auto")
        engine.search(terms, k=2).wire_body = b"generation-a"
        assert engine.cached_body(terms, 2) == b"generation-a"
        engine.swap_index(index_b)
        assert engine.cached_body(terms, 2) is None

    def test_disabled_cache_and_copies_carry_no_body(self, corpus_pair):
        index_a, _ = corpus_pair
        engine = XRefine(index_a, cache_size=0)
        terms = engine.normalize(refinable_query(index_a), 2, "auto")
        response = engine.search(terms, k=2)
        response.wire_body = b"{}"
        assert engine.cached_body(terms, 2) is None
        assert response.copy().wire_body is None


class TestThreadedStamps:
    def test_concurrent_readers_never_cross_generations(self):
        """Readers doing atomic capture+get while a writer flips.

        Models the engine's locking discipline directly on the cache:
        each reader captures the current version and consults the
        cache under ``cache.lock`` (as ``_search_validated`` does), and
        stores values tagged with their captured version.  The writer
        thread flips the version and purges under the same lock, as
        ``swap_index`` does.  A hit whose payload tag differs from the
        version the reader captured would be a cross-generation serve.
        """
        cache = QueryResultCache(128)
        current = [0]
        violations = []
        errors = []
        stop = threading.Event()
        keys = [("q", i) for i in range(8)]

        def reader(seed):
            local = 0
            try:
                while not stop.is_set():
                    key = keys[(seed + local) % len(keys)]
                    local += 1
                    with cache.lock:
                        version = current[0]
                        hit = cache.get(key, version)
                    if hit is None:
                        # Outside the lock, like a real evaluation —
                        # the put carries the *captured* version.
                        cache.put(key, ("answer", version), version)
                    elif hit != ("answer", version):
                        violations.append((key, version, hit))
                        return
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def swapper():
            try:
                for _ in range(400):
                    if stop.is_set():
                        return
                    with cache.lock:
                        current[0] += 1
                        cache.purge_other_versions(current[0])
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                stop.set()

        threads = [
            threading.Thread(target=reader, args=(i,)) for i in range(4)
        ]
        threads.append(threading.Thread(target=swapper))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        assert errors == []
        assert violations == []
        # The final purge left only current-generation entries behind:
        # every surviving entry must be servable at the final version.
        with cache.lock:
            final = current[0]
            cache.purge_other_versions(final)
            survivors = [key for key in keys if key in cache]
            for key in survivors:
                assert cache.get(key, final) is not None
