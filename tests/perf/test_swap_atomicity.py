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

import gc
import threading
import weakref

import pytest

from repro import XRefine, build_document_index
from repro.core.common import QueryContext
from repro.datasets import generate_dblp
from repro.index.tokenize_text import query_terms
from repro.kernels import backend
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
    """``prepare_swap`` fills the new index's holder; the flip serves it."""

    def test_flip_adopts_the_prepared_miner_and_rules(self, corpus_pair):
        index_a, index_b = corpus_pair
        engine = XRefine(index_a)
        query = refinable_query(index_b)
        terms = tuple(query_terms(query))

        assert engine.prepare_swap(index_b, [query]) == 1
        miner = index_b.derived.miner
        assert miner is not engine.miner  # built for index_b
        assert len(miner.keyword_rules) == len(set(terms))

        engine.swap_index(index_b)
        # The flip serves the warmed holder, so the first post-swap
        # mine_rules reads every keyword's rules from the prepared
        # miner's memo: no keyword is mined on the serving path.
        assert engine.miner is miner
        before = miner.keyword_rules.stats()
        engine.mine_rules(query)
        after = miner.keyword_rules.stats()
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + len(terms)

    def test_prepared_swap_answers_match_a_fresh_engine(self, corpus_pair):
        index_a, index_b = corpus_pair
        engine = XRefine(index_a)
        query = refinable_query(index_b)
        engine.prepare_swap(index_b, [query])
        engine.swap_index(index_b)
        fresh = XRefine(index_b, cache_size=0)
        assert response_fingerprint(
            engine.search(query, k=2)
        ) == response_fingerprint(fresh.search(query, k=2))

    @pytest.mark.skipif(
        backend.compiled is None, reason="compiled kernels unavailable"
    )
    def test_prepare_decodes_columns_and_builds_no_key_tuples(
        self, corpus_pair
    ):
        # The compiled decode fills the columns the routes read, and a
        # list keeps no key tuple beside them.  The queries come from a
        # second build of index_b's corpus: the generator decodes the
        # lists it samples.
        index_a, index_b = corpus_pair
        engine = XRefine(index_a)
        twin = build_document_index(generate_dblp(num_authors=45, seed=8))
        gen = WorkloadGenerator(twin, seed=13)
        queries = [list(gen.refinable_query().query) for _ in range(4)]
        assert engine.prepare_swap(index_b, queries) == len(queries)
        warmed = [
            inverted
            for query in queries
            for inverted in QueryContext(
                index_b, tuple(query_terms(query)),
                index_b.derived.miner.mine(tuple(query_terms(query))),
            ).lists.values()
            if len(inverted)
        ]
        assert warmed
        for inverted in warmed:
            assert inverted._kernel_columns is not None, inverted.keyword
            assert not hasattr(inverted, "_keys"), inverted.keyword

        engine.swap_index(index_b)
        fresh = XRefine(twin, cache_size=0)
        assert response_fingerprint(
            engine.search(queries[0], k=2)
        ) == response_fingerprint(fresh.search(queries[0], k=2))

    def test_incremental_prepare_dedups_and_accumulates(self, corpus_pair):
        index_a, index_b = corpus_pair
        engine = XRefine(index_a)
        gen = WorkloadGenerator(index_b, seed=11)
        queries = [list(gen.refinable_query().query) for _ in range(3)]

        engine.prepare_swap(index_b, queries[:1])
        engine.prepare_swap(index_b, queries)
        # Both calls warm one miner: the repeat of queries[0] reads its
        # keywords from the miner's memo, and distinct keywords
        # accumulate.
        keywords = [
            term for query in queries[:1] + queries
            for term in query_terms(query)
        ]
        stats = index_b.derived.stats()["keyword_rules"]
        assert stats["size"] == stats["misses"] == len(set(keywords))
        assert stats["hits"] == len(keywords) - len(set(keywords))

    def test_prepared_miner_shares_the_serving_spelling_arrays(
        self, corpus_pair
    ):
        """A prepared swap updates the serving miner, as an unprepared
        one does: its spelling index shares the serving arrays."""
        index_a, index_b = corpus_pair
        # The same snapshot loaded again (a new index, same vocabulary),
        # and a changed one.
        again = build_document_index(generate_dblp(num_authors=30, seed=7))
        for target in (again, index_b):
            engine = XRefine(index_a)
            engine.search("databse query")  # builds the spelling index
            built = engine.miner.spelling_index()
            assert engine.prepare_swap(target, [refinable_query(target)]) == 1
            prepared = target.derived.miner
            assert prepared is not engine.miner
            assert prepared.vocabulary == set(target.inverted.keywords())
            assert prepared.spelling_index()._hashes is built._hashes
            engine.swap_index(target)
            assert engine.miner is prepared

    def test_prepared_miner_mines_what_a_fresh_miner_mines(
        self, corpus_pair
    ):
        index_a, index_b = corpus_pair
        engine = XRefine(index_a)
        # The serving miner has a spelling index, stems and a warm memo.
        engine.search("databse systems", k=2)
        gen = WorkloadGenerator(index_b, seed=11)
        queries = [list(gen.refinable_query().query) for _ in range(8)]
        queries += [
            ["databse", "systems"], ["on", "line", "data", "base"],
            list(index_a.inverted.keywords())[:3],
        ]
        assert engine.prepare_swap(index_b, queries) == len(queries)
        prepared = index_b.derived.miner
        fresh = RuleMiner(index_b.inverted.keywords())
        for query in queries:
            terms = tuple(query_terms(query))
            assert prepared.mine(terms).fingerprint() == (
                fresh.mine(terms).fingerprint()
            ), terms

    def test_swap_without_warmup_still_works(self, corpus_pair):
        index_a, index_b = corpus_pair
        engine = XRefine(index_a)
        engine.search("databse query")  # builds the spelling index
        built = engine.miner.spelling_index()
        engine.swap_index(index_b)
        query = refinable_query(index_b)
        fresh = XRefine(index_b, cache_size=0)
        assert response_fingerprint(
            engine.search(query, k=2)
        ) == response_fingerprint(fresh.search(query, k=2))
        # The old miner was carried over (RuleMiner.updated), spelling
        # index arrays included.
        assert engine.miner.vocabulary == set(index_b.inverted.keywords())
        assert engine.miner.spelling_index()._hashes is built._hashes

    def test_seed_never_pins_a_retired_index(self, corpus_pair):
        _, index_b = corpus_pair
        # Built here: the fixture's own reference would pin it.
        index_a = build_document_index(generate_dblp(num_authors=30, seed=7))
        engine = XRefine(index_a)
        miners = [engine.miner]
        engine.search(refinable_query(index_a), k=2)
        engine.prepare_swap(index_b, [refinable_query(index_b)])
        engine.swap_index(index_b)
        miners.append(index_b.derived.miner)
        # The retired generation's miner seeded the new one; neither
        # holds an index, so the old generation can go.
        retired = weakref.ref(index_a)
        del index_a
        gc.collect()
        assert retired() is None
        assert all(miner is not None for miner in miners)


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
                stats["hits"], stats["misses"], stats["invalidations"]
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
        hits, misses, invalidations = after_search
        assert counted() == (hits + 1, misses, invalidations)
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
