"""Regression: the hot-path caches never change an answer.

For every refinement algorithm in ``ALGORITHMS`` and for the engine's
plain SLCA search, a warm (cached) engine must return results identical
to a cold engine with caching disabled, across a generated workload mix
of refinable and clean queries.  The SLCA answer is also held to each
independent label-list implementation in :mod:`repro.slca`.
"""

import pytest

from repro import XRefine
from repro.core.engine import ALGORITHMS
from repro.index import query_terms
from repro.verify.oracle import SLCA_VARIANTS
from repro.workload import ALL_KINDS, WorkloadGenerator



def response_fingerprint(response):
    """Everything observable about an answer, hashable-comparable."""
    return (
        response.query,
        response.needs_refinement,
        tuple(map(str, response.original_results)),
        tuple(
            (
                refinement.rq.key,
                refinement.rq.dissimilarity,
                round(refinement.rank_score, 9),
                tuple(map(str, refinement.slcas)),
            )
            for refinement in response.refinements
        ),
        tuple(c.node_type for c in response.search_for),
    )


@pytest.fixture(scope="module")
def query_mix(dblp_index):
    generator = WorkloadGenerator(dblp_index, seed=101)
    queries = [generator.refinable_query(kinds=[kind]) for kind in ALL_KINDS[:4]]
    queries.append(generator.clean_query())
    queries.append(generator.clean_query())
    return [list(q.query) for q in queries]


@pytest.fixture(scope="module")
def warm_engine(dblp_index):
    return XRefine(dblp_index)


@pytest.fixture(scope="module")
def cold_engine(dblp_index):
    engine = XRefine(dblp_index, cache_size=0)
    assert not engine.result_cache.enabled
    return engine


class TestRefinementAlgorithms:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_warm_equals_cold(
        self, warm_engine, cold_engine, query_mix, algorithm
    ):
        for query in query_mix:
            first = warm_engine.search(query, k=2, algorithm=algorithm)
            second = warm_engine.search(query, k=2, algorithm=algorithm)
            fresh = cold_engine.search(query, k=2, algorithm=algorithm)
            assert second is first  # served from the cache
            assert response_fingerprint(first) == response_fingerprint(fresh)

    def test_distinct_k_cached_separately(self, warm_engine, query_mix):
        query = query_mix[0]
        top1 = warm_engine.search(query, k=1)
        top3 = warm_engine.search(query, k=3)
        assert top1 is not top3
        assert warm_engine.search(query, k=1) is top1
        assert warm_engine.search(query, k=3) is top3

    def test_caller_rules_bypass_cache(self, warm_engine, query_mix):
        query = query_mix[0]
        rules = warm_engine.mine_rules(query)
        a = warm_engine.search(query, k=2, rules=rules)
        b = warm_engine.search(query, k=2, rules=rules)
        assert a is not b  # explicit rules are never cached
        assert response_fingerprint(a) == response_fingerprint(b)


class TestSLCAAlgorithms:
    @pytest.mark.parametrize("algorithm", sorted(SLCA_VARIANTS))
    def test_warm_equals_cold(
        self, warm_engine, cold_engine, query_mix, algorithm
    ):
        reference = SLCA_VARIANTS[algorithm]
        for query in query_mix:
            first = warm_engine.slca_search(query)
            second = warm_engine.slca_search(query)
            fresh = cold_engine.slca_search(query)
            assert first == second == fresh
            assert fresh == reference([
                cold_engine.index.inverted_list(term).labels()
                for term in query_terms(query)
            ])

    def test_cached_list_is_caller_safe(self, warm_engine, query_mix):
        """Mutating a returned result list must not corrupt the cache."""
        query = query_mix[-1]
        first = warm_engine.slca_search(query)
        first.append("garbage")
        second = warm_engine.slca_search(query)
        assert "garbage" not in second


class TestBatchAPI:
    def test_search_many_matches_singles(self, cold_engine, query_mix):
        batch_engine = XRefine(cold_engine.index)
        log = query_mix + query_mix[::-1]  # repeats in one batch
        responses = batch_engine.search_many(log, k=2)
        assert len(responses) == len(log)
        for query, response in zip(log, responses):
            fresh = cold_engine.search(query, k=2)
            assert response_fingerprint(response) == response_fingerprint(fresh)

    def test_search_many_dedups_but_isolates_duplicates(
        self, dblp_index, query_mix
    ):
        """Duplicates are evaluated once but returned as copies.

        Identity sharing (the pre-serve behavior) let one caller's
        list mutation corrupt every duplicate position's answer; the
        batch still deduplicates before dispatch, the duplicate
        positions just get mutation-isolated copies now.
        """
        engine = XRefine(dblp_index, cache_size=0)  # even with LRU off
        log = [query_mix[0], query_mix[1], query_mix[0]]
        responses = engine.search_many(log)
        assert responses[0] is not responses[2]
        assert responses[0] is not responses[1]
        assert response_fingerprint(responses[0]) == response_fingerprint(
            responses[2]
        )
