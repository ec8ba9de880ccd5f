"""``algorithm="auto"`` is Algorithm 3 (SLE), answer for answer.

The differential oracle sweeps the byte-identity over random
documents; these tests pin it on the shared corpora, down to the scan
counters, plus the engine-level behaviors the oracle cannot see
(explain records cold and on a result-cache hit, batch validation
hoisting, route counters).
"""

import pytest

from repro.core.engine import ALGORITHMS, XRefine
from repro.core.result import ScanStats
from repro.errors import QueryError
from repro.index.tokenize_text import query_terms
from repro.verify.oracle import response_fingerprint
from repro.workload import WorkloadGenerator


@pytest.fixture(scope="module")
def queries(dblp_index):
    generator = WorkloadGenerator(dblp_index, seed=23)
    pool = [generator.refinable_query() for _ in range(6)]
    pool += [generator.clean_query() for _ in range(3)]
    return [list(q.query) for q in pool]


@pytest.fixture(scope="module")
def engine(dblp_index):
    return XRefine(dblp_index, cache_size=0)


class TestAutoIdentity:
    def test_auto_is_the_default_algorithm(self):
        assert ALGORITHMS[0] == "auto"

    def test_auto_equals_partition_and_sle(self, engine, queries):
        for query in queries:
            auto = response_fingerprint(
                engine.search(query, k=2, algorithm="auto")
            )
            for fixed in ("partition", "sle"):
                assert auto == response_fingerprint(
                    engine.search(query, k=2, algorithm=fixed)
                ), (query, fixed)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_auto_is_sle_down_to_the_scan_counters(
        self, dblp_index, queries, k
    ):
        # Two cold engines, so DP-memo state cannot differ either.
        auto_engine = XRefine(dblp_index, cache_size=0)
        sle_engine = XRefine(dblp_index, cache_size=0)
        counters = [
            name for name in ScanStats.__slots__ if name != "elapsed_seconds"
        ]
        for query in queries:
            auto = auto_engine.search(query, k=k, algorithm="auto")
            sle = sle_engine.search(query, k=k, algorithm="sle")
            assert response_fingerprint(auto) == response_fingerprint(sle)
            assert [
                (c.rq.keywords, c.rq.dissimilarity, c.slcas)
                for c in auto.candidates
            ] == [
                (c.rq.keywords, c.rq.dissimilarity, c.slcas)
                for c in sle.candidates
            ], query
            for name in counters:
                assert getattr(auto.stats, name) == getattr(
                    sle.stats, name
                ), (query, name)

    def test_explain_attaches_a_plan(self, engine, queries):
        response = engine.search(queries[0], k=2, explain=True)
        plan = response.plan
        assert plan is not None
        assert plan.executed == "sle"
        assert plan.forced is None
        assert not plan.cached
        assert plan.actual_seconds is not None
        assert "plan: algorithm=sle (auto)" in plan.describe()

    def test_explain_on_fixed_algorithm_records_a_forced_plan(
        self, engine, queries
    ):
        response = engine.search(
            queries[0], k=2, algorithm="sle", explain=True
        )
        assert response.plan is not None
        assert response.plan.forced == "sle"
        assert response.plan.executed == "sle"

    def test_planner_stats_exposed_via_cache_stats(self, dblp_index, queries):
        engine = XRefine(dblp_index, cache_size=0)
        for algorithm in ("auto", "partition", "stack"):
            engine.search(queries[0], k=2, algorithm=algorithm)
        stats = engine.cache_stats()["planner"]
        assert stats["routed"] == {"partition": 1, "sle": 1, "stack": 1}
        assert stats["dp_memos"] >= 1
        assert stats["fallbacks"] == 0


class TestExplainOnAResultCacheHit:
    """An explained hit carries a ``cached`` plan on a copy."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_hit_carries_a_cached_plan(self, dblp_index, queries, algorithm):
        engine = XRefine(dblp_index)
        first = engine.search(queries[0], k=2, algorithm=algorithm)
        assert first.plan is None
        explained = engine.search(
            queries[0], k=2, algorithm=algorithm, explain=True
        )
        plan = explained.plan
        assert plan is not None
        assert plan.cached
        assert plan.executed == ("sle" if algorithm == "auto" else algorithm)
        assert plan.forced == (None if algorithm == "auto" else algorithm)
        assert "served from the result cache" in plan.describe()
        assert response_fingerprint(explained) == response_fingerprint(first)
        # The shared entry is untouched: later hits still carry no plan.
        assert explained is not first
        assert first.plan is None
        assert engine.search(queries[0], k=2, algorithm=algorithm) is first

    def test_explained_miss_then_explained_hit(self, dblp_index, queries):
        engine = XRefine(dblp_index)
        cold = engine.search(queries[1], k=2, explain=True)
        assert not cold.plan.cached
        warm = engine.search(queries[1], k=2, explain=True)
        assert warm.plan.cached
        assert warm.plan.actual_seconds == cold.plan.actual_seconds
        assert not cold.plan.cached

    def test_auto_and_sle_share_one_entry(self, dblp_index, queries):
        engine = XRefine(dblp_index)
        auto = engine.search(queries[2], k=2)
        assert engine.search(queries[2], k=2, algorithm="sle") is auto
        assert engine.cache_stats()["planner"]["routed"]["sle"] == 1


class TestSearchManyValidationHoist:
    def test_duplicate_batch_validates_once(self, dblp_index, monkeypatch):
        engine = XRefine(dblp_index, cache_size=0)
        import repro.core.engine as engine_module

        calls = {"k": 0}
        original = engine_module._validate_k

        def counting_validate_k(k):
            calls["k"] += 1
            return original(k)

        monkeypatch.setattr(engine_module, "_validate_k", counting_validate_k)
        responses = engine.search_many(
            ["databse systems"] * 10_000, k=2, algorithm="auto"
        )
        assert len(responses) == 10_000
        # One evaluation, mutation-isolated copies for the duplicates.
        assert all(
            r.refinements[0].keywords == responses[0].refinements[0].keywords
            and r.stats is responses[0].stats
            for r in responses
        )
        assert calls["k"] == 1

    def test_batch_rejects_bad_arguments_up_front(self, dblp_index):
        engine = XRefine(dblp_index, cache_size=0)
        with pytest.raises(QueryError):
            engine.search_many(["xml"], k=0)
        with pytest.raises(QueryError):
            engine.search_many(["xml"], algorithm="bogus")
        with pytest.raises(QueryError, match="empty"):
            engine.search_many(["xml", "   "])


class TestBatchWithRepeats:
    """A batch with repeated queries, as a query log would send it."""

    @pytest.fixture
    def batch(self, queries):
        return queries + queries[::2] + queries[:3]

    def test_batch_routes_each_distinct_query_once(self, dblp_index, batch):
        engine = XRefine(dblp_index, cache_size=0)
        responses = engine.search_many(batch, k=2)
        assert len(responses) == len(batch)
        routed = engine.planner.stats()["routed"]
        distinct = len({tuple(query_terms(query)) for query in batch})
        assert distinct < len(batch)
        assert routed == {"partition": 0, "sle": distinct, "stack": 0}

    def test_batch_answers_match_fixed_partition(self, dblp_index, batch):
        engine = XRefine(dblp_index, cache_size=0)
        auto = engine.search_many(batch, k=1, algorithm="auto")
        fixed = engine.search_many(batch, k=1, algorithm="partition")
        for a, f in zip(auto, fixed, strict=True):
            assert response_fingerprint(a) == response_fingerprint(f)
