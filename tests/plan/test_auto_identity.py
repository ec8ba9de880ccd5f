"""``algorithm="auto"`` must be byte-identical to every fixed choice.

The differential oracle sweeps this over random documents; these tests
pin the property on the shared corpora plus the engine-level behaviors
the oracle cannot see (explain plans, batch validation hoisting,
planner bookkeeping).
"""

import pytest

from repro.core.engine import ALGORITHMS, XRefine
from repro.errors import QueryError
from repro.verify.oracle import response_fingerprint
from repro.workload import WorkloadGenerator, replay, simulate_log


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

    def test_forced_stack_route_falls_back_identically(
        self, engine, queries
    ):
        planner = engine.planner
        for query in queries[:4]:
            terms = tuple(query)
            rules = engine.mine_rules(terms)
            reference = response_fingerprint(
                engine.search(terms, k=2, algorithm="partition")
            )
            plan = planner.plan(terms, rules, k=2, force="stack")
            response = engine._execute_plan(plan, terms, rules, k=2)
            assert response_fingerprint(response) == reference
            if response.needs_refinement:
                assert plan.fallback == "stack->partition"
                assert plan.executed == "partition"

    def test_explain_attaches_a_plan(self, engine, queries):
        response = engine.search(queries[0], k=2, explain=True)
        plan = response.plan
        assert plan is not None
        assert plan.executed in ("partition", "sle", "stack")
        assert plan.actual_seconds is not None
        assert "plan: algorithm=" in plan.describe()

    def test_explain_on_fixed_algorithm_records_a_forced_plan(
        self, engine, queries
    ):
        response = engine.search(
            queries[0], k=2, algorithm="sle", explain=True
        )
        assert response.plan is not None
        assert response.plan.forced == "sle"
        assert response.plan.executed == "sle"

    def test_planner_stats_exposed_via_cache_stats(self, engine, queries):
        engine.search(queries[0], k=2, algorithm="auto")
        stats = engine.cache_stats()["planner"]
        assert stats is not None
        assert stats["planned"] >= 1
        assert sum(stats["routed"].values()) >= 1
        assert "plan_cache" in stats


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


class TestQueryLogReplay:
    def test_replay_routes_through_the_planner(self, dblp_index):
        engine = XRefine(dblp_index)
        log = simulate_log(dblp_index, sessions=12, seed=5)
        responses = replay(engine, log, k=2)
        assert len(responses) == len(log)
        stats = engine.planner.stats()
        assert sum(stats["routed"].values()) >= 1

    def test_replay_answers_match_fixed_partition(self, dblp_index):
        engine = XRefine(dblp_index, cache_size=0)
        log = simulate_log(dblp_index, sessions=6, seed=9)
        auto = replay(engine, log, k=1, algorithm="auto")
        fixed = replay(engine, log, k=1, algorithm="partition")
        for a, f in zip(auto, fixed):
            assert response_fingerprint(a) == response_fingerprint(f)
