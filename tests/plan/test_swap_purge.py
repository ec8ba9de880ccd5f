"""Planner state across snapshot hot-swaps.

``on_index_swap`` drops what was derived from the old generation — the
DP memos, keyed on rule sets mined from its vocabulary — and keeps the
route counters, which are monitoring state for the engine's lifetime.
A swapped engine must then answer exactly like a fresh one.
"""

from __future__ import annotations

import pytest

from repro import XRefine, build_document_index
from repro.datasets import generate_dblp
from repro.verify.oracle import response_fingerprint
from repro.workload import WorkloadGenerator


@pytest.fixture()
def corpus_pair():
    index_a = build_document_index(generate_dblp(num_authors=30, seed=7))
    index_b = build_document_index(generate_dblp(num_authors=45, seed=8))
    return index_a, index_b


def queries_for(index, seed, count=6):
    generator = WorkloadGenerator(index, seed=seed)
    pool = [generator.refinable_query() for _ in range(count - 2)]
    pool += [generator.clean_query() for _ in range(2)]
    return [list(q.query) for q in pool]


class TestCorrectionReset:
    """What the planner derived from the old generation is dropped.

    The learned per-route drift corrections went with the cost model;
    the DP memos are what a generation can still leave behind.
    """

    def test_poisoned_corrections_are_dropped_on_swap(self, corpus_pair):
        index_a, index_b = corpus_pair
        engine = XRefine(index_a, cache_size=0)
        for query in queries_for(index_a, seed=11):
            engine.search(query, k=2)
        planner = engine.planner
        assert planner.stats()["dp_memos"] >= 1
        # Poison every memo the old generation built; none may survive
        # the swap, and the new generation answers like a fresh engine.
        poisoned = [
            memo for memos in planner._dp_memos.values() for memo in memos
        ]
        for memo in poisoned:
            for key in memo:
                memo[key] = None

        engine.swap_index(index_b)
        assert planner.stats()["dp_memos"] == 0
        assert planner.index is index_b
        for query in queries_for(index_a, seed=11):
            engine.search(query, k=2)
        assert not any(
            memo is old
            for memos in planner._dp_memos.values()
            for memo in memos
            for old in poisoned
        )
        fresh = XRefine(index_b, cache_size=0)
        for query in queries_for(index_a, seed=11):
            assert response_fingerprint(
                engine.search(query, k=2)
            ) == response_fingerprint(fresh.search(query, k=2)), query

    def test_routing_recovers_to_a_fresh_planners_decisions(
        self, corpus_pair
    ):
        index_a, index_b = corpus_pair
        engine = XRefine(index_a, cache_size=0)
        for query in queries_for(index_a, seed=13):
            engine.search(query, k=2)
        engine.swap_index(index_b)

        fresh = XRefine(index_b, cache_size=0)
        for query in queries_for(index_b, seed=17, count=4):
            swapped = engine.search(query, k=2, explain=True)
            cold = fresh.search(query, k=2, explain=True)
            assert swapped.plan.executed == cold.plan.executed == "sle"
            assert response_fingerprint(swapped) == response_fingerprint(
                cold
            ), query

    def test_routing_counters_survive_the_swap(self, corpus_pair):
        index_a, index_b = corpus_pair
        engine = XRefine(index_a, cache_size=0)
        for query in queries_for(index_a, seed=19, count=4):
            engine.search(query, k=2, algorithm="auto")
        engine.search(queries_for(index_a, seed=19, count=4)[0], k=1,
                      algorithm="partition")
        planner = engine.planner
        routed_before = dict(planner.routed)
        assert routed_before["sle"] == 4
        assert routed_before["partition"] == 1

        engine.swap_index(index_b)
        assert planner.routed == routed_before
