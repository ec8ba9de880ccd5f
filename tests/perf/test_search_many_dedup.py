"""``search_many`` dispatches each unique query exactly once.

The batch API deduplicates on normalized terms *before* dispatch, so
the guarantee must hold even with the LRU result cache disabled.
Counted by wrapping the refinement entry point the engine actually
calls.
"""

from __future__ import annotations

import pytest

from repro import XRefine
from repro.verify.oracle import response_fingerprint
from repro.workload import WorkloadGenerator


@pytest.fixture(scope="module")
def skewed_log(dblp_index):
    generator = WorkloadGenerator(dblp_index, seed=29)
    pool = [
        list(generator.refinable_query().query),
        list(generator.clean_query().query),
        list(generator.refinable_query().query),
    ]
    # 9 requests over 3 unique queries, duplicates interleaved.
    return pool, [pool[i] for i in (0, 1, 0, 2, 1, 0, 2, 2, 1)]


class TestSearchManyDedup:
    def test_serial_executes_once_per_unique_query(
        self, dblp_index, skewed_log, monkeypatch
    ):
        import repro.core.engine as engine_module

        pool, log = skewed_log
        calls = []
        real = engine_module.partition_refine

        def counting(index, query, **kwargs):
            calls.append(tuple(query))
            return real(index, query, **kwargs)

        monkeypatch.setattr(engine_module, "partition_refine", counting)
        engine = XRefine(dblp_index, cache_size=0)
        # Pin the algorithm so every unique query hits the counted
        # kernel ("auto" runs SLE).
        responses = engine.search_many(log, k=2, algorithm="partition")

        assert len(responses) == len(log)
        assert len(calls) == len(pool)
        assert len(set(calls)) == len(pool)
        # Duplicate requests get mutation-isolated copies of the one
        # evaluated response (same answer, distinct objects).
        fingerprint = response_fingerprint
        assert responses[0] is not responses[2]
        assert fingerprint(responses[0]) == fingerprint(responses[2])
        assert fingerprint(responses[0]) == fingerprint(responses[5])
        assert fingerprint(responses[3]) == fingerprint(responses[6])

    def test_duplicate_responses_are_mutation_isolated(
        self, dblp_index, skewed_log
    ):
        """Regression: one caller mutating a duplicate's result lists
        must not corrupt any other position's answer."""
        _, log = skewed_log
        engine = XRefine(dblp_index, cache_size=0)
        responses = engine.search_many(log, k=2)
        victim, twin = responses[0], responses[2]
        reference = response_fingerprint(twin)
        # Trash every caller-facing list on the duplicate position.
        victim.refinements[0].slcas.append("garbage")
        victim.refinements.clear()
        victim.original_results.append("garbage")
        victim.candidates.clear()
        assert response_fingerprint(twin) == reference

    def test_warm_cache_still_returns_one_response_per_request(
        self, dblp_index, skewed_log
    ):
        _, log = skewed_log
        engine = XRefine(dblp_index)
        first = engine.search_many(log, k=2)
        second = engine.search_many(log, k=2)
        assert len(first) == len(second) == len(log)
        for a, b in zip(first, second):
            # Served from the LRU on the second batch (same answer);
            # duplicate positions are per-batch copies of the hit.
            assert response_fingerprint(a) == response_fingerprint(b)
