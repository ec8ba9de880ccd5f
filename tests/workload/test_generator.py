"""Tests for the workload pool generator."""

import os
import subprocess
import sys

import pytest

from repro.workload import (
    ALL_KINDS,
    WorkloadGenerator,
    pool_statistics,
)


@pytest.fixture(scope="module")
def generator(dblp_index):
    return WorkloadGenerator(dblp_index, seed=41)


class TestIntents:
    def test_intent_has_meaningful_results(self, generator):
        for _ in range(10):
            intent = generator.sample_intent()
            assert 2 <= len(intent) <= 4
            # keywords drawn from one subtree -> all in corpus
            for term in intent:
                assert generator.index.has_keyword(term)

    def test_clean_query_has_results(self, generator):
        query = generator.clean_query()
        assert not query.refinable
        assert query.query == query.intent
        assert query.intent_results


class TestRefinableQueries:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_each_kind(self, generator, kind):
        query = generator.refinable_query(kinds=[kind])
        assert query.refinable
        assert query.kinds == (kind,)
        assert query.query != query.intent
        assert query.intent_results

    def test_mixed_kinds(self, generator):
        query = generator.refinable_query(kinds=["typo", "overconstrain"])
        assert set(query.kinds) == {"typo", "overconstrain"}

    def test_refinable_query_truly_fails(self, generator, dblp_engine):
        for _ in range(5):
            query = generator.refinable_query()
            response = dblp_engine.search(query.query, k=1)
            assert response.needs_refinement, query

    def test_determinism(self, dblp_index):
        a = WorkloadGenerator(dblp_index, seed=5).refinable_query()
        b = WorkloadGenerator(dblp_index, seed=5).refinable_query()
        assert a.query == b.query
        assert a.intent == b.intent


class TestPool:
    def test_pool_composition(self, generator):
        pool = generator.pool(refinable=12, clean=4)
        stats = pool_statistics(pool)
        assert stats["total"] == 16
        assert stats["refinable"] == 12
        assert stats["clean"] == 4
        assert stats["avg_length"] > 1

    def test_kind_counts_recorded(self, generator):
        pool = generator.pool(refinable=10, clean=0)
        stats = pool_statistics(pool)
        assert sum(stats["kind_counts"].values()) >= 10


_POOL_SCRIPT = """
from repro.datasets import generate_dblp
from repro.index.builder import build_document_index
from repro.workload import WorkloadGenerator

index = build_document_index(generate_dblp(num_authors=20, seed=7))
generator = WorkloadGenerator(index, seed=23)
print(generator._rare_terms)
queries = [generator.refinable_query().query for _ in range(6)]
queries += [generator.clean_query().query for _ in range(2)]
print(queries)
"""


class TestDeterminism:
    def test_pool_is_identical_across_hash_seeds(self):
        """The generator must not depend on set-iteration order.

        ``_rare_terms`` used to be cut from a length-only sort whose
        ties fell back to vocabulary-set iteration order — which
        varies per process under hash randomization, so the "fully
        deterministic" pool (and every benchmark built on it) silently
        changed between runs.  Pin it: two interpreters with different
        hash seeds must produce byte-identical pools.
        """
        outputs = []
        for hash_seed in ("101", "202"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
            env["PYTHONPATH"] = os.path.abspath(src)
            result = subprocess.run(
                [sys.executable, "-c", _POOL_SCRIPT],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
