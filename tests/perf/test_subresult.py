"""The term-signature sub-result cache and its engine integration.

The invalidation contract under test: a sub-result entry is served
only when (a) its version stamp equals the index's current version and
(b) the requesting query's inferred search-for types equal the types
the SLCA set was computed against — meaningfulness is relative to the
query's own type inference, so a types mismatch is a miss, never a
wrong answer.  Deposits cover only oracle-fingerprinted surfaces: a
direct hit's own results and a refinement evaluation's per-refinement
SLCA sets.
"""

from __future__ import annotations

import pytest

from repro import XRefine, build_document_index
from repro.datasets import generate_dblp
from repro.perf import SubResultCache, term_signature
from repro.verify.oracle import response_fingerprint
from repro.workload import WorkloadGenerator


@pytest.fixture(scope="module")
def index():
    return build_document_index(generate_dblp(num_authors=30, seed=7))


class TestTermSignature:
    def test_order_insensitive(self):
        assert term_signature(["b", "a"]) == term_signature(["a", "b"])

    def test_duplicate_insensitive(self):
        assert term_signature(["a", "a", "b"]) == term_signature(
            ["b", "a"]
        )


class TestSubResultCache:
    TYPES = (("inproceedings",),)

    def test_put_get_roundtrip(self):
        cache = SubResultCache(maxsize=8)
        signature = ("a", "b")
        cache.put(signature, 0, self.TYPES, ["0.1", "0.2"])
        assert cache.get(signature, 0, self.TYPES) == ("0.1", "0.2")
        assert cache.stats()["hits"] == 1

    def test_stale_version_dropped(self):
        cache = SubResultCache(maxsize=8)
        cache.put(("a",), 0, self.TYPES, ["0.1"])
        assert cache.get(("a",), 1, self.TYPES) is None
        assert cache.stats()["invalidations"] == 1
        assert len(cache) == 0

    def test_types_mismatch_is_a_miss_not_an_answer(self):
        cache = SubResultCache(maxsize=8)
        cache.put(("a",), 0, self.TYPES, ["0.1"])
        other = (("article",),)
        assert cache.get(("a",), 0, other) is None
        assert cache.stats()["mismatches"] == 1
        # The entry stays — a query with the matching types can still
        # use it.
        assert cache.get(("a",), 0, self.TYPES) == ("0.1",)

    def test_empty_slcas_never_deposited(self):
        cache = SubResultCache(maxsize=8)
        cache.put(("a",), 0, self.TYPES, [])
        assert len(cache) == 0
        assert cache.stats()["deposits"] == 0

    def test_capacity_evicts_least_recent(self):
        cache = SubResultCache(maxsize=2)
        cache.put(("a",), 0, self.TYPES, ["0.1"])
        cache.put(("b",), 0, self.TYPES, ["0.2"])
        cache.get(("a",), 0, self.TYPES)
        cache.put(("c",), 0, self.TYPES, ["0.3"])
        assert cache.get(("b",), 0, self.TYPES) is None
        assert cache.get(("a",), 0, self.TYPES) is not None
        assert cache.stats()["evictions"] == 1

    def test_purge_other_versions(self):
        cache = SubResultCache(maxsize=8)
        cache.put(("a",), 0, self.TYPES, ["0.1"])
        cache.put(("b",), 1, self.TYPES, ["0.2"])
        assert cache.purge_other_versions(1) == 1
        assert cache.get(("b",), 1, self.TYPES) is not None
        assert len(cache) == 1

    def test_absent_signature_counts_one_miss(self):
        cache = SubResultCache(maxsize=8)
        cache.put(("a",), 0, self.TYPES, ["0.1"])
        assert cache.absent(("b",))
        assert not cache.absent(("a",))  # present: get() counts it
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 0

    def test_zero_size_disables(self):
        cache = SubResultCache(maxsize=0)
        assert not cache.enabled
        cache.put(("a",), 0, self.TYPES, ["0.1"])
        assert cache.get(("a",), 0, self.TYPES) is None


class TestEngineIntegration:
    def refinable_terms(self, index, seed=5):
        return list(
            WorkloadGenerator(index, seed=seed).refinable_query().query
        )

    def test_refinement_evaluation_deposits_subresults(self, index):
        engine = XRefine(index)
        response = engine.search(self.refinable_terms(index), k=2)
        assert response.needs_refinement
        deposited = engine.subresult_cache.stats()["deposits"]
        assert deposited >= len(
            [r for r in response.refinements if r.slcas]
        ) > 0

    def test_assembly_matches_cold_evaluation(self, index):
        """A reformulation chain's follow-up reuses deposited SLCAs.

        The refinable query's evaluation deposits its refinements'
        SLCA sets; re-issuing each refinement with the result cache
        emptied must be served through sub-result assembly and still
        be byte-identical to a cache-disabled engine.
        """
        engine = XRefine(index)
        cold = XRefine(index, cache_size=0)
        first = engine.search(self.refinable_terms(index), k=2)
        followups = [list(r.rq.keywords) for r in first.refinements]
        assert followups
        engine.result_cache.clear()
        hits_before = engine.subresult_cache.stats()["hits"]
        for follow in followups:
            warm = engine.search(follow, k=2)
            assert response_fingerprint(warm) == response_fingerprint(
                cold.search(follow, k=2)
            )
        assert engine.subresult_cache.stats()["hits"] > hits_before

    def test_assembled_response_hits_the_result_cache(self, index):
        engine = XRefine(index)
        first = engine.search(self.refinable_terms(index), k=2)
        follow = list(first.refinements[0].rq.keywords)
        engine.result_cache.clear()
        assembled = engine.search(follow, k=2)
        assert engine.search(follow, k=2) is assembled

    def test_index_update_invalidates_deposits(self, index):
        """Any index mutation bumps the version; stale entries die."""
        corpus = build_document_index(
            generate_dblp(num_authors=30, seed=7)
        )
        engine = XRefine(corpus)
        first = engine.search(self.refinable_terms(corpus), k=2)
        assert engine.subresult_cache.stats()["size"] > 0
        follow = list(first.refinements[0].rq.keywords)
        corpus.invalidate_caches()  # what every index update calls
        engine.result_cache.clear()
        warm = engine.search(follow, k=2)
        stats = engine.subresult_cache.stats()
        assert stats["invalidations"] > 0 or stats["mismatches"] > 0
        cold = XRefine(corpus, cache_size=0)
        assert response_fingerprint(warm) == response_fingerprint(
            cold.search(follow, k=2)
        )

    def test_first_seen_query_counts_one_subresult_miss(
        self, index, monkeypatch
    ):
        """Every result-cache miss the sub-result layer could answer is
        counted as its hit or its miss, so hits / (hits + misses) is
        the share of those misses answered by assembly.  An absent
        signature is the miss, found before any query context is built
        for it."""
        import repro.core.engine as engine_module

        built = []

        class CountingContext(engine_module.QueryContext):
            def __init__(self, *args, **kwargs):
                built.append(args[1])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine_module, "QueryContext", CountingContext)
        engine = XRefine(index)
        engine.search(self.refinable_terms(index), k=2)
        stats = engine.subresult_cache.stats()
        assert (stats["hits"], stats["misses"]) == (0, 1)
        assert built == []

    def test_subresult_size_zero_disables_assembly(self, index):
        engine = XRefine(index, subresult_size=0)
        engine.search(self.refinable_terms(index), k=2)
        assert engine.subresult_cache.stats()["deposits"] == 0

    def test_cache_stats_surface_every_layer(self, index):
        engine = XRefine(index)
        stats = engine.cache_stats()
        # A constant the wire benchmark's /stats reader still expects.
        assert stats["results"]["admission_rejects"] == 0
        assert "evictions" in stats["results"]
        assert set(stats["subresults"]) >= {
            "hits", "misses", "mismatches", "deposits", "evictions",
        }
