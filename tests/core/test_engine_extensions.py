"""Tests for engine extensions: ranked results, eager build."""

from repro.core.ranking import score_result
from repro.index import build_document_index


class TestRankedResults:
    def test_flag_orders_results(self, dblp_engine, dblp_index):
        response = dblp_engine.search("databse query", k=2, rank_results=True)
        for refinement in response.refinements:
            scores = [
                score_result(dblp_index, dewey, refinement.rq.keywords)
                for dewey in refinement.slcas
            ]
            assert scores == sorted(scores, reverse=True)

    def test_flag_off_keeps_document_order(self, dblp_engine):
        response = dblp_engine.search("databse query", k=1)
        for refinement in response.refinements:
            labels = [d.components for d in refinement.slcas]
            assert labels == sorted(labels)

    def test_direct_hit_with_flag(self, dblp_engine, dblp_index):
        response = dblp_engine.search(
            "database query", k=1, rank_results=True
        )
        assert not response.needs_refinement
        scores = [
            score_result(dblp_index, dewey, response.query)
            for dewey in response.original_results
        ]
        assert scores == sorted(scores, reverse=True)


class TestEagerCooccurrence:
    def test_eager_equals_lazy(self, figure1_tree):
        lazy = build_document_index(figure1_tree)
        t = ("bib", "author", "publications", "inproceedings")
        eager = build_document_index(
            figure1_tree, eager_cooccurrence_types=[t]
        )
        # Eager table is pre-populated...
        assert len(eager.cooccurrence) > 0
        # ...and returns identical counts.
        for ki, kj in (("database", "2003"), ("xml", "twig")):
            assert eager.cooccurrence.count(ki, kj, t) == (
                lazy.cooccurrence.count(ki, kj, t)
            )
