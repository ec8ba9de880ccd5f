"""Tests for QueryContext plumbing and the response value objects."""

from array import array

import pytest

from repro.core import RefinedQuery
from repro.core.common import QueryContext
from repro.core.result import RankedRefinement, RefinementResponse, ScanStats
from repro.errors import QueryError
from repro.index.inverted import key_tuples
from repro.kernels import HitRecord, ListColumns, columns_for, slca_hits
from repro.lexicon import RuleMiner, RuleSet
from repro.slca.meaningful import NEVER_MEANINGFUL as _NEVER
from repro.xmltree import Dewey


class TestQueryContext:
    def test_keyword_space_includes_generated(self, figure1_index):
        rules = RuleMiner(figure1_index.inverted.keywords()).mine(
            ["on", "line"]
        )
        context = QueryContext(figure1_index, ["on", "line"], rules)
        assert "online" in context.keyword_space
        assert context.query == ("on", "line")

    def test_absent_generated_keywords_pruned(self, figure1_index):
        from repro.lexicon import substitution_rule

        rules = RuleSet([substitution_rule("xml", "zebra")])
        context = QueryContext(figure1_index, ["xml"], rules)
        assert "zebra" not in context.keyword_space

    def test_query_terms_normalized(self, figure1_index):
        context = QueryContext(figure1_index, "XML Twig", RuleSet())
        assert context.query == ("xml", "twig")

    def test_empty_query_rejected(self, figure1_index):
        with pytest.raises(QueryError):
            QueryContext(figure1_index, [], RuleSet())

    def test_search_for_from_keyword_space(self, figure1_index):
        """Pure-typo queries still get search-for candidates via KS."""
        from repro.lexicon import substitution_rule

        rules = RuleSet([substitution_rule("databse", "database")])
        context = QueryContext(figure1_index, ["databse"], rules)
        assert context.search_for  # inferred from "database"

    def test_meaningful_filter(self, figure1_index):
        rules = RuleMiner(figure1_index.inverted.keywords()).mine(
            ["database"]
        )
        context = QueryContext(figure1_index, ["database"], rules)
        inproc = Dewey((0, 0, 1, 0))
        columns = columns_for(context.lists["database"])
        slot = next(
            i for i, key in enumerate(key_tuples(*columns.flat_offs()))
            if key[:4] == inproc.components
        )
        # The same posting seen from the root (depth 1) and from its
        # inproceedings ancestor (depth 4).
        assert not context.is_meaningful_at(columns, slot, 1)
        assert context.is_meaningful_at(columns, slot, 4)
        # The kernel keeps exactly the SLCAs is_meaningful_at keeps,
        # as a record of column entries, with their count.
        ranges = [(columns, 0, columns.size)]
        every = slca_hits(ranges)
        expected = [
            key for key, position, depth in
            zip(every.keys(), every.positions, every.depths)
            if context.is_meaningful_at(columns, position, depth)
        ]
        meaningful, count = context.meaningful_hits(ranges)
        assert isinstance(meaningful, HitRecord)
        assert expected and meaningful.keys() == expected
        assert count == len(meaningful) == len(expected)
        assert context.any_meaningful_hit(ranges)
        # A type no search-for type prefixes is never meaningful.
        context.need = array("q", [_NEVER] * len(context.need))
        assert context.meaningful_hits(ranges)[1] == 0
        assert not context.any_meaningful_hit(ranges)


class TestScanStats:
    def test_as_dict_round(self):
        stats = ScanStats()
        stats.postings_scanned = 5
        data = stats.as_dict()
        assert data["postings_scanned"] == 5
        assert set(data) == set(ScanStats.__slots__)


class TestRankedRefinement:
    def test_accessors(self):
        rq = RefinedQuery(("a", "b"), 2)
        ranked = RankedRefinement(rq, [Dewey((0, 1))], rank_score=1.5)
        assert ranked.keywords == ("a", "b")
        assert ranked.dissimilarity == 2
        assert ranked.result_count == 1

    def test_results_built_once_when_read(self):
        rq = RefinedQuery(("a",), 1)
        hits = HitRecord(
            [ListColumns([(0, 1, 7), (0, 2, 3)])],
            array("q", [0, 1]), array("q", [2, 3]),
        )
        ranked = RankedRefinement(rq, hits=hits)
        assert ranked.result_count == 2
        clone = ranked.copy()
        assert ranked.labels() == clone.labels() == ["0.1", "0.2.3"]
        labels = ranked.slcas
        assert labels == [Dewey((0, 1)), Dewey((0, 2, 3))]
        assert ranked.slcas is labels
        assert ranked.result_count == 2
        # A copy taken before the read builds its own labels; one taken
        # after gets its own list of the same labels.
        assert clone.slcas == labels and clone.slcas is not labels
        later = ranked.copy()
        assert later.slcas == labels and later.slcas is not labels
        assert later.slcas[0] is labels[0]


class TestRefinementResponse:
    def make(self, refinements):
        return RefinementResponse(
            query=("q",),
            needs_refinement=True,
            original_results=[],
            refinements=refinements,
            search_for=[],
            stats=ScanStats(),
        )

    def test_top_and_best(self):
        items = [
            RankedRefinement(RefinedQuery((f"k{i}",), i), [])
            for i in range(3)
        ]
        response = self.make(items)
        assert response.best is items[0]
        assert response.top(2) == items[:2]

    def test_best_none_when_empty(self):
        assert self.make([]).best is None

    def test_candidates_default_to_refinements(self):
        items = [RankedRefinement(RefinedQuery(("k",), 1), [])]
        response = self.make(items)
        assert response.candidates == items
