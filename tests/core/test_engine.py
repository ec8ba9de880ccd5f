"""Tests for the XRefine engine facade."""

import pytest

from repro import XRefine
from repro.errors import QueryError
from repro.lexicon import RuleSet
from repro.verify.oracle import SLCA_VARIANTS


class TestConstruction:
    def test_from_xml(self):
        engine = XRefine.from_xml("<bib><author><name>x</name></author></bib>")
        assert len(engine.index.tree) == 3

    def test_from_file(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text("<bib><author><name>x</name></author></bib>")
        engine = XRefine.from_file(path)
        assert engine.index.tree.root.tag == "bib"

    def test_from_tree(self, figure1_tree):
        engine = XRefine.from_tree(figure1_tree)
        assert engine.index.tree is figure1_tree


class TestSearch:
    def test_search_direct(self, figure1_engine):
        response = figure1_engine.search("xml twig")
        assert not response.needs_refinement

    def test_search_refines(self, figure1_engine):
        response = figure1_engine.search("on line data base", k=2)
        assert response.needs_refinement
        assert response.best.rq.key == frozenset({"online", "database"})

    def test_algorithms_selectable(self, figure1_engine):
        for algorithm in ("partition", "sle", "stack"):
            response = figure1_engine.search(
                "database publication", algorithm=algorithm
            )
            assert response.needs_refinement

    def test_unknown_algorithm(self, figure1_engine):
        with pytest.raises(QueryError):
            figure1_engine.search("xml", algorithm="quantum")

    def test_empty_query(self, figure1_engine):
        with pytest.raises(QueryError):
            figure1_engine.search("   ")

    def test_query_as_list(self, figure1_engine):
        response = figure1_engine.search(["XML", "Twig"])
        assert not response.needs_refinement

    def test_prebuilt_rules(self, figure1_engine):
        # An empty rule set restricts refinement to deletions only.
        response = figure1_engine.search(
            "database publication", rules=RuleSet()
        )
        assert response.needs_refinement
        for refinement in response.refinements:
            assert refinement.rq.key < frozenset({"database", "publication"})


class TestSLCASearch:
    def test_all_baselines_agree(self, figure1_engine):
        served = figure1_engine.slca_search("database 2003")
        assert served
        lists = [
            figure1_engine.index.inverted_list(term).labels()
            for term in ("database", "2003")
        ]
        for name, baseline in SLCA_VARIANTS.items():
            assert baseline(lists) == served, name

    def test_empty_query(self, figure1_engine):
        with pytest.raises(QueryError):
            figure1_engine.slca_search("")

    def test_node_accessor(self, figure1_engine):
        slcas = figure1_engine.slca_search("database 2003")
        node = figure1_engine.node(slcas[0])
        assert node is not None


class TestMineRules:
    def test_rules_relevant_to_query(self, figure1_engine):
        rules = figure1_engine.mine_rules("on line data base")
        merged = {r.rhs for r in rules.all_rules()}
        assert ("online",) in merged
        assert ("database",) in merged
