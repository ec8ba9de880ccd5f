"""Tests for the XRefine engine facade."""

import pytest

from repro import XRefine, build_document_index
from repro.core.dp import get_top_optimal_rqs
from repro.datasets import generate_dblp
from repro.errors import QueryError
from repro.lexicon import RuleSet
from repro.verify.oracle import SLCA_VARIANTS
from repro.workload import WorkloadGenerator


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


class TestProbeMemo:
    def test_probe_memo_holds_the_one_beam_minimum(self):
        # SLE's C_potential probe and Partition's pruning probe share
        # the 1-beam memo of a query's DP identity: each value is the
        # least dissimilarity itself, int or float as the DP's is.
        index = build_document_index(generate_dblp(num_authors=60, seed=3))
        engine = XRefine(index, cache_size=0)
        pool = WorkloadGenerator(index, seed=4).pool(refinable=12, clean=0)
        checked = 0
        for entry in pool:
            terms = engine.normalize(list(entry.query))
            rules = engine.mine_rules(terms)
            for k in (1, 2):
                for algorithm in ("sle", "partition"):
                    engine.search(terms, k=k, algorithm=algorithm)
                probe_memo = index.derived.dp_memos(terms, rules, 2 * k)[0]
                for present, minimum in probe_memo.items():
                    top = get_top_optimal_rqs(terms, present, rules, 1)
                    expected = top[0].dissimilarity if top else float("inf")
                    assert minimum == expected, (terms, present)
                    assert (type(minimum) is int) == (
                        type(expected) is int
                    ), (terms, present)
                    checked += 1
        assert checked > 0
