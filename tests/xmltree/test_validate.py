"""Tests for structural validation."""

import pytest

from repro.errors import XMLError
from repro.xmltree import (
    Dewey,
    XMLNode,
    build_tree,
    check_tree,
    parse,
)


class TestCheckTree:
    def test_valid_tree(self, figure1_tree):
        assert check_tree(figure1_tree) == len(figure1_tree)

    def test_valid_generated(self, dblp_tree):
        assert check_tree(dblp_tree) == len(dblp_tree)

    def test_detects_broken_dewey(self):
        tree = build_tree(("a", None, [("b", "x")]))
        # Sabotage: relabel the child inconsistently.
        bad = XMLNode("b", Dewey((0, 5, 1)), ("a", "b"), "x")
        tree.root.children[0] = bad
        with pytest.raises(XMLError):
            check_tree(tree)

    def test_detects_broken_type(self):
        tree = build_tree(("a", None, [("b", "x")]))
        tree.root.children[0].node_type = ("z", "b")
        with pytest.raises(XMLError):
            check_tree(tree)

    def test_detects_stale_lookup(self):
        tree = build_tree(("a", None, [("b", "x")]))
        phantom = XMLNode("c", Dewey((0, 9)), ("a", "c"))
        tree._by_dewey[phantom.dewey] = phantom
        tree._ordered.append(phantom.dewey.components)
        with pytest.raises(XMLError):
            check_tree(tree)

    def test_survives_partition_churn(self, figure1_tree):
        from repro.index import (
            append_partition,
            build_document_index,
            remove_partition,
        )

        index = build_document_index(parse("<bib><author><name>x</name></author></bib>"))
        append_partition(
            index, ("author", None, [("name", "y")])
        )
        remove_partition(index, Dewey((0, 0)))
        check_tree(index.tree)


class TestDocumentCollection:
    """Several documents under one synthetic root, one partition each."""

    def test_cross_document_results_are_root_only(self):
        """A query spanning two documents can only 'match' at the
        synthetic root — which meaningful-SLCA rejects, exactly like
        the single-document meaningless-root case."""
        from repro import XRefine

        engine = XRefine.from_tree(build_tree(("collection", None, [
            ("ad", None, [("headline", "red shoes")]),
            ("ad", None, [("headline", "blue hats")]),
        ])))
        slcas = engine.slca_search("red hats")
        assert slcas == [Dewey.root()]
        response = engine.search("red hats", k=2)
        assert response.needs_refinement

    def test_search_within_one_document(self):
        from repro import XRefine

        engine = XRefine.from_tree(build_tree(("collection", None, [
            ("ad", None, [("headline", "red shoes"), ("price", "10")]),
            ("ad", None, [("headline", "blue hats"), ("price", "20")]),
        ])))
        response = engine.search("blue hats")
        assert not response.needs_refinement
