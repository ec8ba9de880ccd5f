"""Tests for the lazy co-occurrence table against brute force.

``f_{ki,kj}^T`` is one forward merge of two key columns
(:mod:`repro.kernels.ancestors`): the compiled kernel, its Python twin
and the set intersection of the two lists' T-typed ancestor keys must
agree, and ``f_k^T`` read from the frequent table must equal the
ancestor-set size through updates and delta chains.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.backend as backend_module
from repro.datasets import generate_dblp
from repro.index import (
    build_document_index,
    freeze_index,
    load_frozen_index,
    load_index_chain,
    node_keywords,
    save_delta,
)
from repro.index.blocks import encode_posting_payload
from repro.index.inverted import InvertedList
from repro.kernels import columns_for
from repro.kernels.ancestors import (
    _common_python,
    common_ancestors,
    under_table,
)
from repro.xmltree import build_tree, parse, serialize

from .consistency import append_partition, remove_partition


def brute_cooccur(tree, ki, kj, node_type):
    count = 0
    for node in tree.iter_nodes():
        if node.node_type != node_type:
            continue
        terms = set()
        for descendant in tree.iter_subtree(node.dewey):
            terms.update(node_keywords(descendant))
        if ki in terms and kj in terms:
            count += 1
    return count


class TestCooccurrence:
    def test_figure1_pairs(self, figure1_tree, figure1_index):
        t_inproc = ("bib", "author", "publications", "inproceedings")
        cases = [
            ("database", "2003"),
            ("database", "2006"),
            ("xml", "twig"),
            ("xml", "2003"),
        ]
        for ki, kj in cases:
            assert figure1_index.cooccurrence.count(ki, kj, t_inproc) == (
                brute_cooccur(figure1_tree, ki, kj, t_inproc)
            )

    def test_symmetry(self, figure1_index):
        t = ("bib", "author")
        table = figure1_index.cooccurrence
        assert table.count("xml", "2004", t) == table.count("2004", "xml", t)

    def test_absent_keyword(self, figure1_index):
        t = ("bib", "author")
        assert figure1_index.cooccurrence.count("xml", "zebra", t) == 0

    def test_containing_count_matches_df(self, figure1_index):
        t = ("bib", "author", "publications", "inproceedings")
        for keyword in ("database", "xml", "2006", "skyline"):
            assert figure1_index.cooccurrence.containing_count(
                keyword, t
            ) == figure1_index.xml_df(keyword, t)

    def test_confidence_formula7(self, figure1_index):
        t = ("bib", "author", "publications", "inproceedings")
        table = figure1_index.cooccurrence
        expected = table.count("database", "2003", t) / figure1_index.xml_df(
            "database", t
        )
        assert table.confidence("database", "2003", t) == expected

    def test_confidence_zero_denominator(self, figure1_index):
        t = ("bib", "author")
        assert figure1_index.cooccurrence.confidence("zebra", "xml", t) == 0.0

    def test_memoization(self, figure1_index):
        table = figure1_index.cooccurrence
        t = ("bib", "author")
        before = len(table)
        table.count("online", "search", t)
        after_first = len(table)
        table.count("search", "online", t)  # symmetric key: cached
        assert len(table) == after_first
        assert after_first >= before

    def test_build_pairs_eager(self, figure1_index):
        table = figure1_index.cooccurrence
        t = ("bib", "author")
        keywords = ["xml", "database", "online"]
        table.build_pairs(keywords, [t])
        for ki, kj in combinations(keywords, 2):
            # Already cached: count() hits the store.
            assert table.count(ki, kj, t) >= 0

    def test_count_stable_across_invalidate(self, figure1_tree):
        index = build_document_index(figure1_tree)
        table = index.cooccurrence
        t = ("bib", "author")
        expected = brute_cooccur(figure1_tree, "xml", "2004", t)
        assert table.count("xml", "2004", t) == expected
        assert table.count("xml", "2004", t) == expected  # memoized
        table.invalidate()
        assert len(table) == 0
        assert table.count("2004", "xml", t) == expected

    def test_absent_keyword_and_unknown_type_not_memoized(self, figure1_tree):
        table = build_document_index(figure1_tree).cooccurrence
        assert table.count("xml", "zebra", ("bib", "author")) == 0
        assert table.count("xml", "xml", ("bib", "nowhere")) == 0
        assert len(table) == 0

    def test_random_trees_against_brute(self):
        rng = random.Random(5)
        words = ["w1", "w2", "w3"]

        def spec(depth):
            text = " ".join(
                rng.choice(words) for _ in range(rng.randint(0, 2))
            )
            if depth == 0:
                return ("leaf", text or None)
            return (
                "node",
                text or None,
                [spec(depth - 1) for _ in range(rng.randint(1, 3))],
            )

        for _ in range(10):
            tree = build_tree(spec(3))
            index = build_document_index(tree)
            for node_type in list(index.statistics.types()):
                for ki, kj in combinations(words, 2):
                    assert index.cooccurrence.count(ki, kj, node_type) == (
                        brute_cooccur(tree, ki, kj, node_type)
                    ), (node_type, ki, kj)


# ----------------------------------------------------------------------
# The merge kernel against the ancestor sets
# ----------------------------------------------------------------------
TAGS = ("a", "b", "c")


def _type_of(key):
    """A node's type path from its key: the tag of each component."""
    return ("r",) + tuple(TAGS[component % 3] for component in key[1:])


@st.composite
def posting_lists(draw):
    """Two posting lists over one type table, plus a node type."""
    keys = draw(st.lists(
        st.lists(st.integers(0, 4), min_size=0, max_size=4).map(
            lambda tail: (0,) + tuple(tail)
        ),
        max_size=40,
    ))
    type_table = sorted({_type_of(key)[:depth]
                         for key in keys
                         for depth in range(1, len(key) + 1)} | {("r",)})
    # A type no posting is under, interned all the same.
    type_table.append(("r", "zz"))
    type_ids = {node_type: i for i, node_type in enumerate(type_table)}

    def one_list(name):
        chosen = sorted(set(draw(st.lists(st.sampled_from(keys), max_size=25)
                                 if keys else st.just([]))))
        payload = encode_posting_payload(
            name, chosen, [type_ids[_type_of(key)] for key in chosen],
            [1] * len(chosen),
        )
        return InvertedList.open(name, payload, type_table)

    a = one_list("ki")
    b = a if draw(st.booleans()) else one_list("kj")
    node_type = draw(st.sampled_from(type_table))
    return a, b, node_type


@pytest.fixture(params=["compiled", "pure-python"])
def backend(request, monkeypatch):
    if request.param == "pure-python":
        monkeypatch.setattr(backend_module, "compiled", None)
    elif backend_module.compiled is None:
        pytest.skip("compiled backend unavailable on this host")
    return request.param


@settings(max_examples=200, deadline=None)
@given(case=posting_lists())
def test_merge_equals_ancestor_set_intersection(case):
    a, b, node_type = case
    expected = len(
        set(a.ancestor_keys(node_type)) & set(b.ancestor_keys(node_type))
    )
    twin = _common_python(
        columns_for(a), columns_for(b),
        under_table(a.type_table, node_type), len(node_type),
    )
    assert twin == expected
    assert common_ancestors(a, b, node_type) == expected
    if backend_module.compiled is not None:
        saved = backend_module.compiled
        backend_module.compiled = None
        try:
            assert common_ancestors(a, b, node_type) == expected
        finally:
            backend_module.compiled = saved


def test_merge_edge_cases(backend, figure1_index):
    inverted = figure1_index.inverted
    xml = inverted.get("xml")
    root = ("bib",)
    assert common_ancestors(xml, xml, root) == 1
    assert common_ancestors(xml, inverted.get("zebra"), root) == 0
    assert common_ancestors(inverted.get("zebra"), xml, root) == 0
    author = ("bib", "author")
    assert common_ancestors(xml, xml, author) == len(
        set(xml.ancestor_keys(author))
    )
    # A type nothing is under, interned or not.
    assert common_ancestors(xml, xml, ("bib", "author", "hobby")) == 0
    assert common_ancestors(xml, xml, ("bib", "nowhere")) == 0


SMALL_AUTHORS = 300
SMALL_SEED = 7


def _assert_counts_match_ancestor_sets(index):
    """``f_k^T`` and ``f_{k,k}^T`` against the ancestor sets, every
    ``(k, T)`` of the index."""
    table = index.cooccurrence
    types = index.inverted.node_type_table
    for keyword in index.inverted.keywords():
        postings = index.inverted.get(keyword)
        for node_type in types:
            expected = len(set(postings.ancestor_keys(node_type)))
            assert table.containing_count(keyword, node_type) == expected, (
                keyword, node_type
            )
            assert index.xml_df(keyword, node_type) == expected
            assert table.count(keyword, keyword, node_type) == expected


def _author(name, title):
    return ("author", None, [
        ("name", name),
        ("publications", None, [("inproceedings", None, [("title", title)])]),
    ])


@pytest.fixture(scope="module")
def small_tree():
    return generate_dblp(num_authors=SMALL_AUTHORS, seed=SMALL_SEED)


class TestContainingCountIsDf:
    def test_every_pair_of_small(self, small_tree):
        _assert_counts_match_ancestor_sets(build_document_index(small_tree))

    def test_after_updates(self, figure1_tree):
        index = build_document_index(parse(serialize(figure1_tree)))
        append_partition(index, _author("zoe", "xml stream skyline"))
        _assert_counts_match_ancestor_sets(index)
        remove_partition(index, index.tree.partitions()[0].dewey)
        _assert_counts_match_ancestor_sets(index)

    def test_delta_chain(self, figure1_index, tmp_path):
        base = tmp_path / "base.frz"
        freeze_index(figure1_index, base)
        first = load_frozen_index(base)
        append_partition(first, _author("carol", "stream joins xml"))
        remove_partition(first, first.tree.partitions()[1].dewey)
        delta = tmp_path / "first.dlt"
        save_delta(first, delta, base)
        _assert_counts_match_ancestor_sets(load_index_chain(delta))
