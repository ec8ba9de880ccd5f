"""Tests for incremental index maintenance (append/remove partitions).

The contract: after any sequence of partition appends and removals,
every statistic equals what a fresh one-pass build over the updated
document would produce, and search behaves identically.
"""

import random

import pytest

from repro import XRefine
from repro.errors import XMLError
from repro.index import build_document_index
from repro.xmltree import Dewey, parse, serialize

# Every mutation below goes through the checked wrappers: check_tree
# and the posting-side invariant run after each one.
from .consistency import append_partition, remove_partition


def author_spec(name, titles):
    return (
        "author",
        None,
        [
            ("name", name),
            (
                "publications",
                None,
                [
                    (
                        "inproceedings",
                        None,
                        [("title", title), ("year", "2007")],
                    )
                    for title in titles
                ],
            ),
        ],
    )


def assert_equivalent_to_rebuild(index):
    """Full statistical equivalence with a from-scratch build."""
    fresh = build_document_index(parse(serialize(index.tree)))
    assert set(index.inverted.keywords()) == set(fresh.inverted.keywords())
    for keyword in fresh.inverted.keywords():
        assert index.inverted.list_length(keyword) == fresh.inverted.list_length(
            keyword
        ), keyword
    for node_type in fresh.statistics.types():
        assert index.node_count(node_type) == fresh.node_count(node_type)
        assert index.distinct_keywords(node_type) == fresh.distinct_keywords(
            node_type
        ), node_type
        for keyword in fresh.inverted.keywords():
            assert index.xml_df(keyword, node_type) == fresh.xml_df(
                keyword, node_type
            ), (keyword, node_type)
            assert index.tf(keyword, node_type) == fresh.tf(
                keyword, node_type
            ), (keyword, node_type)


@pytest.fixture()
def small_index():
    tree = parse(
        """<bib>
        <author><name>john</name><publications>
          <inproceedings><title>xml search</title><year>2003</year></inproceedings>
        </publications></author>
        <author><name>mary</name><publications>
          <article><title>database query</title><year>2005</year></article>
        </publications></author>
        </bib>"""
    )
    return build_document_index(tree)


class TestAppend:
    def test_node_attached(self, small_index):
        node = append_partition(
            small_index, author_spec("alice", ["quantum refinement"])
        )
        assert node.dewey == Dewey((0, 2))
        assert len(small_index.tree.partitions()) == 3

    def test_new_keywords_searchable(self, small_index):
        append_partition(
            small_index, author_spec("alice", ["quantum refinement"])
        )
        assert small_index.has_keyword("quantum")
        engine = XRefine(small_index)
        response = engine.search("quantum refinement")
        assert not response.needs_refinement

    def test_statistics_match_rebuild(self, small_index):
        append_partition(
            small_index, author_spec("alice", ["quantum xml", "xml views"])
        )
        assert_equivalent_to_rebuild(small_index)

    def test_repeated_appends(self, small_index):
        for i in range(4):
            append_partition(
                small_index, author_spec(f"auth{i}", [f"topic{i} xml"])
            )
        assert_equivalent_to_rebuild(small_index)

    def test_existing_keyword_lists_extended(self, small_index):
        before = small_index.inverted.list_length("xml")
        append_partition(small_index, author_spec("bob", ["xml ranking"]))
        assert small_index.inverted.list_length("xml") == before + 1

    def test_cooccurrence_invalidated(self, small_index):
        t = ("bib", "author")
        before = small_index.cooccurrence.count("xml", "2003", t)
        append_partition(
            small_index, author_spec("eve", ["xml 2003 redux"])
        )
        # Note: year element text is "2007"; the title adds 2003+xml.
        after = small_index.cooccurrence.count("xml", "2003", t)
        assert after == before + 1


class TestRemove:
    def test_partition_detached(self, small_index):
        remove_partition(small_index, Dewey((0, 0)))
        assert len(small_index.tree.partitions()) == 1
        assert Dewey((0, 0)) not in small_index.tree

    def test_keywords_disappear(self, small_index):
        remove_partition(small_index, Dewey((0, 0)))
        assert small_index.inverted.list_length("john") == 0
        assert small_index.xml_df("john", ("bib",)) == 0

    def test_statistics_match_rebuild(self, small_index):
        remove_partition(small_index, Dewey((0, 0)))
        assert_equivalent_to_rebuild(small_index)

    def test_remove_non_partition_rejected(self, small_index):
        with pytest.raises(XMLError):
            remove_partition(small_index, Dewey((0, 0, 0)))

    def test_append_after_remove_no_collision(self, small_index):
        """Removing a non-tail partition must not recycle its ordinal
        for a live sibling (len(children) would collide with 0.1)."""
        remove_partition(small_index, Dewey((0, 0)))
        node = append_partition(small_index, author_spec("carol", ["webs"]))
        assert node.dewey == Dewey((0, 2))
        assert_equivalent_to_rebuild(small_index)

    def test_append_after_tail_remove_reuses_safely(self, small_index):
        """Reusing the ordinal of a fully purged *tail* partition keeps
        document order valid and the index consistent."""
        remove_partition(small_index, Dewey((0, 1)))
        node = append_partition(small_index, author_spec("carol", ["webs"]))
        assert node.dewey == Dewey((0, 1))
        assert_equivalent_to_rebuild(small_index)


class TestCachedEngineEquivalence:
    """The engine's result cache must never outlive an index update:
    warm answers always equal a cold engine over a rebuilt document."""

    QUERIES = ["xml search", "database query", "john xml", "mary database"]

    @staticmethod
    def _texts(engine, labels):
        # A rebuild renumbers partitions after removals, so results are
        # compared by subtree content, not by raw Dewey labels.
        return sorted(
            engine.index.tree.node(label).subtree_text() for label in labels
        )

    def _assert_warm_equals_rebuild(self, engine):
        fresh = XRefine(
            build_document_index(parse(serialize(engine.index.tree))),
            cache_size=0,
        )
        for query in self.QUERIES:
            warm = engine.search(query, k=2)
            cold = fresh.search(query, k=2)
            assert warm.needs_refinement == cold.needs_refinement, query
            assert self._texts(engine, warm.original_results) == self._texts(
                fresh, cold.original_results
            ), query
            assert [r.rq.key for r in warm.refinements] == [
                r.rq.key for r in cold.refinements
            ], query
            assert self._texts(engine, engine.slca_search(query)) == (
                self._texts(fresh, fresh.slca_search(query))
            ), query

    def test_append_invalidates_cached_answers(self, small_index):
        engine = XRefine(small_index)
        for query in self.QUERIES:
            engine.search(query, k=2)
        assert len(engine.result_cache) > 0
        append_partition(
            small_index, author_spec("alice", ["xml query tuning"])
        )
        self._assert_warm_equals_rebuild(engine)

    def test_remove_invalidates_cached_answers(self, small_index):
        engine = XRefine(small_index)
        for query in self.QUERIES:
            engine.search(query, k=2)
        remove_partition(small_index, Dewey((0, 0)))
        self._assert_warm_equals_rebuild(engine)

    def test_churn_with_warm_cache_between_steps(self, small_index):
        engine = XRefine(small_index)
        for step in range(3):
            for query in self.QUERIES:
                engine.search(query, k=1)
            append_partition(
                small_index, author_spec(f"gen{step}", ["xml churn data"])
            )
            self._assert_warm_equals_rebuild(engine)
        remove_partition(small_index, Dewey((0, 2)))
        self._assert_warm_equals_rebuild(engine)


class TestRandomizedChurn:
    def test_mixed_operations_stay_equivalent(self, small_index):
        rng = random.Random(31)
        words = ["alpha", "beta", "gamma", "delta", "xml", "query"]
        for step in range(12):
            partitions = small_index.tree.partitions()
            if partitions and rng.random() < 0.4:
                victim = rng.choice(partitions)
                remove_partition(small_index, victim.dewey)
            else:
                titles = [
                    " ".join(rng.sample(words, rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 2))
                ]
                append_partition(
                    small_index, author_spec(f"gen{step}", titles)
                )
            if small_index.tree.partitions():
                assert_equivalent_to_rebuild(small_index)

    def test_search_after_churn(self, small_index):
        append_partition(small_index, author_spec("dora", ["skyline xml"]))
        remove_partition(small_index, Dewey((0, 0)))
        engine = XRefine(small_index)
        response = engine.search("skyline xml")
        assert not response.needs_refinement
        response = engine.search("skylne xml")
        assert response.needs_refinement
        assert response.best.rq.key == frozenset({"skyline", "xml"})
