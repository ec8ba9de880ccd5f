"""Cache invalidation: warm answers equal a from-scratch rebuild.

After ``append_partition`` / ``remove_partition``, every cached answer
must be re-derived — a warm engine over the updated index has to agree
with a cold engine over a document rebuilt from scratch.
"""

import pytest

from repro import XRefine, build_document_index
from repro.core.ranking.memo import score_memo
from repro.index import append_partition, remove_partition
from repro.xmltree import Dewey, parse, serialize

from .test_warm_equals_cold import response_fingerprint

DOCUMENT = """<bib>
<author><name>john</name><publications>
  <inproceedings><title>xml keyword search</title><year>2003</year></inproceedings>
</publications></author>
<author><name>mary</name><publications>
  <article><title>database query refinement</title><year>2005</year></article>
</publications></author>
</bib>"""


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
                    ("article", None, [("title", title), ("year", "2010")])
                    for title in titles
                ],
            ),
        ],
    )


@pytest.fixture()
def engine():
    return XRefine(build_document_index(parse(DOCUMENT)))


def rebuilt_engine(index):
    """A cold engine over a document rebuilt from scratch."""
    return XRefine(
        build_document_index(parse(serialize(index.tree))), cache_size=0
    )


QUERIES = ["xml search", "database query", "keyword refinement", "john xml"]


def warm_up(engine):
    for query in QUERIES:
        engine.search(query, k=2)
        engine.slca_search(query)
    assert len(engine.result_cache) > 0


def result_texts(engine, labels):
    """Label-independent view of a result set (subtree contents).

    A from-scratch rebuild renumbers partitions after a removal, so
    answers are compared by what they contain, not by raw Dewey labels.
    """
    return sorted(
        engine.index.tree.node(label).subtree_text() for label in labels
    )


def content_fingerprint(engine, response):
    return (
        response.query,
        response.needs_refinement,
        result_texts(engine, response.original_results),
        [
            (
                refinement.rq.key,
                refinement.rq.dissimilarity,
                round(refinement.rank_score, 9),
                result_texts(engine, refinement.slcas),
            )
            for refinement in response.refinements
        ],
        [c.node_type for c in response.search_for],
    )


def assert_matches_rebuild(engine):
    fresh = rebuilt_engine(engine.index)
    for query in QUERIES:
        warm = engine.search(query, k=2)
        cold = fresh.search(query, k=2)
        assert content_fingerprint(engine, warm) == content_fingerprint(
            fresh, cold
        ), query
        assert result_texts(engine, engine.slca_search(query)) == result_texts(
            fresh, fresh.slca_search(query)
        ), query


class TestAppendInvalidation:
    def test_version_bumped(self, engine):
        before = engine.index.version
        append_partition(engine.index, author_spec("alice", ["xml views"]))
        assert engine.index.version == before + 1

    def test_warm_answers_equal_rebuild(self, engine):
        warm_up(engine)
        append_partition(
            engine.index, author_spec("alice", ["xml database search"])
        )
        assert_matches_rebuild(engine)

    def test_new_vocabulary_reaches_warm_queries(self, engine):
        warm_up(engine)
        response = engine.search("quantum xml")
        assert response.needs_refinement
        append_partition(
            engine.index, author_spec("alice", ["quantum xml models"])
        )
        response = engine.search("quantum xml")
        assert not response.needs_refinement
        assert_matches_rebuild(engine)

    def test_miner_refreshed_for_new_vocabulary(self, engine):
        warm_up(engine)
        append_partition(
            engine.index, author_spec("alice", ["skyline computation"])
        )
        # "skylne" can only be fixed through a rule mined over the
        # *updated* vocabulary; a stale miner would fail this.
        response = engine.search("skylne computation")
        assert response.needs_refinement
        assert response.best is not None
        assert response.best.rq.key == frozenset({"skyline", "computation"})


    def test_carried_spelling_index_sees_new_words(self, engine):
        warm_up(engine)
        engine.search("databse query")  # builds the spelling index
        built = engine.miner.spelling_index()
        append_partition(
            engine.index, author_spec("alice", ["skyline computation"])
        )
        response = engine.search("skylne computation")
        # The update's miner shares the arrays instead of rebuilding.
        assert engine.miner.spelling_index()._hashes is built._hashes
        assert response.best.rq.key == frozenset({"skyline", "computation"})
        assert_matches_rebuild(engine)


    def test_update_stems_only_the_new_words(self, engine, monkeypatch):
        import repro.lexicon.mining as mining

        query = "query refinement"
        engine.search(query)  # stems the vocabulary
        before = set(engine.miner.vocabulary)
        stem = mining.stem
        stemmed = []

        def counting(word):
            stemmed.append(word)
            return stem(word)

        monkeypatch.setattr(mining, "stem", counting)
        append_partition(
            engine.index, author_spec("alice", ["refined queries"])
        )
        rules = engine.mine_rules(query)
        new_words = set(engine.miner.vocabulary) - before
        assert {"queries", "refined"} <= new_words
        assert sorted(stemmed) == sorted(new_words)
        assert {rule.rhs for rule in rules} >= {("queries",), ("refined",)}
        fresh = rebuilt_engine(engine.index)
        assert [
            (rule.lhs, rule.rhs, rule.ds) for rule in rules
        ] == [(rule.lhs, rule.rhs, rule.ds) for rule in fresh.mine_rules(query)]


class TestRemoveInvalidation:
    def test_carried_spelling_index_drops_removed_words(self, engine):
        node = append_partition(
            engine.index, author_spec("alice", ["skyline computation"])
        )
        query = "skylne computation"
        assert "skyline" in engine.search(query).best.rq.key
        remove_partition(engine.index, node.dewey)
        warm = engine.search(query)
        fresh = rebuilt_engine(engine.index)
        assert [
            (rule.lhs, rule.rhs, rule.ds) for rule in engine.mine_rules(query)
        ] == [(rule.lhs, rule.rhs, rule.ds) for rule in fresh.mine_rules(query)]
        assert all("skyline" not in r.rq.key for r in warm.refinements)
        assert content_fingerprint(engine, warm) == content_fingerprint(
            fresh, fresh.search(query)
        )

    def test_warm_answers_equal_rebuild(self, engine):
        warm_up(engine)
        remove_partition(engine.index, Dewey((0, 0)))
        assert_matches_rebuild(engine)

    def test_removed_content_not_served_from_cache(self, engine):
        warm_up(engine)
        assert engine.slca_search("xml search") != []
        remove_partition(engine.index, Dewey((0, 0)))
        assert engine.slca_search("xml search") == []

    def test_churn_sequence(self, engine):
        warm_up(engine)
        append_partition(engine.index, author_spec("ada", ["xml streams"]))
        assert_matches_rebuild(engine)
        warm_up(engine)
        remove_partition(engine.index, Dewey((0, 1)))
        assert_matches_rebuild(engine)
        append_partition(engine.index, author_spec("eve", ["query logs"]))
        assert_matches_rebuild(engine)


class TestIndexLevelCaches:
    def test_search_for_cache_cleared(self, engine):
        index = engine.index
        index.derived.search_for.infer(["xml", "search"])
        assert len(index.derived.search_for) > 0
        append_partition(index, author_spec("alice", ["xml views"]))
        assert len(index.derived.search_for) == 0

    def test_score_memo_dropped_and_rebuilt(self, engine):
        index = engine.index
        node_type = ("bib", "author", "publications", "article", "title")
        memo = score_memo(index)
        before = memo.tf["database", node_type]
        append_partition(
            index, author_spec("alice", ["database tuning database"])
        )
        assert index.score_memo is None
        fresh = build_document_index(parse(serialize(index.tree)))
        after = score_memo(index).tf["database", node_type]
        assert after == fresh.tf("database", node_type) > before

    def test_frequency_memo_consistent_after_update(self, engine):
        index = engine.index
        node_type = ("bib", "author", "publications", "article", "title")
        index.frequency.xml_df("database", node_type)  # prime the memo
        append_partition(
            engine.index, author_spec("alice", ["database tuning"])
        )
        fresh = build_document_index(parse(serialize(index.tree)))
        assert index.frequency.xml_df("database", node_type) == (
            fresh.frequency.xml_df("database", node_type)
        )
        assert sorted(index.frequency.types_for("database")) == sorted(
            fresh.frequency.types_for("database")
        )
