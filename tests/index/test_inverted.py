"""Tests for inverted lists and the inverted index."""

import pytest

from repro.errors import IndexingError
from repro.index import InvertedIndex, InvertedList, Posting
from repro.xmltree import Dewey


def make_list(labels, keyword="k"):
    return InvertedList(
        keyword,
        [Posting(Dewey.parse(label), ("r", "x"), 1) for label in labels],
    )


class TestInvertedList:
    def test_rejects_out_of_order(self):
        with pytest.raises(IndexingError):
            make_list(["0.1", "0.0"])

    def test_rejects_duplicates(self):
        with pytest.raises(IndexingError):
            make_list(["0.1", "0.1"])

    def test_len_iter(self):
        lst = make_list(["0.0", "0.1", "0.2"])
        assert len(lst) == 3
        assert [str(p.dewey) for p in lst] == ["0.0", "0.1", "0.2"]

    def test_range_indices(self):
        lst = make_list(["0.0.1", "0.1.0", "0.1.5", "0.2"])
        assert lst.range_indices(Dewey.parse("0.1")) == (1, 3)
        lo, hi = lst.range_indices(Dewey.parse("0.3"))
        assert lo == hi  # nothing under an absent subtree


class TestInvertedIndex:
    def make_index(self):
        index = InvertedIndex()
        index.add_postings(
            "xml",
            [
                Posting(Dewey.parse("0.0.1"), ("bib", "author", "t"), 2),
                Posting(Dewey.parse("0.1.0"), ("bib", "author", "t"), 1),
            ],
        )
        index.add_postings(
            "year", [Posting(Dewey.parse("0.0.2"), ("bib", "author", "year"), 1)]
        )
        return index

    def test_roundtrip(self):
        index = self.make_index()
        postings = list(index.get("xml"))
        assert [str(p.dewey) for p in postings] == ["0.0.1", "0.1.0"]
        assert postings[0].count == 2
        assert postings[0].node_type == ("bib", "author", "t")

    def test_missing_keyword_empty(self):
        assert len(self.make_index().get("nope")) == 0

    def test_contains(self):
        index = self.make_index()
        assert "xml" in index
        assert "nope" not in index

    def test_keywords_sorted(self):
        assert self.make_index().keywords() == ["xml", "year"]

    def test_vocabulary_size(self):
        assert self.make_index().vocabulary_size() == 2

    def test_list_cached(self):
        index = self.make_index()
        assert index.get("xml") is index.get("xml")

    def test_metadata_roundtrip(self):
        index = self.make_index()
        index.save_metadata()
        table_before = index.node_type_table
        index.load_metadata()
        assert index.node_type_table == table_before
        assert index.keywords() == ["xml", "year"]
        assert index.vocabulary_size() == 2
