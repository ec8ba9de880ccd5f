"""Tests for inverted lists and the inverted index."""

import pytest

from repro import XRefine
from repro.errors import IndexingError
from repro.index import (
    InvertedIndex,
    build_document_index,
    freeze_index,
    load_frozen_index,
)
from repro.xmltree import Dewey


def make_list(labels, keyword="k"):
    index = InvertedIndex()
    index.add_postings(
        keyword,
        [Dewey.parse(label).components for label in labels],
        [("r", "x")] * len(labels),
        [1] * len(labels),
    )
    return index.get(keyword)


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
            [(0, 0, 1), (0, 1, 0)],
            [("bib", "author", "t")] * 2,
            [2, 1],
        )
        index.add_postings(
            "year", [(0, 0, 2)], [("bib", "author", "year")], [1]
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

    def test_type_id_outside_the_table_is_a_typed_error(self):
        """The columns keep ids, not types, so the decode loop checks
        each id against the table it will index (at the first read)."""
        index = self.make_index()
        index._type_table.clear()
        with pytest.raises(IndexingError, match="unknown node type"):
            index.get("xml").type_ids

    def test_contains(self):
        index = self.make_index()
        assert "xml" in index
        assert "nope" not in index

    @pytest.mark.parametrize("view", ["built", "frozen"])
    def test_contains_is_not_changed_by_a_lookup(
        self, view, figure1_tree, tmp_path
    ):
        """``get`` answers an absent keyword with the index's one
        shared empty list; membership must keep answering from what the
        index holds — out-of-vocabulary terms are this system's normal
        input."""
        index = build_document_index(figure1_tree)
        if view == "frozen":
            freeze_index(index, tmp_path / "figure1.frz")
            index = load_frozen_index(tmp_path / "figure1.frz")
        inverted = index.inverted
        assert "serach" not in inverted and "zzzq" not in inverted
        XRefine(index).search("xml serach zzzq")
        assert inverted.get("zzzq") is inverted.get("serach")  # shared
        assert "serach" not in inverted and "zzzq" not in inverted
        assert "xml" in inverted

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
