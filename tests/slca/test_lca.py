"""Tests for LCA primitives: ancestor filtering, closest match, merging."""

from hypothesis import given
from hypothesis import strategies as st

from repro.slca import closest_match, merge_lists, remove_ancestors
from repro.xmltree import Dewey


def labels(*texts):
    return [Dewey.parse(t) for t in texts]


class TestRemoveAncestors:
    def test_keeps_deepest(self):
        assert remove_ancestors(labels("0", "0.1", "0.1.2")) == labels("0.1.2")

    def test_keeps_siblings(self):
        got = remove_ancestors(labels("0.1", "0.2"))
        assert got == labels("0.1", "0.2")

    def test_mixed(self):
        got = remove_ancestors(labels("0", "0.1", "0.2.3", "0.2"))
        assert got == labels("0.1", "0.2.3")

    def test_deduplicates(self):
        assert remove_ancestors(labels("0.1", "0.1")) == labels("0.1")

    def test_empty(self):
        assert remove_ancestors([]) == []

    @given(
        st.lists(
            st.lists(st.integers(0, 3), min_size=1, max_size=4).map(
                lambda c: Dewey([0] + c)
            ),
            max_size=12,
        )
    )
    def test_no_ancestor_pairs_remain(self, candidates):
        kept = remove_ancestors(candidates)
        for a in kept:
            for b in kept:
                assert a == b or not a.is_ancestor_of(b)
        # Every input is represented by itself or a descendant.
        for label in candidates:
            assert any(label.is_ancestor_or_self_of(k) for k in kept)


class TestClosestMatch:
    def test_prefers_deeper_lca(self):
        lst = sorted(l.components for l in labels("0.0.9", "0.1.5"))
        target = Dewey.parse("0.1.2")
        assert closest_match(lst, target) == Dewey.parse("0.1.5")

    def test_left_match(self):
        lst = sorted(l.components for l in labels("0.1.1", "0.9"))
        assert closest_match(lst, Dewey.parse("0.1.7")) == Dewey.parse("0.1.1")

    def test_exact_match(self):
        lst = [Dewey.parse("0.5").components]
        assert closest_match(lst, Dewey.parse("0.5")) == Dewey.parse("0.5")

    def test_empty_list(self):
        assert closest_match([], Dewey.parse("0.1")) is None


class TestMergeLists:
    def test_interleaving(self):
        a = labels("0.0", "0.2")
        b = labels("0.1", "0.3")
        merged = [(str(l), i) for l, i in merge_lists([a, b])]
        assert merged == [("0.0", 0), ("0.1", 1), ("0.2", 0), ("0.3", 1)]

    def test_duplicates_across_lists(self):
        a = labels("0.1")
        b = labels("0.1")
        merged = list(merge_lists([a, b]))
        assert len(merged) == 2
        assert {index for _, index in merged} == {0, 1}

    def test_list_indices_correct(self):
        lists = [labels("0.5"), labels("0.1"), labels("0.3")]
        merged = [(str(l), i) for l, i in merge_lists(lists)]
        assert merged == [("0.1", 1), ("0.3", 2), ("0.5", 0)]
