"""Tests for RefinedQuery and the RQSortedList."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RefinedQuery, RQSortedList
from repro.errors import RefinementError


class TestRefinedQuery:
    def test_set_identity(self):
        a = RefinedQuery(("x", "y"), 1)
        b = RefinedQuery(("y", "x"), 5)
        assert a == b
        assert hash(a) == hash(b)

    def test_key(self):
        assert RefinedQuery(("x", "y"), 1).key == frozenset({"x", "y"})

    def test_empty_rejected(self):
        with pytest.raises(RefinementError):
            RefinedQuery((), 0)

    def test_negative_dissimilarity_rejected(self):
        with pytest.raises(RefinementError):
            RefinedQuery(("x",), -1)


class TestRQSortedList:
    def test_insert_and_order(self):
        lst = RQSortedList(capacity=3)
        for keywords, ds in [("a", 3), ("b", 1), ("c", 2)]:
            lst.insert(RefinedQuery((keywords,), ds))
        assert [q.dissimilarity for q in lst] == [1, 2, 3]

    def test_capacity_eviction(self):
        lst = RQSortedList(capacity=2)
        lst.insert(RefinedQuery(("a",), 3))
        lst.insert(RefinedQuery(("b",), 1))
        lst.insert(RefinedQuery(("c",), 2))
        assert [q.keywords for q in lst] == [("b",), ("c",)]

    def test_rejects_worse_when_full(self):
        lst = RQSortedList(capacity=1)
        lst.insert(RefinedQuery(("a",), 1))
        assert lst.insert(RefinedQuery(("b",), 5)) is False
        assert len(lst) == 1

    def test_duplicate_key_keeps_smaller(self):
        lst = RQSortedList(capacity=3)
        lst.insert(RefinedQuery(("a", "b"), 5))
        lst.insert(RefinedQuery(("b", "a"), 2))
        assert len(lst) == 1
        assert lst.queries()[0].dissimilarity == 2

    def test_duplicate_key_ignores_larger(self):
        lst = RQSortedList(capacity=3)
        lst.insert(RefinedQuery(("a",), 2))
        assert lst.insert(RefinedQuery(("a",), 7)) is True
        assert lst.queries()[0].dissimilarity == 2

    def test_max_dissimilarity_infinite_until_full(self):
        lst = RQSortedList(capacity=2)
        assert lst.max_dissimilarity() == float("inf")
        lst.insert(RefinedQuery(("a",), 1))
        assert lst.max_dissimilarity() == float("inf")
        lst.insert(RefinedQuery(("b",), 4))
        assert lst.max_dissimilarity() == 4

    def test_membership(self):
        lst = RQSortedList(capacity=2)
        rq = RefinedQuery(("a",), 1)
        lst.insert(rq)
        assert rq in lst
        assert lst.has_key(frozenset({"a"}))
        assert not lst.has_key(frozenset({"b"}))

    def test_capacity_validation(self):
        with pytest.raises(RefinementError):
            RQSortedList(capacity=0)

    def test_mutation_counter_moves_only_when_entries_change(self):
        # insert reports whether the candidate is kept, and the kept
        # entries change on an admission, an eviction or an improved
        # re-insert, never otherwise.
        lst = RQSortedList(capacity=2)
        assert lst.insert(RefinedQuery(("a",), 3))
        assert lst.insert(RefinedQuery(("b",), 5))
        filled = [(q.keywords, q.dissimilarity) for q in lst]
        assert filled == [(("a",), 3), (("b",), 5)]

        # Same-or-worse re-offers of a kept key leave the list alone.
        assert lst.insert(RefinedQuery(("a",), 3))
        assert lst.insert(RefinedQuery(("a",), 4))
        # So does a rejected insert, a tie on the worst entry included.
        assert not lst.insert(RefinedQuery(("z",), 9))
        assert not lst.would_admit(RefinedQuery(("z",), 9))
        assert not lst.insert(RefinedQuery(("c",), 5))
        assert [(q.keywords, q.dissimilarity) for q in lst] == filled

        # Improved-dissimilarity re-insert of a kept key.
        assert lst.insert(RefinedQuery(("b",), 4))
        assert [q.dissimilarity for q in lst] == [3, 4]

        # Admission that evicts the worst entry.
        assert lst.insert(RefinedQuery(("c",), 1))
        assert [q.keywords for q in lst] == [("c",), ("a",)]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sets(
                    st.sampled_from("abcdef"), min_size=1, max_size=3
                ),
                st.integers(min_value=0, max_value=20),
            ),
            max_size=30,
        ),
        st.integers(min_value=1, max_value=6),
    )
    def test_matches_naive_model(self, inserts, capacity):
        """The list equals a naive sort/truncate over best-per-key."""
        lst = RQSortedList(capacity=capacity)
        for keywords, ds in inserts:
            lst.insert(RefinedQuery(tuple(sorted(keywords)), ds))

        # Naive model ignores the "reject when full" pruning, which can
        # keep a worse-ranked duplicate out; the list is allowed to be
        # a subset but what it keeps must be correctly ordered and
        # within capacity, and its best entry must equal the model's.
        best = {}
        for keywords, ds in inserts:
            key = frozenset(keywords)
            if key not in best or ds < best[key]:
                best[key] = ds
        got = [(q.key, q.dissimilarity) for q in lst]
        assert len(got) <= capacity
        assert [d for _, d in got] == sorted(d for _, d in got)
        if best:
            assert got, "list should never be empty when inserts happened"
            model_best = min(best.values())
            assert got[0][1] == model_best
        for key, ds in got:
            assert best[key] <= ds
