"""Tests for Dewey labels: ordering, LCA, prefixes, partitions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DeweyError
from repro.xmltree import Dewey, descendant_range_key, lca_of_all

components = st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6)


class TestConstruction:
    def test_from_tuple(self):
        assert Dewey((0, 1, 2)).components == (0, 1, 2)

    def test_parse(self):
        assert Dewey.parse("0.1.2") == Dewey((0, 1, 2))

    def test_parse_single(self):
        assert Dewey.parse("0") == Dewey.root()

    def test_parse_rejects_garbage(self):
        with pytest.raises(DeweyError):
            Dewey.parse("0.a.2")

    def test_empty_rejected(self):
        with pytest.raises(DeweyError):
            Dewey(())

    def test_negative_rejected(self):
        with pytest.raises(DeweyError):
            Dewey((0, -1))

    def test_non_int_rejected(self):
        with pytest.raises(DeweyError):
            Dewey((0, "1"))

    def test_immutable(self):
        label = Dewey((0, 1))
        with pytest.raises(AttributeError):
            label.components = (0,)

    def test_child(self):
        assert Dewey((0,)).child(3) == Dewey((0, 3))

    def test_from_trusted_equals_validated(self):
        trusted = Dewey.from_trusted((0, 1, 2))
        assert trusted == Dewey((0, 1, 2))
        assert hash(trusted) == hash(Dewey((0, 1, 2)))
        assert trusted.components == (0, 1, 2)

    def test_from_trusted_is_immutable(self):
        trusted = Dewey.from_trusted((0, 4))
        with pytest.raises(AttributeError):
            trusted.components = (0,)

    def test_from_trusted_interoperates(self):
        trusted = Dewey.from_trusted((0, 1, 2))
        assert Dewey((0, 1)).is_ancestor_of(trusted)
        assert trusted.lca(Dewey((0, 1, 5))) == Dewey((0, 1))
        assert trusted.partition_id() == Dewey((0, 1))

    def test_public_constructors_still_validate(self):
        """from_trusted must not loosen the public construction routes."""
        with pytest.raises(DeweyError):
            Dewey(())
        with pytest.raises(DeweyError):
            Dewey((0, -3))
        with pytest.raises(DeweyError):
            Dewey((0, 1.5))
        with pytest.raises(DeweyError):
            Dewey.parse("")
        with pytest.raises(DeweyError):
            Dewey.parse("0..1")
        with pytest.raises(DeweyError):
            Dewey((0,)).child(-1)
        with pytest.raises(DeweyError):
            Dewey((0,)).child(1.5)
        with pytest.raises(DeweyError):
            Dewey((0,)).child("1")

    def test_child_negative_rejected(self):
        with pytest.raises(DeweyError):
            Dewey((0,)).child(-1)

    def test_parent(self):
        assert Dewey((0, 1, 2)).parent == Dewey((0, 1))

    def test_root_has_no_parent(self):
        assert Dewey.root().parent is None

    def test_str_roundtrip(self):
        assert str(Dewey.parse("0.4.17")) == "0.4.17"


class TestPredicates:
    def test_ancestor(self):
        assert Dewey((0,)).is_ancestor_of(Dewey((0, 1)))

    def test_not_own_ancestor(self):
        assert not Dewey((0, 1)).is_ancestor_of(Dewey((0, 1)))

    def test_ancestor_or_self(self):
        assert Dewey((0, 1)).is_ancestor_or_self_of(Dewey((0, 1)))
        assert Dewey((0,)).is_ancestor_or_self_of(Dewey((0, 1)))

    def test_sibling_not_ancestor(self):
        assert not Dewey((0, 1)).is_ancestor_of(Dewey((0, 2)))

    def test_descendant(self):
        assert Dewey((0, 1, 2)).is_descendant_of(Dewey((0, 1)))

    def test_depth(self):
        assert Dewey.root().depth == 1
        assert Dewey((0, 1, 2)).depth == 3

    def test_document_order(self):
        # Ancestors precede descendants; siblings by ordinal.
        assert Dewey((0,)) < Dewey((0, 0))
        assert Dewey((0, 0, 5)) < Dewey((0, 1))

    def test_partition_id(self):
        assert Dewey((0, 3, 1)).partition_id() == Dewey((0, 3))
        assert Dewey((0, 3)).partition_id() == Dewey((0, 3))
        assert Dewey.root().partition_id() is None


class TestLCA:
    def test_basic(self):
        assert Dewey((0, 1, 2)).lca(Dewey((0, 1, 5))) == Dewey((0, 1))

    def test_ancestor_is_lca(self):
        assert Dewey((0, 1)).lca(Dewey((0, 1, 5))) == Dewey((0, 1))

    def test_self_lca(self):
        label = Dewey((0, 2))
        assert label.lca(label) == label

    def test_disjoint_raises(self):
        with pytest.raises(DeweyError):
            Dewey((0,)).lca(Dewey((1,)))

    def test_lca_of_all(self):
        labels = [Dewey((0, 1, 2)), Dewey((0, 1, 5)), Dewey((0, 2))]
        assert lca_of_all(labels) == Dewey((0,))

    def test_lca_of_all_empty_raises(self):
        with pytest.raises(DeweyError):
            lca_of_all([])


class TestDescendantRange:
    def test_range_key(self):
        assert descendant_range_key(Dewey((0, 1))) == (0, 2)

    def test_range_captures_descendants(self):
        prefix = Dewey((0, 1))
        inside = [(0, 1), (0, 1, 0), (0, 1, 9, 9)]
        outside = [(0, 0, 9), (0, 2), (1,)]
        hi = descendant_range_key(prefix)
        for label in inside:
            assert prefix.components <= label < hi
        for label in outside:
            assert not (prefix.components <= label < hi)


class TestHypothesis:
    @given(components, components)
    def test_order_matches_tuple_order(self, a, b):
        assert (Dewey(a) < Dewey(b)) == (tuple(a) < tuple(b))

    @given(components, components)
    def test_lca_is_common_ancestor(self, a, b):
        a = [0] + a
        b = [0] + b
        lca = Dewey(a).lca(Dewey(b))
        assert lca.is_ancestor_or_self_of(Dewey(a))
        assert lca.is_ancestor_or_self_of(Dewey(b))

    @given(components, components)
    def test_lca_commutative(self, a, b):
        a = [0] + a
        b = [0] + b
        assert Dewey(a).lca(Dewey(b)) == Dewey(b).lca(Dewey(a))

    @given(components)
    def test_parse_str_roundtrip(self, parts):
        label = Dewey(parts)
        assert Dewey.parse(str(label)) == label

    @given(components)
    def test_hash_consistency(self, parts):
        assert hash(Dewey(parts)) == hash(Dewey(tuple(parts)))

    @given(components, components)
    def test_ancestor_iff_prefix(self, a, b):
        is_prefix = len(a) < len(b) and tuple(b[: len(a)]) == tuple(a)
        assert Dewey(a).is_ancestor_of(Dewey(b)) == is_prefix
