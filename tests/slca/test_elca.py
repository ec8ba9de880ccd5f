"""Tests for ELCA semantics against brute force and known cases."""

import random

import pytest

from repro.slca import brute_force_elca, elca, stack_slca
from repro.xmltree import Dewey, parse


def labels(*texts):
    return [Dewey.parse(t) for t in texts]


class TestKnownCases:
    def test_slca_case_is_elca(self):
        lists = [labels("0.0.1"), labels("0.0.2")]
        assert elca(lists) == labels("0.0")

    def test_ancestor_with_own_evidence(self):
        """The canonical ELCA-beyond-SLCA case: the root has its own
        witnesses outside the satisfied child."""
        lists = [
            labels("0.0.1", "0.1"),   # k1: inside 0.0 and directly at 0.1
            labels("0.0.2", "0.2"),   # k2: inside 0.0 and directly at 0.2
        ]
        assert elca(lists) == labels("0", "0.0")

    def test_swallowed_ancestor_not_elca(self):
        """All of one keyword's evidence under the satisfied child."""
        lists = [
            labels("0.0.1"),          # k1 only inside 0.0
            labels("0.0.2", "0.1"),   # k2 inside 0.0 and outside
        ]
        assert elca(lists) == labels("0.0")

    def test_internal_contains_all_blocks(self):
        """A contains-all node that is not itself an ELCA still blocks
        its witnesses from ancestors (the subtle XRank rule)."""
        lists = [
            labels("0.1.0.0.1", "0.1.1.0", "0.1.1.0.0", "0.1.1.1"),
            labels("0.0", "0.0.0", "0.1.0.0", "0.1.1.0"),
        ]
        assert elca(lists) == labels("0.1.0.0", "0.1.1.0")

    def test_empty_inputs(self):
        assert elca([]) == []
        assert elca([labels("0.1"), []]) == []

    def test_single_list(self):
        assert elca([labels("0.1", "0.1.2", "0.3")]) == labels(
            "0.1", "0.1.2", "0.3"
        )


class TestProperties:
    def _random_case(self, rng):
        def rec(depth):
            if depth == 0:
                return "<l>x</l>"
            return (
                "<n>"
                + "".join(rec(depth - 1) for _ in range(rng.randint(1, 3)))
                + "</n>"
            )

        tree = parse("<root>" + rec(3) + rec(3) + "</root>")
        nodes = [node.dewey for node in tree.iter_nodes()]
        lists = [
            sorted(rng.sample(nodes, rng.randint(1, min(7, len(nodes)))))
            for _ in range(rng.randint(1, 4))
        ]
        return tree, lists

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            tree, lists = self._random_case(rng)
            assert elca(lists) == brute_force_elca(tree, lists)

    @pytest.mark.parametrize("seed", range(6))
    def test_slca_subset_of_elca(self, seed):
        rng = random.Random(seed * 31 + 5)
        for _ in range(40):
            _, lists = self._random_case(rng)
            assert set(stack_slca(lists)) <= set(elca(lists))

    def test_every_elca_contains_all_keywords(self, dblp_index):
        terms = ["database", "query"]
        lists = [dblp_index.inverted_list(t).labels() for t in terms]
        sorted_lists = [
            sorted(label.components for label in labels_) for labels_ in lists
        ]
        import bisect

        from repro.xmltree.dewey import descendant_range_key

        for node in elca(lists):
            for components in sorted_lists:
                lo = bisect.bisect_left(components, node.components)
                assert (
                    lo < len(components)
                    and components[lo] < descendant_range_key(node)
                ), node
