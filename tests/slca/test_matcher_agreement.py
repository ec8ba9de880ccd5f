"""Scan Eager's forward matcher must equal a binary-search reference.

``_ForwardMatcher.match`` (forward pointers, amortized O(1)) and
``closest_match`` (binary search, Indexed Lookup Eager's matcher)
implement the same "deepest LCA, ties to the left neighbor" contract.
If the forward matcher's tie-breaking drifts from it, Scan Eager
anchors SLCA candidates on other witnesses than XKSearch's — so the
equivalence is pinned here element-for-element, not just depth-for-
depth.
"""

import random

from repro.slca.lca import closest_match, label_components
from repro.slca.scan_eager import _ForwardMatcher
from repro.xmltree.dewey import Dewey


def _random_components(rng, count, max_depth=5, fanout=3):
    seen = set()
    while len(seen) < count:
        depth = rng.randint(1, max_depth)
        seen.add(tuple(rng.randint(0, fanout) for _ in range(depth)))
    return sorted(seen)


def _labels(components):
    return [Dewey.from_trusted(c) for c in components]


class TestMatcherAgreement:
    def test_random_lists_agree_exactly(self):
        rng = random.Random(42)
        for trial in range(200):
            list_components = _random_components(
                rng, rng.randint(1, 12)
            )
            targets = _labels(
                _random_components(rng, rng.randint(1, 12))
            )
            labels = _labels(list_components)
            matcher = _ForwardMatcher(labels)
            sorted_components = label_components(labels)
            # Targets non-decreasing, as the anchor scan guarantees.
            for target in targets:
                forward = matcher.match(target)
                bisected = closest_match(sorted_components, target)
                assert str(forward) == str(bisected), (
                    f"trial {trial}: target {target} matched "
                    f"{forward} (scan) vs {bisected} (bisect) over "
                    f"{[str(l) for l in labels]}"
                )

    def test_tie_breaks_left(self):
        # Equidistant neighbors: both must pick the left one.
        labels = _labels([(0, 0), (0, 2)])
        target = Dewey.from_trusted((0, 1))
        forward = _ForwardMatcher(labels).match(target)
        bisected = closest_match(label_components(labels), target)
        assert str(forward) == str(bisected) == "0.0"

    def test_repeated_target(self):
        # The forward pointer must not overshoot on duplicate targets.
        labels = _labels([(0, 0), (0, 1), (0, 2)])
        matcher = _ForwardMatcher(labels)
        target = Dewey.from_trusted((0, 1))
        first = matcher.match(target)
        second = matcher.match(target)
        assert str(first) == str(second) == "0.1"


class TestGallopingAdvance:
    """The galloping pointer advance must land exactly where the old
    linear "advance while next <= target" walk stopped."""

    def test_long_list_short_anchor_agrees_with_bisect(self):
        # The gallop's motivating shape: a few far-apart anchors
        # against a long dense list, forcing large exponential jumps.
        components = [(0, i, 0) for i in range(5000)]
        labels = _labels(components)
        matcher = _ForwardMatcher(labels)
        sorted_components = label_components(labels)
        for ordinal in (0, 1, 7, 90, 1023, 1024, 3333, 4999):
            target = Dewey.from_trusted((0, ordinal, 1))
            forward = matcher.match(target)
            bisected = closest_match(sorted_components, target)
            assert str(forward) == str(bisected)

    def test_pointer_is_monotone_and_lands_on_last_leq(self):
        components = [(0, i) for i in range(0, 200, 2)]  # even ordinals
        matcher = _ForwardMatcher(_labels(components))
        previous = 0
        rng = random.Random(7)
        ordinals = sorted(rng.randint(0, 199) for _ in range(50))
        for ordinal in ordinals:
            matcher.match(Dewey.from_trusted((0, ordinal)))
            position = matcher.position
            assert position >= previous
            # Last element <= target: the linear-walk postcondition.
            assert components[position] <= (0, ordinal)
            if position + 1 < len(components):
                assert components[position + 1] > (0, ordinal)
            previous = position

    def test_gallop_overshoot_past_end_of_list(self):
        # The exponential probe runs off the end; the bracket bisect
        # must clamp to the final element instead of indexing past it.
        components = [(0, i) for i in range(33)]  # not a power of two
        matcher = _ForwardMatcher(_labels(components))
        result = matcher.match(Dewey.from_trusted((5,)))
        assert matcher.position == len(components) - 1
        assert str(result) == "0.32"
