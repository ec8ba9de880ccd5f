"""Exhaustive band-edge check of ``within_distance`` and ``bounded_distance``.

The banded DP only fills cells within ``limit`` of the diagonal; an
off-by-one at the band edge shows up exactly when the true distance
equals the limit or exceeds it by one.  Every pair over a 2-letter
alphabet up to length 6 is checked for every limit 0..3, plus a
length-skew sweep where the band clips hardest.
"""

import itertools

from repro.lexicon.edit_distance import (
    bounded_distance,
    levenshtein,
    within_distance,
)

ALPHABET = "ab"
MAX_LEN = 6


def _words():
    for length in range(MAX_LEN + 1):
        for letters in itertools.product(ALPHABET, repeat=length):
            yield "".join(letters)


class TestWithinDistanceExhaustive:
    def test_agrees_with_levenshtein_everywhere(self):
        # One banded pass must return the exact distance whenever it is
        # within the limit, and None otherwise.
        words = list(_words())
        for a in words:
            for b in words:
                reference = levenshtein(a, b)
                for limit in range(4):
                    expected = reference if reference <= limit else None
                    assert bounded_distance(a, b, limit) == expected, (
                        f"bounded_distance({a!r}, {b!r}, {limit}) != "
                        f"{expected} (levenshtein == {reference})"
                    )
                    assert within_distance(a, b, limit) == (
                        reference <= limit
                    ), (
                        f"within_distance({a!r}, {b!r}, {limit}) != "
                        f"levenshtein == {reference}"
                    )

    def test_length_skew_band_edges(self):
        # |len(a) - len(b)| > limit must short-circuit to False, and
        # == limit (pure insertions) must be True.
        for limit in range(4):
            assert within_distance("a" * (limit + 1), "", limit) is False
            assert within_distance("", "a" * (limit + 1), limit) is False
            assert within_distance("a" * limit, "", limit) is True
            assert within_distance("", "a" * limit, limit) is True
            assert bounded_distance("a" * (limit + 1), "", limit) is None
            assert bounded_distance("", "a" * (limit + 1), limit) is None
            assert bounded_distance("a" * limit, "", limit) == limit
            assert bounded_distance("", "a" * limit, limit) == limit

    def test_distance_exactly_at_limit(self):
        # Three substitutions at limit 3 — the far band edge.
        assert within_distance("aaa", "bbb", 3) is True
        assert within_distance("aaa", "bbb", 2) is False
        assert bounded_distance("aaa", "bbb", 3) == 3
        assert bounded_distance("aaa", "bbb", 2) is None
