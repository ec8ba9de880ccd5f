"""The spelling index finds what a scan of the vocabulary found.

``scan_candidates`` below is the linear scan the rule miner used before
the index: one banded distance check per vocabulary word.  It stays
here as the reference the index is held to, over random vocabularies
that mix words shorter than ``min_length`` with longer ones, contain
the term itself or not, and reach beyond ASCII — and over vocabularies
changed after the build, as an index update changes them, and words
too long to index by their deletion variants.
"""

from __future__ import annotations

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lexicon import RuleMiner, SpellingIndex, spelling_candidates
from repro.lexicon.edit_distance import bounded_distance, deletion_variants


def scan_candidates(term, vocabulary, limit=2, min_length=4):
    """The former linear scan: every vocabulary word, checked in turn."""
    if len(term) < min_length:
        return []
    found = []
    for word in vocabulary:
        if word == term or len(word) < min_length:
            continue
        distance = bounded_distance(term, word, limit)
        if distance is not None and distance > 0:
            found.append((word, distance))
    found.sort(key=lambda pair: (pair[1], pair[0]))
    return found


# A small alphabet makes near neighbours common; "é", "ß" and "中" put
# non-ASCII code points on both sides of the comparison.
letters = st.sampled_from("abcdeé中ß")
words = st.text(alphabet=letters, min_size=1, max_size=8)
vocabularies = st.sets(words, max_size=40)
limits = st.integers(0, 2)


@st.composite
def edited(draw, term):
    """``term`` after one to three random deletions, inserts or swaps."""
    word = list(term)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("delete", "insert", "substitute")))
        if kind == "insert" or not word:
            word.insert(draw(st.integers(0, len(word))), draw(letters))
        elif kind == "delete":
            del word[draw(st.integers(0, len(word) - 1))]
        else:
            word[draw(st.integers(0, len(word) - 1))] = draw(letters)
    return "".join(word) or draw(letters)


class TestIndexEqualsScan:
    @settings(max_examples=300, deadline=None)
    @given(words, vocabularies, limits)
    def test_random_term(self, term, vocabulary, limit):
        assert spelling_candidates(term, vocabulary, limit=limit) == (
            scan_candidates(term, vocabulary, limit=limit)
        )

    @settings(max_examples=300, deadline=None)
    @given(words, vocabularies, st.data(), limits)
    def test_near_neighbours(self, term, vocabulary, data, limit):
        # Random words rarely lie within two edits of the term, so plant
        # some that do: each is one to three random edits away.
        planted = set(vocabulary)
        for _ in range(data.draw(st.integers(1, 6))):
            planted.add(data.draw(edited(term)))
        assert spelling_candidates(term, planted, limit=limit) == (
            scan_candidates(term, planted, limit=limit)
        )

    @settings(max_examples=200, deadline=None)
    @given(vocabularies.filter(bool), st.data(), limits)
    def test_term_in_vocabulary(self, vocabulary, data, limit):
        term = data.draw(st.sampled_from(sorted(vocabulary)))
        got = spelling_candidates(term, vocabulary, limit=limit)
        assert got == scan_candidates(term, vocabulary, limit=limit)
        assert all(word != term for word, _ in got)

    @settings(max_examples=200, deadline=None)
    @given(vocabularies, words, st.integers(1, 3), limits)
    def test_one_index_many_terms(self, vocabulary, term, min_length, limit):
        # The miner builds one index and asks it about every keyword;
        # short minimum lengths index (and look up) the shortest words.
        index = SpellingIndex(vocabulary, limit=limit, min_length=min_length)
        for probe in (term, term[1:], term + "a"):
            assert index.candidates(probe) == scan_candidates(
                probe, vocabulary, limit=limit, min_length=min_length
            )

    def test_deletion_variants(self):
        assert deletion_variants("abc", 0) == {"abc"}
        assert deletion_variants("abc", 1) == {"abc", "bc", "ac", "ab"}
        assert deletion_variants("aab", 2) == {
            "aab", "ab", "aa", "a", "b"
        }


class ShortIndex(SpellingIndex):
    """Indexes words of at most five letters and rebuilds after two
    changes, so the small random words below reach every path."""

    MAX_INDEXED_LENGTH = 5
    MIN_REBUILD_CHANGES = 2


class TestLongAndChangedVocabularies:
    @settings(max_examples=300, deadline=None)
    @given(words, vocabularies, limits)
    def test_words_too_long_to_index(self, term, vocabulary, limit):
        index = ShortIndex(vocabulary, limit=limit)
        for probe in (term, term[1:], term + "ab"):
            assert index.candidates(probe) == scan_candidates(
                probe, vocabulary, limit=limit
            )

    @settings(max_examples=300, deadline=None)
    @given(
        vocabularies, st.lists(vocabularies, min_size=1, max_size=4),
        words, limits, st.booleans(),
    )
    def test_updated_vocabulary(self, first, later, term, limit, short):
        # Each update keeps part of the previous vocabulary and adds
        # words, as appending and removing partitions does.
        kind = ShortIndex if short else SpellingIndex
        index = kind(first, limit=limit)
        vocabulary = set(first)
        for step, words_added in enumerate(later):
            removed = sorted(vocabulary)[step % 3 :: 3]
            vocabulary = (vocabulary - set(removed)) | words_added
            index = index.updated(vocabulary)
            # A removed word one edit from the probe must not be found.
            probes = [word + "a" for word in removed[:2]]
            for probe in (term, *sorted(words_added)[:2], *probes):
                assert index.candidates(probe) == scan_candidates(
                    probe, vocabulary, limit=limit
                )

    def test_removed_and_re_added_word_found_once(self):
        index = SpellingIndex({"machine", "matching"})
        index = index.updated({"matching"}).updated({"matching", "machine"})
        assert index.candidates("machina") == [
            ("machine", 1), ("matching", 2)
        ]

    def test_long_term_costs_no_variants(self):
        # A 10,000-letter keyword has ~50M two-deletion variants; it is
        # longer than every word by more than the limit, so none is made.
        index = SpellingIndex({"machine", "database", "x" * 40})
        started = time.perf_counter()
        assert index.candidates("ab" * 5_000) == []
        assert index.candidates("x" * 10_000) == []
        assert time.perf_counter() - started < 0.5

    def test_long_corpus_word_is_not_expanded(self):
        long_word = "q" * 10_000
        started = time.perf_counter()
        index = SpellingIndex({"machine", long_word})
        assert time.perf_counter() - started < 0.5
        assert index.candidates("q" * 9_999 + "r") == [(long_word, 1)]
        assert index.candidates("machne") == [("machine", 1)]


class TestMinerUsesTheIndex:
    VOCAB = ["machine", "matching", "database", "databases", "match"]

    def test_built_once_on_first_use(self):
        miner = RuleMiner(self.VOCAB)
        miner.mine(["machin"])
        index = miner.spelling_index()
        miner.mine(["databse"])
        assert miner.spelling_index() is index

    def test_updated_miner_carries_the_index_over(self):
        miner = RuleMiner(self.VOCAB)
        miner.mine(["machin"])
        index = miner.spelling_index()
        updated = miner.updated(self.VOCAB[1:] + ["machines"])
        carried = updated.spelling_index()
        assert carried is not index
        assert carried._hashes is index._hashes
        assert [
            (rule.rhs[0], rule.ds) for rule in updated.spelling_rules("machin")
        ] == [("machines", 2), ("matching", 2)]

    def test_updated_miner_without_an_index_builds_lazily(self):
        updated = RuleMiner(self.VOCAB).updated(self.VOCAB)
        assert updated._spelling is None

    @settings(max_examples=100, deadline=None)
    @given(vocabularies, words)
    def test_spelling_rules_equal_the_scan(self, vocabulary, keyword):
        miner = RuleMiner(vocabulary, max_spelling=3)
        got = [
            (rule.rhs[0], rule.ds) for rule in miner.spelling_rules(keyword)
        ]
        expected = (
            [] if keyword in vocabulary
            else scan_candidates(keyword, vocabulary)[:3]
        )
        assert got == expected
