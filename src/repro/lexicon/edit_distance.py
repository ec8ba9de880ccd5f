"""String edit distance — the morphological metric of Section III-B.

Dissimilarity scores for spelling-correction rules are "variants of
some morphological metric such as string edit distance" — this module
provides the plain Levenshtein distance, a banded variant that stops
as soon as the distance must exceed a limit, and the spelling index the
rule miner finds a keyword's edit-distance neighbours with.

The index is the symmetric-deletion neighbourhood: if
``levenshtein(a, b) <= k``, some string is reached from both ``a`` and
``b`` by at most ``k`` single-character deletions each (a substitution
deletes the character from both sides; an insertion into one side
deletes it from the other).  Indexing every vocabulary word under its
deletion variants once turns a query's neighbour search from one
banded DP per vocabulary word into a lookup per variant of the query
term plus a check of the few words found.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from copy import copy


def levenshtein(a, b):
    """Classic Levenshtein distance (unit insert/delete/substitute)."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) > len(b):
        a, b = b, a
    previous = list(range(len(a) + 1))
    for j, ch_b in enumerate(b, start=1):
        current = [j]
        for i, ch_a in enumerate(a, start=1):
            cost = 0 if ch_a == ch_b else 1
            current.append(
                min(
                    previous[i] + 1,       # delete from a
                    current[i - 1] + 1,    # insert into a
                    previous[i - 1] + cost # substitute
                )
            )
        previous = current
    return previous[-1]


def bounded_distance(a, b, limit):
    """Levenshtein distance, or ``None`` when it exceeds ``limit``.

    One banded DP: only cells within ``limit`` of the diagonal can lie
    on an alignment of cost ``<= limit``, so the check runs in
    O(limit * max(len)) time and stops at the first row whose every
    cell exceeds the limit.  Cells outside the band read ``limit + 1``:
    no value derived from one is ``<= limit``, and every alignment of
    cost ``<= limit`` stays inside the band, so the final cell is the
    exact distance whenever that distance is ``<= limit``.
    """
    if abs(len(a) - len(b)) > limit:
        return None
    if a == b:
        return 0
    if limit <= 0:
        return None
    big = limit + 1
    previous = list(range(len(a) + 1))
    for j, ch_b in enumerate(b, start=1):
        lo = max(1, j - limit)
        hi = min(len(a), j + limit)
        current = [big] * (len(a) + 1)
        if lo == 1:
            current[0] = j
        for i in range(lo, hi + 1):
            cost = 0 if a[i - 1] == ch_b else 1
            current[i] = min(
                previous[i] + 1,
                current[i - 1] + 1,
                previous[i - 1] + cost,
            )
        if min(current[lo - 1 : hi + 1]) > limit:
            return None
        previous = current
    distance = previous[len(a)]
    return distance if distance <= limit else None


def within_distance(a, b, limit):
    """True iff ``levenshtein(a, b) <= limit`` (one banded pass)."""
    return bounded_distance(a, b, limit) is not None


def deletion_variants(word, depth):
    """``word`` and every string ``<= depth`` single deletions from it."""
    variants = {word}
    frontier = variants
    for _ in range(depth):
        frontier = {
            variant[:at] + variant[at + 1 :]
            for variant in frontier
            for at in range(len(variant))
        }
        variants |= frontier
    return variants


class SpellingIndex:
    """Vocabulary words by their ``<= limit``-deletion variants.

    Built once per vocabulary; :meth:`candidates` answers what a banded
    DP against every word used to.  Only words of at least
    ``min_length`` characters are indexed, and only terms that long are
    looked up: one edit in a 3-letter word is usually a different word,
    not a typo — matching how spelling-correction rule sets are curated
    in practice.

    Compact by design: one sorted ``array('q')`` of variant hashes and
    a parallel ``array('i')`` of word ids, 12 bytes per (variant, word)
    pair.  A hash collision only adds a candidate, which the distance
    check then rejects.  ``hash`` is per process, so an index is never
    written out; it is rebuilt from the vocabulary.

    A word of ``n`` letters has about ``n * n / 2`` variants, so words
    longer than :attr:`MAX_INDEXED_LENGTH` (a hash or a sequence in the
    corpus) are not indexed: they sit in a list sorted by length, and a
    term is checked directly against the few whose length is within
    ``limit`` of its own.  A term longer than every indexed word by
    more than ``limit`` is matched against that list alone, so neither
    a long corpus token nor a long query keyword costs more than
    linear work.
    """

    #: Longest word indexed by its deletion variants.
    MAX_INDEXED_LENGTH = 24
    #: Words added or removed since the arrays were built that
    #: :meth:`updated` tolerates before it builds them afresh: at least
    #: this many, or a quarter of the indexed words when that is more.
    MIN_REBUILD_CHANGES = 64

    __slots__ = (
        "limit", "min_length", "_vocabulary", "_words", "_longest",
        "_hashes", "_ids", "_loose", "_loose_lengths", "_changes",
    )

    def __init__(self, vocabulary, limit=2, min_length=4):
        self.limit = limit
        self.min_length = min_length
        if not isinstance(vocabulary, (set, frozenset)):
            vocabulary = set(vocabulary)
        self._vocabulary = vocabulary
        words = [word for word in vocabulary if len(word) >= min_length]
        self._words = sorted(
            word for word in words if len(word) <= self.MAX_INDEXED_LENGTH
        )
        self._longest = max(map(len, self._words), default=0)
        pairs = sorted(
            (hash(variant), word_id)
            for word_id, word in enumerate(self._words)
            for variant in deletion_variants(word, limit)
        )
        self._hashes = array("q", [key for key, _ in pairs])
        self._ids = array("i", [word_id for _, word_id in pairs])
        self._set_loose(
            word for word in words if len(word) > self.MAX_INDEXED_LENGTH
        )
        self._changes = 0

    def _set_loose(self, words):
        self._loose = sorted(words, key=len)
        self._loose_lengths = [len(word) for word in self._loose]

    def updated(self, vocabulary):
        """This index over a changed ``vocabulary``, sharing its arrays.

        Words added since the arrays were built join the directly
        checked list; words removed since stay in the arrays but are
        dropped from what a lookup finds.  So an index update costs set
        differences, not a rebuild, until the changes since the build
        pass :attr:`MIN_REBUILD_CHANGES` or a quarter of the indexed
        words; then the arrays are built afresh.
        """
        if not isinstance(vocabulary, (set, frozenset)):
            vocabulary = set(vocabulary)
        added = vocabulary - self._vocabulary
        changes = self._changes + len(added) + len(
            self._vocabulary - vocabulary
        )
        if changes > max(self.MIN_REBUILD_CHANGES, len(self._words) // 4):
            return type(self)(vocabulary, self.limit, self.min_length)
        index = copy(self)
        index._vocabulary = vocabulary
        index._set_loose(
            [word for word in self._loose if word in vocabulary]
            + [word for word in added if len(word) >= self.min_length]
        )
        index._changes = changes
        return index

    def candidates(self, term):
        """Vocabulary words within the index's ``limit`` edits of ``term``.

        Returns ``[(word, distance), ...]`` sorted by (distance, word),
        excluding ``term`` itself.
        """
        limit = self.limit
        if len(term) < self.min_length or limit <= 0:
            return []
        vocabulary = self._vocabulary
        found = set()
        if len(term) <= self._longest + limit:
            hashes, ids, words = self._hashes, self._ids, self._words
            size = len(hashes)
            for variant in deletion_variants(term, limit):
                key = hash(variant)
                at = bisect_left(hashes, key)
                while at < size and hashes[at] == key:
                    word = words[ids[at]]
                    if word in vocabulary:
                        found.add(word)
                    at += 1
        lengths = self._loose_lengths
        found.update(
            self._loose[
                bisect_left(lengths, len(term) - limit):
                bisect_right(lengths, len(term) + limit)
            ]
        )
        found.discard(term)
        near = []
        for word in found:
            distance = bounded_distance(term, word, limit)
            if distance is not None:
                near.append((word, distance))
        near.sort(key=lambda pair: (pair[1], pair[0]))
        return near


def spelling_candidates(term, vocabulary, limit=2, min_length=4):
    """Vocabulary words within edit distance ``limit`` of ``term``.

    Indexes ``vocabulary`` for this one call; a caller asking about
    many terms builds one :class:`SpellingIndex` and asks it (as
    :class:`~repro.lexicon.mining.RuleMiner` does).

    Returns ``[(word, distance), ...]`` sorted by (distance, word),
    excluding ``term`` itself; terms shorter than ``min_length`` get
    none.
    """
    if len(term) < min_length:
        return []
    return SpellingIndex(vocabulary, limit, min_length).candidates(term)
