"""Rule mining: building the pertinent rule set for a query.

The paper obtains refinement rules from "document mining, query log
analysis or manual annotation"; its experiments use two human
annotators.  This module plays the annotators' role automatically by
mining rules *relevant to a given query* from the corpus vocabulary
(the set of indexed keywords):

* **merging** — adjacent query keywords whose concatenation is a corpus
  word (``on, line -> online``);
* **split** — a query keyword that decomposes into 2..3 corpus words
  (``online -> on, line``);
* **spelling** — corpus words within edit distance 2 of a query
  keyword, ds = the distance (``mecin -> machine``, r5), found through
  a :class:`~repro.lexicon.edit_distance.SpellingIndex` of the
  vocabulary built on the first keyword that needs one and carried
  across index updates;
* **synonym** — thesaurus neighbours present in the corpus (``article
  -> inproceedings``, r3);
* **acronym** — expansion/contraction against the acronym table, both
  directions (``WWW <-> world wide web``, r6);
* **stemming** — corpus words sharing a Porter stem (``match ->
  matching``).

Only rules whose RHS keywords all exist in the corpus are emitted —
rules rewriting into absent keywords can never contribute a matching
result, so carrying them would only widen ``KS`` for nothing.

Only merging and acronym contraction read a keyword's neighbours.
Every other rule a keyword gets depends on the keyword and the
vocabulary alone, so a miner keeps them per keyword in a bounded LRU
(:attr:`RuleMiner.keyword_rules`, :data:`KEYWORD_MEMO_LIMIT` keywords):
a query never seen before re-mines only the keywords that are new to
the miner.  A miner's vocabulary never changes — an index update makes
a new miner (:meth:`RuleMiner.updated`), which starts with an empty
memo — so the memo needs no invalidation (the thesaurus and acronym
table are fixed for a miner's life too).  The memo takes a lock, as
every engine over one index version mines through that version's one
miner, from whatever thread calls it.
"""

from __future__ import annotations

import threading

from ..perf.lru import LRUMemo
from .acronyms import ACRONYM_SCORE, AcronymTable
from .edit_distance import SpellingIndex
from .rules import (
    DEFAULT_DELETION_COST,
    RuleSet,
    acronym_rules,
    merging_rule,
    split_rule,
    substitution_rule,
)
from .stemming import stem
from .synonyms import Thesaurus

#: Default cap on spelling-rule candidates per query keyword.
DEFAULT_MAX_SPELLING = 3
#: Minimum length of each fragment produced by a split rule.
MIN_SPLIT_FRAGMENT = 2
#: Distinct keywords whose own rules one miner keeps: room for the
#: 1,170 keywords of the replay benchmark's 2,000-query universe, at
#: about 0.3-0.5 KB each.
KEYWORD_MEMO_LIMIT = 2048


class RuleMiner:
    """Mines the pertinent rule set for queries over one corpus.

    Parameters
    ----------
    vocabulary:
        Iterable of corpus keywords (the inverted index's key set).
    thesaurus, acronyms:
        Optional domain knowledge; defaults cover the bundled datasets.
    deletion_cost:
        ds of term deletion, forwarded into every mined
        :class:`~repro.lexicon.rules.RuleSet`.
    """

    def __init__(
        self,
        vocabulary,
        thesaurus=None,
        acronyms=None,
        deletion_cost=DEFAULT_DELETION_COST,
        max_spelling=DEFAULT_MAX_SPELLING,
        edit_limit=2,
    ):
        self.vocabulary = set(vocabulary)
        self.thesaurus = thesaurus if thesaurus is not None else Thesaurus()
        self.acronyms = acronyms if acronyms is not None else AcronymTable()
        self.deletion_cost = deletion_cost
        self.max_spelling = max_spelling
        self.edit_limit = edit_limit
        self._stem_groups = None
        self._stem_of = None
        #: ``word -> stem`` of an earlier miner (:meth:`updated`): a
        #: superset of words whose stems need no recomputing.
        self._stem_carry = None
        self._spelling = None
        #: keyword -> (its split, spelling, synonym and acronym-expansion
        #: rules, its stemming rules), both tuples in mining order.
        self.keyword_rules = LRUMemo(KEYWORD_MEMO_LIMIT)
        self._keyword_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _stems(self):
        """Lazy ``(stem -> corpus words sharing it, word -> its stem)``:
        every vocabulary word is stemmed once per miner, or not at all
        when an earlier miner's carried map has it."""
        # ``_stem_of`` is set last and tested first: a miner may be
        # shared by two threads, and neither may see half the pair.
        if self._stem_of is None:
            carried = self._stem_carry or {}
            groups = {}
            stem_of = {}
            for word in self.vocabulary:
                word_stem = carried.get(word)
                if word_stem is None:
                    word_stem = stem(word)
                stem_of[word] = word_stem
                groups.setdefault(word_stem, set()).add(word)
            self._stem_groups = groups
            self._stem_of = stem_of
            self._stem_carry = None
        return self._stem_groups, self._stem_of

    def updated(self, vocabulary):
        """A miner over a changed ``vocabulary``, with this one's settings.

        Its spelling index, when this miner has built one, is carried
        over (:meth:`SpellingIndex.updated`) rather than rebuilt, so a
        search after an index update pays no index build.  So are the
        stems it knows: the new miner stems only the words they lack.
        Its per-keyword memo is not: spelling, split and synonym rules
        read the vocabulary.
        """
        miner = RuleMiner(
            vocabulary,
            thesaurus=self.thesaurus,
            acronyms=self.acronyms,
            deletion_cost=self.deletion_cost,
            max_spelling=self.max_spelling,
            edit_limit=self.edit_limit,
        )
        if self._spelling is not None:
            miner._spelling = self._spelling.updated(miner.vocabulary)
        miner._stem_carry = (
            self._stem_of if self._stem_of is not None else self._stem_carry
        )
        return miner

    def spelling_index(self):
        """The vocabulary's :class:`SpellingIndex`, built on first use.

        A miner's vocabulary never changes (an index update makes a
        new miner, see :meth:`updated`), so the index is built at most
        once per miner.
        """
        if self._spelling is None:
            self._spelling = SpellingIndex(
                self.vocabulary, limit=self.edit_limit
            )
        return self._spelling

    def _in_corpus(self, words):
        return all(word in self.vocabulary for word in words)

    # ------------------------------------------------------------------
    # Per-operation miners (each yields RefinementRule objects)
    # ------------------------------------------------------------------
    def merging_rules(self, query):
        """Adjacent-run merges whose result is a corpus word."""
        for width in (2, 3):
            for start in range(len(query) - width + 1):
                parts = tuple(query[start : start + width])
                merged = "".join(parts)
                if merged in self.vocabulary:
                    yield merging_rule(parts, merged)

    def split_rules(self, keyword):
        """Decompositions of one keyword into 2 corpus fragments."""
        for cut in range(MIN_SPLIT_FRAGMENT, len(keyword) - MIN_SPLIT_FRAGMENT + 1):
            left, right = keyword[:cut], keyword[cut:]
            if self._in_corpus((left, right)):
                yield split_rule(keyword, (left, right))

    def spelling_rules(self, keyword):
        """Edit-distance substitutions into corpus words."""
        if keyword in self.vocabulary:
            return
        candidates = self.spelling_index().candidates(keyword)
        for word, distance in candidates[: self.max_spelling]:
            yield substitution_rule(keyword, word, ds=distance)

    def synonym_rules(self, keyword):
        """Thesaurus substitutions into corpus words."""
        for synonym, score in self.thesaurus.synonyms(keyword):
            if synonym in self.vocabulary:
                yield substitution_rule(keyword, synonym, ds=score)

    def acronym_expansion_rules(self, keyword):
        """Acronym expansion of ``keyword`` into corpus words."""
        expansion = self.acronyms.expand(keyword)
        if expansion is not None and self._in_corpus(expansion):
            yield acronym_rules(keyword, expansion, ds=ACRONYM_SCORE)[0]

    def acronym_contraction_rules(self, query):
        """Contractions of runs of 2..3 adjacent query keywords into a
        corpus acronym, grouped by the run's last keyword — each group
        in (width, start) order."""
        by_last = {}
        last_words = self.acronyms.last_words
        for width in (2, 3):
            for start in range(len(query) - width + 1):
                if query[start + width - 1].lower() not in last_words:
                    continue
                run = tuple(query[start : start + width])
                acronym = self.acronyms.contract(run)
                if acronym is not None and acronym in self.vocabulary:
                    by_last.setdefault(run[-1], []).append(
                        acronym_rules(acronym, run, ds=ACRONYM_SCORE)[1]
                    )
        return by_last

    def stemming_rules(self, keyword):
        """Substitutions into corpus words sharing the Porter stem.

        A vocabulary keyword's stem is one dict read; any other keyword
        is stemmed per call, so nothing here grows with the traffic
        (:meth:`mine` keeps the rules in its bounded per-keyword memo).
        """
        groups, stem_of = self._stems()
        keyword_stem = stem_of.get(keyword)
        if keyword_stem is None:
            keyword_stem = stem(keyword)
        for word in sorted(groups.get(keyword_stem, ())):
            if word != keyword:
                yield substitution_rule(keyword, word, ds=1)

    def _keyword_parts(self, keyword):
        """``keyword``'s own rules, mined on the first call: ``(split,
        spelling, synonym and acronym-expansion rules, stemming
        rules)``."""
        with self._keyword_lock:
            parts = self.keyword_rules.lookup(keyword)
        if parts is None:
            parts = (
                (
                    *self.split_rules(keyword),
                    *self.spelling_rules(keyword),
                    *self.synonym_rules(keyword),
                    *self.acronym_expansion_rules(keyword),
                ),
                tuple(self.stemming_rules(keyword)),
            )
            with self._keyword_lock:
                self.keyword_rules.store(keyword, parts)
        return parts

    # ------------------------------------------------------------------
    def mine(self, query):
        """The pertinent :class:`RuleSet` for one keyword query.

        ``query`` is a sequence of normalized keywords (order matters
        for merging/contraction rules).  The rules come in one order:
        the merges, then per keyword its own rules, the contractions
        of runs ending with it, and its stemming rules.
        """
        query = list(query)
        rules = list(self.merging_rules(query))
        contractions = self.acronym_contraction_rules(query)
        for keyword in query:
            own, stemming = self._keyword_parts(keyword)
            rules += own
            rules += contractions.get(keyword, ())
            rules += stemming
        return RuleSet(rules, deletion_cost=self.deletion_cost)
