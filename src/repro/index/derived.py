"""Everything derived from one index version, in one holder.

``index.derived`` is a :class:`DerivedState`, built on first use: the
auto rule miner, the rules memo, the refinement-DP memos, the
search-for memo (with its need columns) and the ranking model's score
memo.  An index update replaces it with :meth:`DerivedState.updated`,
which keeps only what does not depend on the version: the miner,
through :meth:`~repro.lexicon.mining.RuleMiner.updated` (spelling
index and stems), the DP memos, and the rules memo's limit.
"""

from __future__ import annotations

from ..lexicon.mining import RuleMiner
from ..perf.lru import LRUMemo
from ..perf.stats_cache import SearchForCache

#: Distinct queries whose auto-mined rule sets are kept.
RULES_LIMIT = 1024
#: Distinct ``(terms, rules, capacity)`` DP memo identities kept.
DP_LIMIT = 512


class DerivedState:
    """The miner and memos of one index version."""

    __slots__ = ("_index", "_miner", "_carry", "rules", "dp", "search_for",
                 "score_memo")

    def __init__(self, index, carry=None, rules_limit=RULES_LIMIT, dp=None):
        self._index = index
        self._miner = None
        #: An earlier version's miner, updated on first use.
        self._carry = carry
        #: Query terms -> the auto miner's RuleSet.
        self.rules = LRUMemo(rules_limit)
        #: (terms, rules.fingerprint(), capacity) -> DP memos.
        self.dp = dp if dp is not None else LRUMemo(DP_LIMIT)
        self.search_for = SearchForCache(index)
        #: repro.core.ranking.memo.ScoreMemo, built on the first score.
        self.score_memo = None

    @property
    def miner(self):
        """The auto :class:`~repro.lexicon.mining.RuleMiner` over this
        version's vocabulary."""
        if self._miner is None:
            keywords = self._index.inverted.keywords()
            carry = self._carry
            self._miner = (
                RuleMiner(keywords) if carry is None
                else carry.updated(keywords)
            )
            self._carry = None
        return self._miner

    def adopt(self, miner):
        """Serve ``miner`` if none is built yet and its vocabulary is
        exactly this version's (mining reads nothing else)."""
        if self._miner is None and miner.vocabulary == set(
            self._index.inverted.keywords()
        ):
            self._miner = miner
            self._carry = None

    def inherit(self, older):
        """After a swap: ``older``'s rules limit and, if no miner is
        built yet, its miner to update."""
        self.rules.limit = older.rules.limit
        if self._miner is None:
            self._carry = older._miner or older._carry

    def mine(self, terms):
        """The auto miner's rule set for ``terms``, memoized."""
        rules = self.rules.lookup(terms)
        if rules is None:
            rules = self.miner.mine(terms)
            self.rules.store(terms, rules)
        return rules

    def dp_memos(self, terms, rules, capacity):
        """``(probe_memo, beam_memo, witness_memo)`` for one identity.

        The probe memo maps a present-keyword frozenset to the least
        dissimilarity of the 1-beam DP (``inf`` when there is none),
        the beam memo (a :class:`~repro.core.dp.BeamMemo`) to the
        Top-``capacity`` beam.  The refinement DP is a pure function of
        ``(query, present keywords, rules, limit)`` — posting data never
        enters it — so the memos survive index updates and are shared
        by every route evaluated for this identity.
        """
        identity = (tuple(terms), rules.fingerprint(), capacity)
        memos = self.dp.lookup(identity)
        if memos is None:
            from ..core.dp import BeamMemo

            memos = ({}, BeamMemo(), {})
            self.dp.store(identity, memos)
        return memos

    def updated(self, index):
        """The holder for ``index``'s next version."""
        return DerivedState(
            index,
            carry=self._miner or self._carry,
            rules_limit=self.rules.limit,
            dp=self.dp,
        )

    def stats(self):
        """``{size, limit, hits, misses, evictions}`` per bounded memo."""
        return {
            "rules": self.rules.stats(),
            "dp": self.dp.stats(),
            "search_for": self.search_for.entries.stats(),
            "need": self.search_for.needs.stats(),
        }
