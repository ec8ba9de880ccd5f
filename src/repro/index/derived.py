"""Everything derived from one index version, in one holder.

``index.derived`` is a :class:`DerivedState`, built on first use: the
rule miner, the refinement-DP memos, the search-for memo (with its need
columns) and the ranking model's score memo.  A new version gets its
miner one way: from the version before it, through
:meth:`~repro.lexicon.mining.RuleMiner.updated`, which keeps the
spelling index and the stems.  An index update replaces the holder with
:meth:`DerivedState.updated`, which also keeps the DP memos; a swapped-in
index takes the serving miner through :meth:`DerivedState.inherit`.
"""

from __future__ import annotations

from ..lexicon.mining import KEYWORD_MEMO_LIMIT, RuleMiner
from ..perf.lru import LRUMemo
from ..perf.stats_cache import SearchForCache

#: Distinct ``(terms, rules, capacity)`` DP memo identities kept.
DP_LIMIT = 512


class DerivedState:
    """The miner and memos of one index version."""

    __slots__ = ("_index", "_miner", "_carry", "dp", "search_for",
                 "score_memo")

    def __init__(self, index, carry=None, dp=None):
        self._index = index
        self._miner = None
        #: An earlier version's miner, updated on first use.
        self._carry = carry
        #: (terms, rules.fingerprint(), capacity) -> DP memos.
        self.dp = dp if dp is not None else LRUMemo(DP_LIMIT)
        self.search_for = SearchForCache(index)
        #: repro.core.ranking.memo.ScoreMemo, built on the first score.
        self.score_memo = None

    @property
    def miner(self):
        """The :class:`~repro.lexicon.mining.RuleMiner` over this
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

    def inherit(self, older):
        """Take ``older``'s miner to update, if no miner is built yet."""
        if self._miner is None:
            self._carry = older._miner or older._carry

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
            index, carry=self._miner or self._carry, dp=self.dp
        )

    def stats(self):
        """``{size, limit, hits, misses, evictions}`` per bounded memo.

        ``keyword_rules`` is the miner's per-keyword memo; a miner not
        built yet is not built for it, and counts as an empty memo.
        """
        miner = self._miner
        return {
            "keyword_rules": (
                miner.keyword_rules if miner is not None
                else LRUMemo(KEYWORD_MEMO_LIMIT)
            ).stats(),
            "dp": self.dp.stats(),
            "search_for": self.search_for.entries.stats(),
            "need": self.search_for.needs.stats(),
        }
