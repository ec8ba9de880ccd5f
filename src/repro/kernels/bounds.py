"""Block-max presence bounds — the WAND-style skip, memoized by mask.

The partition tables in :mod:`.columns` say which blocks (partitions)
contain which keywords without touching a posting.  For a candidate
block, the cheapest dissimilarity any refined query derivable there
could reach is lower-bounded by
:class:`~repro.core.dp.MissingKeywordBound` — a pure function of the
block's *presence set*.  Documents have far fewer distinct presence
sets than partitions, so tabulating the bound per presence **bitmask**
(one bit per keyword-space lane) turns the per-block pre-check into a
dict hit: the block-max upper-bound test of WAND, with dissimilarity
playing the (inverted) score role.

Both comparisons downstream stay strict (``bound > threshold``), so
skipping on a cached bound is answer-identical — the same argument
that justified the bound itself in PR 4.
"""

from __future__ import annotations

from ..core.dp import MissingKeywordBound


class PresenceBoundCache:
    """Per-query presence bounds, keyed by keyword-space bitmask."""

    __slots__ = ("lane_cost", "_memo")

    def __init__(self, query, rules, keyword_space):
        handle_costs = MissingKeywordBound(query, rules).handle_costs
        #: Cost of lane i's keyword being absent (None: not a query
        #: keyword — generated keywords never cost anything to miss).
        self.lane_cost = tuple(
            handle_costs.get(keyword) for keyword in keyword_space
        )
        self._memo = {}

    def lower_bound(self, mask):
        """Least ``dSim`` reachable in a block with presence ``mask``."""
        bound = self._memo.get(mask)
        if bound is None:
            bound = 0
            for lane, cost in enumerate(self.lane_cost):
                if cost is not None and cost > bound and not mask & (1 << lane):
                    bound = cost
            self._memo[mask] = bound
        return bound
