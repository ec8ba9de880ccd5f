"""Refined-query candidates and the RQSortedList (Section VI-B).

:class:`RefinedQuery` is the value object flowing between the dynamic
program, the refinement algorithms and the ranking model: an ordered
keyword tuple plus the dissimilarity ``dSim(Q, RQ)`` it was derived
with.  Two candidates are the *same* refined query when their keyword
sets coincide (keyword queries are sets, Section III), regardless of
derivation order.

:class:`RQSortedList` is the paper's Top-2K working list: a list kept
sorted by dissimilarity (the paper uses a B-tree; ``bisect`` gives the
same O(log n) insert) plus a hash table for O(1) ``hasRQ`` membership.

Entries are totally ordered by ``(dissimilarity, sorted keyword set)``
rather than arrival order, so the kept set is a pure function of the
candidates offered — Partition (document order) and SLE (shortest-list
order) explore in different orders yet must converge on byte-identical
Top-K answers, which the differential harness (``repro.verify``)
asserts.
"""

from __future__ import annotations

import bisect

from ..errors import RefinementError


class RefinedQuery:
    """One refined query with its dissimilarity to the original."""

    __slots__ = ("keywords", "dissimilarity", "_key")

    def __init__(self, keywords, dissimilarity):
        keywords = tuple(keywords)
        if not keywords:
            raise RefinementError("a refined query cannot be empty")
        if dissimilarity < 0:
            raise RefinementError("dissimilarity cannot be negative")
        self.keywords = keywords
        self.dissimilarity = dissimilarity
        self._key = frozenset(keywords)

    @property
    def key(self):
        """Set identity of the query (order-insensitive)."""
        return self._key

    def __eq__(self, other):
        if not isinstance(other, RefinedQuery):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return (
            f"RefinedQuery({{{', '.join(self.keywords)}}}, "
            f"dSim={self.dissimilarity})"
        )


class RQSortedList:
    """Bounded list of the best (lowest-dissimilarity) refined queries.

    Parameters
    ----------
    capacity:
        Maximum number of entries kept (the paper uses ``2K``).
    """

    def __init__(self, capacity):
        if capacity < 1:
            raise RefinementError("RQSortedList capacity must be >= 1")
        self.capacity = capacity
        self._entries = []      # [(dissimilarity, key_order, RefinedQuery)]
        self._by_key = {}       # frozenset -> RefinedQuery
        #: Bumped whenever the kept entries change (admit, evict,
        #: improved-dissimilarity re-insert) and never otherwise: two
        #: reads that agree bracket a span in which every query method
        #: of the list answered the same.
        self.mutations = 0

    @staticmethod
    def _key_order(refined_query):
        """Deterministic tiebreak for equal dissimilarities."""
        return tuple(sorted(refined_query.key))

    def __len__(self):
        return len(self._entries)

    def __contains__(self, refined_query):
        return refined_query.key in self._by_key

    def has_key(self, key):
        """O(1) ``hasRQ`` membership check by keyword set."""
        return key in self._by_key

    @property
    def is_full(self):
        return len(self._entries) >= self.capacity

    def max_dissimilarity(self):
        """Dissimilarity of the worst kept entry (inf when not full).

        This is the admission threshold: a new candidate with larger
        dissimilarity than every kept entry cannot enter a full list.
        """
        if not self.is_full:
            return float("inf")
        return self._entries[-1][0]

    def kth_dissimilarity(self, k):
        """Dissimilarity of the k-th best entry (inf when fewer exist)."""
        if len(self._entries) < k:
            return float("inf")
        return self._entries[k - 1][0]

    def worst_order(self):
        """``(dissimilarity, key order)`` of the worst kept entry.

        The admission threshold as a comparable tuple — the batch
        admission sweep (:mod:`repro.kernels.scoring`) compares whole
        candidate columns against it.  Only meaningful when the list
        is full (``None`` otherwise, like ``max_dissimilarity``'s
        ``inf``).
        """
        if not self.is_full:
            return None
        worst_ds, worst_key, _ = self._entries[-1]
        return (worst_ds, worst_key)

    def would_admit(self, refined_query):
        """True when :meth:`insert` could keep this candidate.

        The algorithms use this as the cheap pre-check before paying
        for the candidate's SLCA computation; it must therefore agree
        exactly with :meth:`insert`'s admission order.
        """
        if refined_query.key in self._by_key:
            return True
        if not self.is_full:
            return True
        worst_ds, worst_key, _ = self._entries[-1]
        order = (refined_query.dissimilarity, self._key_order(refined_query))
        return order < (worst_ds, worst_key)

    def insert(self, refined_query):
        """Try to admit a candidate.

        Returns True when the candidate is now in the list (either
        newly admitted, or already present — in which case the smaller
        dissimilarity is kept).  When the list overflows, the entry
        greatest in ``(dissimilarity, keyword set)`` order is evicted.
        """
        existing = self._by_key.get(refined_query.key)
        if existing is not None:
            if refined_query.dissimilarity < existing.dissimilarity:
                self._remove(existing)
            else:
                return True
        key_order = self._key_order(refined_query)
        if (
            self.is_full
            and (refined_query.dissimilarity, key_order)
            >= (self._entries[-1][0], self._entries[-1][1])
        ):
            return False
        entry = (refined_query.dissimilarity, key_order, refined_query)
        bisect.insort(self._entries, entry)
        self._by_key[refined_query.key] = refined_query
        self.mutations += 1
        while len(self._entries) > self.capacity:
            _, _, evicted = self._entries.pop()
            del self._by_key[evicted.key]
        return refined_query.key in self._by_key

    def _remove(self, refined_query):
        idx = bisect.bisect_left(
            self._entries,
            (refined_query.dissimilarity, self._key_order(refined_query)),
        )
        while idx < len(self._entries):
            if self._entries[idx][2].key == refined_query.key:
                del self._entries[idx]
                del self._by_key[refined_query.key]
                self.mutations += 1
                return
            idx += 1
        raise RefinementError("RQSortedList internal inconsistency")

    def queries(self):
        """Kept queries, best (smallest dissimilarity) first."""
        return [entry[2] for entry in self._entries]

    def __iter__(self):
        return iter(self.queries())

    def __repr__(self):
        return f"RQSortedList({len(self)}/{self.capacity})"
