"""Memoized search-for inference (Formula 1) for the serving hot path.

Every query — refinement or plain SLCA — starts by inferring the
search-for node types: one pass over *all* node types, each scoring a
``f_k^T`` store lookup per query keyword.  Distinct queries over the
same keyword multiset (the common case in a skewed log, and every
candidate evaluation inside one query) repeat that work verbatim, so
:class:`SearchForCache` memoizes :func:`repro.slca.meaningful.\
infer_search_for` keyed on the keyword multiset plus the formula's
parameters.

It also memoizes the Definition 3.3 ``need`` column each query derives
from its search-for types (:meth:`SearchForCache.need`).

The cache is owned by the :class:`~repro.index.builder.DocumentIndex`
and cleared by ``DocumentIndex.invalidate_caches()`` whenever a
partition is appended or removed, together with the frequency-table
memo (see :mod:`repro.index.frequency`).
"""

from __future__ import annotations

from collections import OrderedDict

from ..slca.meaningful import (
    DEFAULT_COMPARABLE_FRACTION,
    DEFAULT_REDUCTION,
    infer_search_for,
    need_column,
)

#: Default number of memoized keyword multisets.
DEFAULT_CAPACITY = 1024


class SearchForCache:
    """LRU memo over :func:`infer_search_for` for one document index."""

    __slots__ = ("_index", "maxsize", "_entries", "_needs", "hits", "misses")

    def __init__(self, index, maxsize=DEFAULT_CAPACITY):
        self._index = index
        self.maxsize = maxsize
        self._entries = OrderedDict()
        #: (search-for types, type-table length) -> need column.
        self._needs = {}
        self.hits = 0
        self.misses = 0

    def infer(
        self,
        keywords,
        reduction=DEFAULT_REDUCTION,
        comparable_fraction=DEFAULT_COMPARABLE_FRACTION,
        max_candidates=3,
    ):
        """Memoized ``T_for`` inference; same contract as the function.

        Formula 1 only sums per-keyword statistics, so the result is
        order-insensitive and the key is the sorted keyword multiset.
        Returns a fresh list each call (callers stash it in responses).
        """
        keywords = list(keywords)
        key = (
            tuple(sorted(keywords)),
            reduction,
            comparable_fraction,
            max_candidates,
        )
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return list(cached)
        self.misses += 1
        value = infer_search_for(
            self._index,
            keywords,
            reduction=reduction,
            comparable_fraction=comparable_fraction,
            max_candidates=max_candidates,
        )
        if self.maxsize:
            self._entries[key] = tuple(value)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return value

    def need(self, search_for_types):
        """Memoized :func:`~repro.slca.meaningful.need_column` over the
        index's node-type table.

        Keyed by the search-for types and the table's length, so a type
        interned since is never read past the column's end.  The column
        is shared by every query with these types: read it, never
        write it.
        """
        table = self._index.inverted.node_type_table
        key = (tuple(search_for_types), len(table))
        need = self._needs.get(key)
        if need is None:
            need = need_column(search_for_types, table)
            if len(self._needs) >= self.maxsize:
                self._needs.clear()
            self._needs[key] = need
        return need

    def clear(self):
        self._entries.clear()
        self._needs.clear()

    def __len__(self):
        return len(self._entries)

    def __repr__(self):
        return (
            f"SearchForCache(size={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
