"""The co-occur frequency table (Section VII, index 3).

Stores ``f_{ki,kj}^T`` — the number of T-typed nodes whose subtree
contains *both* keywords — which Formula 7 turns into the association
confidence ``C(ki => kj) = f_{ki,kj}^T / f_{ki}^T``.

The paper materializes the full table at parse time and notes its
worst-case O(K^2 * T) space.  This implementation is **lazy with
memoization**: the first request for a pair ``(ki, kj, T)`` intersects
the T-typed ancestor sets derived from the two inverted lists, then
memoizes the answer.  The ranking model only ever asks about
keywords of candidate refined queries under the handful of search-for
types, so the lazy table stays tiny while returning exactly the counts
an eager build would.  ``build_pairs`` eagerly fills the table for a
vocabulary/type set when a fully materialized table is wanted (the
paper's configuration).
"""

from __future__ import annotations


class CooccurrenceTable:
    """Pairwise keyword co-occurrence counts per node type."""

    def __init__(self, inverted_index):
        self._inverted = inverted_index
        # (ki, kj, type_id) with ki <= kj -> f_{ki,kj}^T
        self._counts = {}
        # keyword -> {node_type -> frozenset of T-typed ancestor deweys}
        self._ancestor_cache = {}

    # ------------------------------------------------------------------
    def _ancestors(self, keyword, node_type):
        """Dewey labels of T-typed nodes containing ``keyword``.

        A posting at node v lies under a T-typed ancestor iff v's
        prefix path starts with T; that ancestor's Dewey label is v's
        label truncated to ``len(T)`` components.
        """
        per_keyword = self._ancestor_cache.setdefault(keyword, {})
        cached = per_keyword.get(node_type)
        if cached is not None:
            return cached
        frozen = frozenset(
            self._inverted.get(keyword).ancestor_keys(node_type)
        )
        per_keyword[node_type] = frozen
        return frozen

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------
    def count(self, ki, kj, node_type):
        """``f_{ki,kj}^T``: T-typed subtrees containing both keywords."""
        if ki > kj:  # symmetric: canonicalize the keyword order
            ki, kj = kj, ki
        key = (ki, kj, self._inverted._intern_type(node_type))
        value = self._counts.get(key)
        if value is None:
            value = len(
                self._ancestors(ki, node_type)
                & self._ancestors(kj, node_type)
            )
            self._counts[key] = value
        return value

    def containing_count(self, keyword, node_type):
        """``f_k^T`` derived from the same ancestor sets (cross-check)."""
        return len(self._ancestors(keyword, node_type))

    def confidence(self, ki, kj, node_type):
        """Formula 7: ``C(ki => kj) = f_{ki,kj}^T / f_{ki}^T``.

        Measures how often ``kj`` appears in the T-typed subtrees that
        contain ``ki``; 0 when ``ki`` never occurs under T.
        """
        denominator = self.containing_count(ki, node_type)
        if denominator == 0:
            return 0.0
        return self.count(ki, kj, node_type) / denominator

    # ------------------------------------------------------------------
    # Eager build (optional)
    # ------------------------------------------------------------------
    def build_pairs(self, keywords, node_types):
        """Materialize all pairs over ``keywords`` x ``node_types``."""
        keywords = sorted(set(keywords))
        for node_type in node_types:
            for i, ki in enumerate(keywords):
                for kj in keywords[i + 1 :]:
                    self.count(ki, kj, node_type)

    def __len__(self):
        return len(self._counts)

    def clear_cache(self):
        """Drop the ancestor-set cache (memoized counts stay)."""
        self._ancestor_cache.clear()

    def invalidate(self):
        """Drop caches AND memoized counts (after an index update)."""
        self._ancestor_cache.clear()
        self._counts.clear()
