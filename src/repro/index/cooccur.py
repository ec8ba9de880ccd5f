"""The co-occur frequency table (Section VII, index 3).

Stores ``f_{ki,kj}^T`` — the number of T-typed nodes whose subtree
contains *both* keywords — which Formula 7 turns into the association
confidence ``C(ki => kj) = f_{ki,kj}^T / f_{ki}^T``.

The paper materializes the full table at parse time and notes its
worst-case O(K^2 * T) space.  This implementation is **a lazy merge
with memoized counts**: the first request for a pair ``(ki, kj, T)``
makes one forward pass over the two inverted lists' key columns
(:func:`~repro.kernels.ancestors.common_ancestors`) and memoizes the
count — and nothing else: no ancestor set outlives the pass.  The
ranking model only ever asks about keywords of candidate refined
queries under the handful of search-for types, so the memo stays tiny
while returning exactly the counts an eager build would; its bound is
``|V|^2 * |T|`` however much traffic the index serves.  ``f_k^T`` is
the frequent table's (:mod:`repro.index.frequency`).  ``build_pairs``
eagerly fills the table for a vocabulary/type set when a fully
materialized table is wanted (the paper's configuration).
"""

from __future__ import annotations

from ..kernels.ancestors import common_ancestors


class CooccurrenceTable:
    """Pairwise keyword co-occurrence counts per node type."""

    def __init__(self, inverted_index, frequency):
        self._inverted = inverted_index
        self._frequency = frequency
        # (ki, kj, type_id) with ki <= kj -> f_{ki,kj}^T
        self._counts = {}

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------
    def count(self, ki, kj, node_type):
        """``f_{ki,kj}^T``: T-typed subtrees containing both keywords.

        A pair with an absent keyword, or a type no node has, counts 0
        and is not memoized: the memo holds indexed keywords only.
        """
        if ki > kj:  # symmetric: canonicalize the keyword order
            ki, kj = kj, ki
        inverted = self._inverted
        type_id = inverted._type_ids.get(node_type)
        if type_id is None:
            return 0
        key = (ki, kj, type_id)
        value = self._counts.get(key)
        if value is None:
            a = inverted.get(ki)
            b = inverted.get(kj)
            if not len(a) or not len(b):
                return 0
            value = self._counts[key] = common_ancestors(a, b, node_type)
        return value

    def containing_count(self, keyword, node_type):
        """``f_k^T``, read from the frequent table."""
        return self._frequency.xml_df(keyword, node_type)

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

    def invalidate(self):
        """Drop the memoized counts (after an index update)."""
        self._counts.clear()
