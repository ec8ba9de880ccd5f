"""Per-node-type statistics (Sections III-A, IV and VII).

For every node type ``T`` (prefix path, Definition 3.1) the table
holds the quantities the ranking model consumes:

* ``N_T`` — number of T-typed nodes (Formula 3);
* ``G_T`` — number of distinct keywords in subtrees of type T
  (normalizer of Formula 2);
* ``depth(T)`` — depth of T-typed nodes (Formula 1); equals the length
  of the prefix path;
* total term occurrences under T (handy normalizer for diagnostics).

The table is produced by :mod:`repro.index.builder` in the same pass
that builds the inverted lists.
"""

from __future__ import annotations

from ..errors import IndexingError


class TypeStatistics:
    """Statistics for one node type."""

    __slots__ = ("node_type", "node_count", "distinct_keywords", "total_terms")

    def __init__(self, node_type):
        self.node_type = node_type
        self.node_count = 0
        self.distinct_keywords = 0
        self.total_terms = 0

    @property
    def depth(self):
        """Depth of T-typed nodes; the root type has depth 1."""
        return len(self.node_type)

    def __repr__(self):
        return (
            f"TypeStatistics({'/'.join(self.node_type)}, N={self.node_count}, "
            f"G={self.distinct_keywords})"
        )


class StatisticsTable:
    """All node-type statistics for a document."""

    def __init__(self):
        self._by_type = {}

    def _entry(self, node_type):
        entry = self._by_type.get(node_type)
        if entry is None:
            entry = TypeStatistics(node_type)
            self._by_type[node_type] = entry
        return entry

    # ------------------------------------------------------------------
    # Build API
    # ------------------------------------------------------------------
    def set_distinct_keywords(self, node_type, count):
        """Set G_T once the builder knows the subtree vocabulary size."""
        self._entry(node_type).distinct_keywords = count

    def add_terms(self, node_type, count):
        """Accumulate total term occurrences under T-typed subtrees."""
        self._entry(node_type).total_terms += count

    def adjust_node_count(self, node_type, delta):
        """Signed N_T adjustment (incremental index updates)."""
        entry = self._entry(node_type)
        entry.node_count += delta
        if entry.node_count < 0:
            raise IndexingError(
                f"negative node count for {'/'.join(node_type)}"
            )

    def adjust_distinct_keywords(self, node_type, delta):
        """Signed G_T adjustment (incremental index updates)."""
        entry = self._entry(node_type)
        entry.distinct_keywords += delta
        if entry.distinct_keywords < 0:
            raise IndexingError(
                f"negative distinct-keyword count for {'/'.join(node_type)}"
            )

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------
    def __contains__(self, node_type):
        return node_type in self._by_type

    def __len__(self):
        return len(self._by_type)

    def get(self, node_type):
        """Statistics for ``node_type``; raises when unknown."""
        try:
            return self._by_type[node_type]
        except KeyError:
            raise IndexingError(
                f"no statistics for node type {'/'.join(node_type)}"
            ) from None

    def node_count(self, node_type):
        """``N_T``, or 0 for unknown types."""
        entry = self._by_type.get(node_type)
        return entry.node_count if entry else 0

    def distinct_keywords(self, node_type):
        """``G_T``, or 0 for unknown types."""
        entry = self._by_type.get(node_type)
        return entry.distinct_keywords if entry else 0

    def depth(self, node_type):
        return len(node_type)

    def types(self):
        """All known node types."""
        return list(self._by_type)

    def items(self):
        return self._by_type.items()
