"""Search-for node inference and meaningful SLCA (Section III-A).

The search target of an XML keyword query is implicit; XRefine infers
it from data statistics.  Formula 1 scores each node type ``T``:

    C_for(T, Q) = ln(1 + sum_{k in Q} f_k^T) * r^depth(T)

where ``r`` in (0, 1) is a reduction factor penalizing deep (overly
specific) types, and the sum tolerates keywords absent from the data.
The desired *search-for* candidates ``T_for`` are the types whose
confidence is comparable to the maximum (Guideline 3 explicitly allows
several).

A query result is a **meaningful SLCA** (Definition 3.3) when it is an
SLCA *and* lies at-or-below some T-typed node for ``T in T_for``; a
query **needs refinement** (Definition 3.4) exactly when it has no
meaningful SLCA.
"""

from __future__ import annotations

import math
from array import array

from ..errors import QueryError

#: Default reduction factor ``r`` of Formula 1.
DEFAULT_REDUCTION = 0.8
#: A type is kept in ``T_for`` when its confidence is at least this
#: fraction of the best one ("comparable confidence", Guideline 3).
DEFAULT_COMPARABLE_FRACTION = 0.85


class SearchForCandidate:
    """One inferred search-for node type with its confidence."""

    __slots__ = ("node_type", "confidence")

    def __init__(self, node_type, confidence):
        self.node_type = node_type
        self.confidence = confidence

    def __repr__(self):
        return (
            f"SearchForCandidate({'/'.join(self.node_type)}, "
            f"{self.confidence:.4f})"
        )


def _formula1(total_df, node_type, reduction):
    return math.log(1 + total_df) * reduction ** len(node_type)


def confidence(index, node_type, keywords, reduction=DEFAULT_REDUCTION):
    """Formula 1 for one node type."""
    return _formula1(
        sum(index.xml_df(k, node_type) for k in keywords), node_type,
        reduction,
    )


def infer_search_for(
    index,
    keywords,
    reduction=DEFAULT_REDUCTION,
    comparable_fraction=DEFAULT_COMPARABLE_FRACTION,
    max_candidates=3,
):
    """Infer the list ``T_for`` of search-for node candidates.

    The document root type is excluded — a result equal to the whole
    document is the paper's canonical *meaningless* answer — and leaf
    value types with a single node are ranked out naturally by the
    depth penalty.

    Returns a list of :class:`SearchForCandidate`, best first; empty
    when no query keyword occurs in the document at all.

    A type no keyword occurs under scores ``ln(1) = 0`` and is never
    kept, so only the types of the keywords' frequency rows
    (:meth:`~repro.index.frequency.FrequencyTable.types_for`) are
    scored, each ``f_k^T`` summed in keyword order.
    """
    keywords = list(keywords)
    if not keywords:
        raise QueryError("cannot infer a search-for node for an empty query")
    root_type = index.tree.root.node_type
    statistics = index.statistics
    totals = {}
    for keyword in keywords:
        for node_type, df, _ in index.frequency.types_for(keyword):
            totals[node_type] = totals.get(node_type, 0) + df
    scored = []
    for node_type, total_df in totals.items():
        if node_type == root_type or node_type not in statistics:
            continue
        score = _formula1(total_df, node_type, reduction)
        if score > 0.0:
            scored.append(SearchForCandidate(node_type, score))
    if not scored:
        return []
    scored.sort(key=lambda c: (-c.confidence, c.node_type))
    best = scored[0].confidence
    threshold = best * comparable_fraction
    kept = [c for c in scored if c.confidence >= threshold]
    return kept[:max_candidates]


def is_meaningful(slca_dewey, slca_type, search_for_types):
    """Definition 3.3 membership test for one SLCA result.

    ``slca_type`` is the node type (prefix path) of the SLCA node.  The
    result is meaningful when it is *self or descendant* of a node of
    some search-for type — i.e. some candidate type is a prefix of the
    SLCA's type path.
    """
    for candidate in search_for_types:
        if slca_type[: len(candidate)] == candidate:
            return True
    return False


#: ``need`` of a type no search-for type prefixes: no depth reaches it.
NEVER_MEANINGFUL = (1 << 63) - 1


def need_column(search_for_types, node_type_table):
    """Definition 3.3 per interned type id, as an ``array('q')``.

    A node at ``depth`` above a posting typed ``path`` has type
    ``path[:depth]``, and is meaningful iff some search-for type
    prefixes that — iff ``depth`` reaches the shortest search-for type
    prefixing ``path``.  Entry ``type_id`` is that length
    (:data:`NEVER_MEANINGFUL` when there is none); an ``int64``
    column, so the compiled kernels read it in place.
    """
    return array("q", [
        min(
            (len(t) for t in search_for_types if path[: len(t)] == t),
            default=NEVER_MEANINGFUL,
        )
        for path in node_type_table
    ])


def meaningful_slcas(index, slca_labels, search_for):
    """Filter SLCA labels down to the meaningful ones (Definition 3.3)."""
    types = [c.node_type for c in search_for]
    kept = []
    for label in slca_labels:
        node = index.tree.get(label)
        if node is None:
            continue
        if is_meaningful(label, node.node_type, types):
            kept.append(label)
    return kept


def needs_refinement(index, slca_labels, search_for):
    """Definition 3.4: True when the query has no meaningful SLCA."""
    return not meaningful_slcas(index, slca_labels, search_for)
