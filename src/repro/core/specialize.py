"""Query specialization — the paper's stated future work (Section IX).

The conclusion names "another extreme of our work — how to refine a
query which has *too many* matching results over XML data".  This
module implements that direction with the machinery already in place:

Given a query Q whose meaningful SLCA count exceeds a threshold,
propose *specialized* queries ``Q + {k'}`` where the expansion keyword
``k'``

1. co-occurs with Q's keywords inside the search-for subtrees — scored
   with the same association confidence the dependence score uses
   (Formula 7), so the suggestion is statistically grounded;
2. genuinely narrows the result set (strictly fewer, but more than
   zero, meaningful SLCAs — Lemma 1 guarantees the results of a
   superset query are a subset, so specialization can only narrow).

Candidates are ranked by a trade-off between *focus* (how much the
result set shrinks) and *support* (how strongly k' associates with Q),
so the top suggestions split the original result set into meaningful
slices rather than cherry-picking one stray result.
"""

from __future__ import annotations

import math
from collections import Counter

from ..errors import QueryError
from ..index.tokenize_text import extract_terms, query_terms
from ..slca.meaningful import infer_search_for, meaningful_slcas
from ..slca.scan_eager import scan_eager_slca

#: A query is "too broad" above this many meaningful results.
DEFAULT_BROAD_THRESHOLD = 20
#: Candidate expansion terms scanned per query (most frequent first).
DEFAULT_CANDIDATE_LIMIT = 40


class SpecializedQuery:
    """One narrowing suggestion ``Q + {expansion}`` with its results."""

    __slots__ = ("keywords", "expansion", "slcas", "support", "score")

    def __init__(self, keywords, expansion, slcas, support, score):
        self.keywords = tuple(keywords)
        self.expansion = expansion
        self.slcas = list(slcas)
        self.support = support
        self.score = score

    @property
    def result_count(self):
        return len(self.slcas)

    def __repr__(self):
        return (
            f"SpecializedQuery(+{self.expansion!r}, "
            f"results={len(self.slcas)}, score={self.score:.3f})"
        )


class SpecializationResponse:
    """Outcome of :func:`specialize_query`."""

    __slots__ = ("query", "is_broad", "original_results", "suggestions")

    def __init__(self, query, is_broad, original_results, suggestions):
        self.query = tuple(query)
        self.is_broad = is_broad
        self.original_results = list(original_results)
        self.suggestions = list(suggestions)

    def __repr__(self):
        status = "broad" if self.is_broad else "focused"
        return (
            f"SpecializationResponse({{{', '.join(self.query)}}}: {status}, "
            f"{len(self.suggestions)} suggestions)"
        )


def _meaningful_results(index, terms, search_for):
    lists = [index.inverted_list(t).labels() for t in terms]
    if any(not labels for labels in lists):
        return []
    return meaningful_slcas(index, scan_eager_slca(lists), search_for)


def _expansion_candidates(index, results, query_set, limit):
    """Frequent subtree terms of the current results, minus Q itself."""
    counts = Counter()
    for dewey in results:
        node = index.tree.get(dewey)
        if node is None:
            continue
        seen_here = set()
        for term in extract_terms(node.subtree_text()):
            if term in query_set or len(term) < 2:
                continue
            if term not in seen_here:
                counts[term] += 1
                seen_here.add(term)
        for descendant in index.tree.iter_subtree(dewey):
            tag = descendant.tag.lower()
            if tag not in query_set and tag not in seen_here:
                counts[tag] += 1
                seen_here.add(tag)
    return [term for term, _ in counts.most_common(limit)]


def specialize_query(
    index,
    query,
    k=3,
    broad_threshold=DEFAULT_BROAD_THRESHOLD,
    candidate_limit=DEFAULT_CANDIDATE_LIMIT,
):
    """Suggest Top-``k`` narrowing refinements for an over-broad query.

    Returns a :class:`SpecializationResponse`; when the query is not
    broad (fewer than ``broad_threshold`` meaningful results) the
    response carries the original results and no suggestions — mirroring
    how the refinement engine leaves healthy queries alone (Issue 1).
    """
    terms = query_terms(query)
    if not terms:
        raise QueryError("the keyword query is empty")
    search_for = infer_search_for(index, terms)
    original = _meaningful_results(index, terms, search_for)
    if len(original) < broad_threshold:
        return SpecializationResponse(terms, False, original, [])

    query_set = set(terms)
    original_count = len(original)
    suggestions = []
    for expansion in _expansion_candidates(
        index, original, query_set, candidate_limit
    ):
        narrowed = _meaningful_results(
            index, terms + [expansion], search_for
        )
        if not narrowed or len(narrowed) >= original_count:
            continue
        # Support: how strongly the expansion associates with Q within
        # the search-for subtrees (mean Formula-7 confidence).
        if search_for:
            support = sum(
                index.cooccurrence.confidence(
                    term, expansion, candidate.node_type
                )
                for term in terms
                for candidate in search_for
            ) / (len(terms) * len(search_for))
        else:
            support = 0.0
        coverage = len(narrowed) / original_count
        # Score favours meaningful slices (not singletons, not
        # near-total coverage) with strong association.
        focus = -abs(math.log(max(coverage, 1e-9)) - math.log(0.3))
        score = support + focus
        suggestions.append(
            SpecializedQuery(
                terms + [expansion], expansion, narrowed, support, score
            )
        )
    suggestions.sort(key=lambda s: (-s.score, s.expansion))
    return SpecializationResponse(terms, True, original, suggestions[:k])
