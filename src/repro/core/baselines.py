"""Comparison baselines from the paper's related-work discussion.

Two approaches the paper positions itself against are implemented so
the benchmarks can quantify the contrast:

* **Boolean OR relaxation** (the [8]-style relaxation the introduction
  calls out as "heavily relaxing the search intention"): every node
  containing *any* query keyword is a match; results are grouped into
  the search-for subtrees and ranked by how many distinct keywords
  they cover.  It never returns empty — but precision collapses, which
  is exactly the paper's criticism.

* **Static query cleaning** ([10]-style): rewrite the query against the
  corpus vocabulary and rule set *before* any search, with no
  guarantee the cleaned query has (meaningful) matching results —
  "a potential problem is the cleaned query is not guaranteed to have
  matching results in database".  The benchmark measures how often
  that guarantee actually fails versus XRefine's always-answerable
  output.
"""

from __future__ import annotations

from ..errors import QueryError
from ..index.tokenize_text import query_terms
from ..slca.meaningful import infer_search_for
from .candidates import RefinedQuery
from .dp import get_top_optimal_rqs


class ORMatch:
    """One OR-semantics result: a search-for subtree and its coverage."""

    __slots__ = ("dewey", "covered")

    def __init__(self, dewey, covered):
        self.dewey = dewey
        self.covered = frozenset(covered)

    @property
    def coverage(self):
        return len(self.covered)

    def __repr__(self):
        return f"ORMatch({self.dewey}, covers={sorted(self.covered)})"


def or_search(index, query, limit=50):
    """Boolean OR relaxation: subtrees containing any query keyword.

    Returns :class:`ORMatch` entries sorted by descending keyword
    coverage then document order, capped at ``limit``.  Matches are
    grouped at the best search-for type so the granularity is
    comparable to meaningful SLCAs.
    """
    terms = query_terms(query)
    if not terms:
        raise QueryError("the keyword query is empty")
    search_for = infer_search_for(index, terms)
    if not search_for:
        return []
    anchor_type = search_for[0].node_type
    covered = {}
    for term in terms:
        for root in index.inverted_list(term).ancestor_keys(anchor_type):
            covered.setdefault(root, set()).add(term)
    from ..xmltree.dewey import Dewey

    matches = [
        ORMatch(Dewey(components), terms_found)
        for components, terms_found in covered.items()
    ]
    matches.sort(key=lambda m: (-m.coverage, m.dewey.components))
    return matches[:limit]


def static_clean(index, query, rules, limit=1):
    """Static query cleaning: rewrite against the vocabulary, no search.

    Runs the same optimal-RQ dynamic program but with the *entire
    corpus vocabulary* as the available keyword set — the cleaned
    query's keywords each exist somewhere, but nothing checks that
    they co-occur in any subtree, let alone a meaningful one.  Returns
    up to ``limit`` :class:`RefinedQuery` candidates (best first), or
    an empty list when no rewrite reaches the vocabulary.
    """
    terms = query_terms(query)
    if not terms:
        raise QueryError("the keyword query is empty")
    vocabulary = set(index.inverted.keywords())
    candidates = get_top_optimal_rqs(terms, vocabulary, rules, limit)
    return [
        candidate
        for candidate in candidates
        if candidate.key != frozenset(terms)
    ] or (
        [RefinedQuery(terms, 0)]
        if all(term in vocabulary for term in terms)
        else []
    )


def cleaned_query_has_meaningful_result(index, cleaned):
    """Does a statically cleaned query actually answer? (the KQC gap)"""
    from ..slca.meaningful import meaningful_slcas
    from ..slca.scan_eager import scan_eager_slca

    lists = [index.inverted_list(term).labels() for term in cleaned.keywords]
    if any(not labels for labels in lists):
        return False
    slcas = scan_eager_slca(lists)
    search_for = infer_search_for(index, list(cleaned.keywords))
    return bool(meaningful_slcas(index, slcas, search_for))
