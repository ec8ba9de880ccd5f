"""Dependence score of a refined query (Section IV-B, Formulas 7–9).

The similarity score treats query terms as independent; the dependence
score complements it with Guideline 5: an RQ is effective for a
search-for type ``T`` when its keywords co-occur frequently in T-typed
subtrees.  Formula 7 is an association-rule confidence,

    C(ki => k) = f_{ki,k}^T / f_{ki}^T,

Formula 8 accumulates it over all ordered keyword pairs of the RQ and
normalizes by ``|RQ|`` (Guideline 5 would otherwise favour long
queries), and Formula 9 applies the Guideline-3 confidence weighting
across multiple search-for candidates.
"""

from __future__ import annotations

from .memo import score_memo


def pair_confidence(index, ki, k, node_type):
    """Formula 7: how often ``k`` appears in T-subtrees containing ``ki``."""
    return index.cooccurrence.confidence(ki, k, node_type)


def dependence_for_type(index, rq_keywords, node_type, memo=None):
    """Formula 8: normalized pairwise dependence of RQ under type T.

    Formula-7 confidences are read through ``memo``, the index's
    :class:`~repro.core.ranking.memo.ScoreMemo` when omitted.
    """
    keywords = list(dict.fromkeys(rq_keywords))
    if len(keywords) < 2:
        return 0.0
    if memo is None:
        memo = score_memo(index)
    pair = memo.pair
    total = 0.0
    for k in keywords:
        for ki in keywords:
            if ki == k:
                continue
            total += pair[ki, k, node_type]
    return total / len(keywords)


def dependence(index, rq, search_for, use_g3=True, memo=None):
    """Formula 9: overall dependence score of a refined query."""
    if not search_for:
        return 0.0
    if memo is None:
        memo = score_memo(index)
    candidates = search_for if use_g3 else search_for[:1]
    return sum(
        candidate.confidence
        * dependence_for_type(index, rq.keywords, candidate.node_type, memo)
        for candidate in candidates
    )
