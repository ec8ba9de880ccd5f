"""Similarity score of a refined query (Section IV-A, Formulas 2–6).

Four incremental guidelines:

* **Guideline 1** (Formula 2) — term-frequency evidence:
  ``Imp(RQ, T) = sum_{k in RQ} tf(k, T) / G_T``.
* **Guideline 2** (Formula 3) — keyword discriminative power:
  ``Imp_ki(Q, T) = ln(N_T / (1 + f_ki^T))``.
* **Guideline 3** (Formula 5) — weight per-type scores by the
  search-for confidence ``C_for(T, Q)`` when several types qualify.
* **Guideline 4** (Formula 6) — decay by the rule-based dissimilarity:
  the final similarity is scaled by ``decay ** dSim(Q, RQ)``.

.. note:: **Formula 4's summation domain.**  The paper prints the
   Guideline-2 multiplier as a sum over ``RQ △ Q`` (keywords deleted
   or newly generated).  Taken literally this *rewards* deleting
   discriminative keywords — the opposite of Guideline 2's own text
   and of Example 2, where the RQ that *keeps* the discriminative
   keyword (``join``, XML DF 9462) must outrank the one keeping the
   common one (``pattern``, XML DF 17297).  Summing over the keywords
   **of RQ** restores consistency and matches the paper's own gloss
   that Guideline 1 plays the TF role and Guideline 2 the IDF role of
   TF*IDF.  The consistent reading is the default; pass
   ``domain="sym_diff"`` for the literal formula (exercised by an
   ablation benchmark).
"""

from __future__ import annotations

import math

from .memo import score_memo

#: Decay factor of Guideline 4; 0.8 is the paper's empirical choice.
DEFAULT_DECAY = 0.8

#: Formula 4's summation domains: the keywords of RQ (the consistent
#: reading) or ``RQ △ Q`` (the literal formula).
G2_DOMAINS = ("rq", "sym_diff")


def importance(index, rq_keywords, node_type, memo=None):
    """Formula 2: accumulated normalized term frequency of RQ under T.

    ``tf`` and ``G_T`` are read through ``memo``, the index's
    :class:`~repro.core.ranking.memo.ScoreMemo` when omitted.
    """
    if memo is None:
        memo = score_memo(index)
    g_t = memo.g[node_type]
    if g_t == 0:
        return 0.0
    tf = memo.tf
    return sum(tf[k, node_type] for k in rq_keywords) / g_t


def keyword_importance(index, keyword, node_type):
    """Formula 3: discriminative power of one keyword w.r.t. type T.

    Uses the standard smoothed IDF ``ln(1 + N_T / (1 + f_k^T))`` rather
    than the raw ``ln(N_T / (1 + f_k^T))``: the raw form goes negative
    whenever a keyword occurs under most T-typed nodes (inevitable on
    small documents), which would let a *more* frequent keyword push
    the score below zero.  The smoothing preserves the ordering Formula
    3 encodes while keeping every importance positive.
    """
    n_t = index.node_count(node_type)
    if n_t == 0:
        return 0.0
    return math.log(1 + n_t / (1 + index.xml_df(keyword, node_type)))


def _guideline2_domain(rq_keywords, original_keywords, domain):
    """The distinct keywords Formula 4 sums over, in sorted order.

    :func:`similarity_for_type` adds floats in the order this returns,
    so it must not depend on ``PYTHONHASHSEED``: a set's iteration
    order would move the score's last ulp between processes.
    """
    rq_set = set(rq_keywords)
    if domain == "rq":
        return tuple(sorted(rq_set))
    if domain == "sym_diff":
        return tuple(sorted(rq_set ^ set(original_keywords)))
    raise ValueError(f"unknown Guideline-2 domain {domain!r}")


def similarity_for_type(
    index,
    rq_keywords,
    original_keywords,
    node_type,
    domain="rq",
    use_g1=True,
    use_g2=True,
    memo=None,
):
    """Formula 4: per-type similarity ``rho(RQ, Q | T)``.

    ``use_g1`` / ``use_g2`` switch either multiplier to 1, producing
    the RS1 / RS2 ablation variants of Section VIII-C.  Formula-3
    importances are read through ``memo`` (see :func:`importance`).
    """
    if memo is None:
        memo = score_memo(index)
    first = importance(index, rq_keywords, node_type, memo) if use_g1 else 1.0
    if use_g2:
        importance_of = memo.importance
        second = sum(
            importance_of[k, node_type]
            for k in _guideline2_domain(rq_keywords, original_keywords, domain)
        )
    else:
        second = 1.0
    return first * second


def similarity(
    index,
    rq,
    original_keywords,
    search_for,
    decay=DEFAULT_DECAY,
    domain="rq",
    use_g1=True,
    use_g2=True,
    use_g3=True,
    use_g4=True,
    memo=None,
):
    """Formulas 5+6: the full similarity score of a refined query.

    Parameters
    ----------
    index:
        A :class:`~repro.index.builder.DocumentIndex`.
    rq:
        A :class:`~repro.core.candidates.RefinedQuery`.
    original_keywords:
        The original query ``Q``.
    search_for:
        List of :class:`~repro.slca.meaningful.SearchForCandidate`
        (``T_for`` with confidences), best first.
    decay:
        Guideline-4 decay factor in (0, 1).
    use_g3:
        When False, only the single best search-for type contributes
        (the RS3 variant); otherwise the confidence-weighted sum of
        Formula 5 is used.
    use_g4:
        When False, the dissimilarity decay is skipped (RS4).
    memo:
        The :class:`~repro.core.ranking.memo.ScoreMemo` the statistics
        are read through; the index's own when omitted.
    """
    if not search_for:
        return 0.0
    if memo is None:
        memo = score_memo(index)
    candidates = search_for if use_g3 else search_for[:1]
    total = 0.0
    for candidate in candidates:
        per_type = similarity_for_type(
            index,
            rq.keywords,
            original_keywords,
            candidate.node_type,
            domain=domain,
            use_g1=use_g1,
            use_g2=use_g2,
            memo=memo,
        )
        total += candidate.confidence * per_type
    if use_g4:
        total *= decay ** rq.dissimilarity
    return total
