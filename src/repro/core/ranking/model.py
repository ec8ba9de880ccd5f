"""The complete query ranking model (Formula 10) with ablation variants.

``Rank(RQ) = alpha * rho(RQ, Q) + beta * Dep(RQ, Q)`` — a weighted sum
of the similarity score (Formulas 2–6) and the dependence score
(Formulas 7–9).  ``alpha = beta = 1`` is the paper's default; Section
VIII-C sweeps the weights (Table X) and ablates the four similarity
guidelines (Table IX, variants RS1–RS4 versus the full model RS0).
"""

from __future__ import annotations

from .dependence import dependence
from .similarity import DEFAULT_DECAY, G2_DOMAINS, similarity


class RankingModel:
    """Configurable instance of the Section-IV ranking model.

    Parameters
    ----------
    alpha, beta:
        Formula-10 weights for similarity and dependence.
    decay:
        Guideline-4 decay factor (``0.8`` per the paper).
    use_g1 .. use_g4:
        Toggle the four similarity guidelines; switching ``use_gi`` off
        yields the RS``i`` variant of Table IX.
    g2_domain:
        ``"rq"`` (consistent reading, default) or ``"sym_diff"``
        (the literal Formula 4); see
        :mod:`repro.core.ranking.similarity`.
    """

    def __init__(
        self,
        alpha=1.0,
        beta=1.0,
        decay=DEFAULT_DECAY,
        use_g1=True,
        use_g2=True,
        use_g3=True,
        use_g4=True,
        g2_domain="rq",
    ):
        if not 0.0 < decay < 1.0:
            raise ValueError(f"decay must lie in (0, 1), got {decay}")
        if g2_domain not in G2_DOMAINS:
            raise ValueError(f"unknown Guideline-2 domain {g2_domain!r}")
        self.alpha = alpha
        self.beta = beta
        self.decay = decay
        self.use_g1 = use_g1
        self.use_g2 = use_g2
        self.use_g3 = use_g3
        self.use_g4 = use_g4
        self.g2_domain = g2_domain

    # ------------------------------------------------------------------
    # Formula 10 is ``alpha * similarity_score + beta * dependence_score``,
    # summed where candidates are ranked
    # (:func:`repro.core.common.rank_candidates`).  ``memo`` is the
    # :class:`~repro.core.ranking.memo.ScoreMemo` the statistics are
    # read through; the index's own when omitted.
    def similarity_score(self, index, rq, original_keywords, search_for,
                         memo=None):
        """``rho(RQ, Q)`` after Guideline-4 decay (Formulas 2–6)."""
        return similarity(
            index,
            rq,
            original_keywords,
            search_for,
            decay=self.decay,
            domain=self.g2_domain,
            use_g1=self.use_g1,
            use_g2=self.use_g2,
            use_g3=self.use_g3,
            use_g4=self.use_g4,
            memo=memo,
        )

    def dependence_score(self, index, rq, search_for, memo=None):
        """``Dep(RQ, Q)`` (Formulas 7–9)."""
        return dependence(index, rq, search_for, use_g3=self.use_g3,
                          memo=memo)

    def __repr__(self):
        flags = "".join(
            str(int(flag))
            for flag in (self.use_g1, self.use_g2, self.use_g3, self.use_g4)
        )
        return (
            f"RankingModel(alpha={self.alpha}, beta={self.beta}, "
            f"decay={self.decay}, guidelines={flags})"
        )


def full_model(alpha=1.0, beta=1.0, decay=DEFAULT_DECAY):
    """RS0 — the complete ranking model."""
    return RankingModel(alpha=alpha, beta=beta, decay=decay)


def variant_without_guideline(i, alpha=1.0, beta=1.0, decay=DEFAULT_DECAY):
    """RS``i`` — the model with Guideline ``i`` removed (Table IX)."""
    if i not in (1, 2, 3, 4):
        raise ValueError(f"guideline index must be 1..4, got {i}")
    flags = {f"use_g{j}": j != i for j in (1, 2, 3, 4)}
    return RankingModel(alpha=alpha, beta=beta, decay=decay, **flags)
