"""``getOptimalRQ`` — the dynamic program of Section V.

Given the original query ``S`` (a keyword sequence), a keyword set
``T`` (the keywords that actually occur in the data region under
consideration — a stack subtree, a document partition...), and a rule
set ``R``, find the refined query ``RQ ⊆ T`` with minimum dissimilarity
``dSim(S, RQ)`` (Definition 3.6).

The recurrence (Formula 11) fills ``C[i]`` — the best refinements of
the prefix ``S[1..i]`` — from three options:

1. **keep** ``k_i`` when it appears in ``T`` (cost unchanged);
2. **delete** ``k_i`` (cost + deletion cost) — always applicable;
3. apply a rule ``r`` whose LHS is a suffix of ``S[1..i]`` and whose
   RHS keywords all occur in ``T`` (cost ``C[i - |LHS(r)|] + ds_r``).

Each cell keeps a **beam** of the best partial refinements (distinct by
keyword set) instead of only the minimum: Section V notes that the
intermediate results double as the ranked Top-2K candidate list that
Algorithms 2 and 3 consume, so ``get_top_optimal_rqs(S, T, R, 2K)`` is
the same pass with a wider beam.

Complexity: ``O(|S| * beam * (1 + rules_per_suffix))`` cell work, i.e.
the paper's ``O(|Q|^2 log |R|)`` for unit beams once rule lookup by
last-LHS-keyword is O(1) (our :class:`~repro.lexicon.rules.RuleSet`
pre-indexes instead of binary-searching).

:func:`get_top_optimal_rqs` is the reference.  Short-list eager runs
the same DP compiled (``repro_dp_top`` in :mod:`repro.kernels.backend`,
over a :class:`~repro.kernels.scoring.RuleTable`): keyword sets as lane
masks with lanes in keyword-string order, so the rank key's keyword
tuple compares as a lane sequence, and each cost carrying whether it is
a Python float, so a dissimilarity keeps its type.  This module's DP
stays the path for a keyword space wider than one mask, for costs a
double cannot add up as Python does, and under
``REPRO_NO_COMPILED_KERNELS=1``; the ``kernel:dp-rows`` oracle row and
``tests/kernels/test_dp_kernel.py`` hold the two equal.
"""

from __future__ import annotations

from ..errors import RefinementError
from .candidates import RefinedQuery


class BeamMemo(dict):
    """A memo of :func:`get_top_optimal_rqs` beams for one
    ``(query, rules, limit)``: present keyword set -> beam.

    ``mask_rows`` holds the same identity's results in a reader's own
    layout: short-list eager keeps its per-presence-mask DP rows there
    (:class:`~repro.kernels.scoring.MaskRows`, with the identity's
    compiled rule table), keyed by its lane order, in place of beam
    and probe entries of its own.
    """

    __slots__ = ("mask_rows",)

    def __init__(self):
        super().__init__()
        self.mask_rows = {}


class _Partial:
    """A partial refinement: cost so far + kept/generated keywords."""

    __slots__ = ("cost", "keywords", "key")

    def __init__(self, cost, keywords):
        self.cost = cost
        self.keywords = keywords          # tuple, derivation order
        self.key = frozenset(keywords)


def _admit(cell, candidate):
    """Insert a partial into a DP cell, deduplicating by keyword set."""
    existing = cell.get(candidate.key)
    if existing is None or candidate.cost < existing.cost:
        cell[candidate.key] = candidate


def _rank_key(partial):
    # Ascending cost; at equal cost prefer the refinement preserving
    # more keywords (substitution over deletion), then lexicographic
    # keywords for determinism.
    return (partial.cost, -len(partial.keywords), partial.keywords)


def _truncate(cell, beam):
    """Keep the ``beam`` cheapest partials (ties broken by content)."""
    if len(cell) <= beam:
        return cell
    ranked = sorted(cell.values(), key=_rank_key)
    return {partial.key: partial for partial in ranked[:beam]}


def get_top_optimal_rqs(query, available, rules, limit):
    """Top-``limit`` refined queries of ``query`` within ``available``.

    Parameters
    ----------
    query:
        Keyword sequence of the original query ``S``.
    available:
        Set of keywords present in the data region (``T``).
    rules:
        A :class:`~repro.lexicon.rules.RuleSet`.
    limit:
        Beam width / number of candidates returned (the paper's ``2K``).

    Returns
    -------
    list[RefinedQuery]
        Candidates sorted by ascending dissimilarity; empty when no
        non-empty refinement exists (e.g. ``available`` shares nothing
        with the query or the rules).  The first entry is the optimal
        RQ of Section V.
    """
    query = list(query)
    if not query:
        raise RefinementError("cannot refine an empty query")
    if limit < 1:
        raise RefinementError("limit must be >= 1")
    available = set(available)

    # C[i] maps keyword-set -> best partial for prefix S[1..i].
    cells = [dict() for _ in range(len(query) + 1)]
    cells[0][frozenset()] = _Partial(0, ())

    for i in range(1, len(query) + 1):
        keyword = query[i - 1]
        cell = cells[i]

        # Option 1: keep the keyword when it exists in the data.
        if keyword in available:
            for partial in cells[i - 1].values():
                _admit(
                    cell,
                    _Partial(partial.cost, partial.keywords + (keyword,)),
                )

        # Option 2: delete the keyword.
        for partial in cells[i - 1].values():
            _admit(
                cell,
                _Partial(partial.cost + rules.deletion_cost, partial.keywords),
            )

        # Option 3: rules whose LHS ends at position i and matches the
        # query suffix, with every RHS keyword present in the data.
        for rule in rules.rules_ending_with(keyword):
            width = len(rule.lhs)
            if width > i:
                continue
            if tuple(query[i - width : i]) != rule.lhs:
                continue
            if not all(k in available for k in rule.rhs):
                continue
            addition = tuple(
                k for k in rule.rhs  # avoid duplicating kept keywords
            )
            for partial in cells[i - width].values():
                _admit(
                    cell,
                    _Partial(partial.cost + rule.ds, partial.keywords + addition),
                )

        cells[i] = _truncate(cell, max(limit, 1) * 2)

    finals = [
        partial
        for partial in cells[len(query)].values()
        if partial.keywords
    ]
    finals.sort(key=_rank_key)
    seen = set()
    results = []
    for partial in finals:
        if partial.key in seen:
            continue
        seen.add(partial.key)
        # Deduplicate keywords while preserving derivation order.
        ordered = tuple(dict.fromkeys(partial.keywords))
        results.append(RefinedQuery(ordered, partial.cost))
        if len(results) >= limit:
            break
    return results


class MissingKeywordBound:
    """Presence-based lower bound on any local refinement's dissimilarity.

    Every occurrence of a query keyword that is *absent* from the data
    region ``T`` must be either deleted (``rules.deletion_cost``) or
    consumed by a rule whose LHS contains it, so the dissimilarity of
    every refined query derivable within ``T`` is at least the
    cheapest way to handle any single missing keyword — and therefore
    at least the **maximum** over missing keywords of that per-keyword
    minimum (costs add up, but one rule may consume several keywords
    at once, which is why the per-keyword minima cannot be summed).

    The per-keyword handling costs are a pure function of
    ``(query, rules)`` and are computed once; :meth:`lower_bound` is
    then O(missing keywords) with no DP call at all, making it the
    cheap pre-check the partition kernels run before even the 1-beam
    probe of optimization 2.  Because the bound never exceeds the true
    DP minimum, pruning on ``lower_bound(T) > threshold`` (strict,
    like the probe) can never change an answer.
    """

    __slots__ = ("_handle_costs",)

    def __init__(self, query, rules):
        costs = {keyword: rules.deletion_cost for keyword in set(query)}
        for rule in rules:
            for keyword in rule.lhs:
                held = costs.get(keyword)
                if held is not None and rule.ds < held:
                    costs[keyword] = rule.ds
        self._handle_costs = costs

    @property
    def handle_costs(self):
        """Per-query-keyword cost of being absent (read-only view).

        The kernels' :class:`~repro.kernels.bounds.PresenceBoundCache`
        re-indexes these by keyword-space lane to memoize
        :meth:`lower_bound` per presence bitmask.
        """
        return self._handle_costs

    def lower_bound(self, present):
        """Least possible ``dSim`` of any RQ derivable inside ``present``."""
        bound = 0
        for keyword, cost in self._handle_costs.items():
            if keyword not in present and cost > bound:
                bound = cost
        return bound


def get_optimal_rq(query, available, rules):
    """The single optimal RQ (minimum ``dSim``), or ``None``.

    This is the paper's ``getOptimalRQ(S, T)``; the list variant above
    is its Top-2K extension.
    """
    top = get_top_optimal_rqs(query, available, rules, 1)
    return top[0] if top else None


def optimal_dissimilarity(query, available, rules):
    """:func:`get_optimal_rq`'s dissimilarity, ``inf`` when there is
    none: the number the shared 1-beam probe memo holds."""
    top = get_top_optimal_rqs(query, available, rules, 1)
    return top[0].dissimilarity if top else float("inf")


def dissimilarity(query, refined, rules):
    """``dSim(Q, RQ)`` for a *given* refined keyword set (Definition 3.6).

    Runs the same DP restricted so the only keepable/generable keywords
    are those of ``refined``; returns ``None`` when ``refined`` is not
    derivable from ``query`` under ``rules``.
    """
    refined_set = set(refined)
    candidates = get_top_optimal_rqs(
        query, refined_set, rules, limit=64
    )
    for candidate in candidates:
        if candidate.key == frozenset(refined_set):
            return candidate.dissimilarity
    return None
