"""Algorithm 1 — stack-based query refinement (Section VI-A).

Extends the stack-based SLCA algorithm of [3] over the *extended*
keyword set ``KS = getNewKeywords(Q) + Q``: every stack entry carries a
witness bitmask over KS, and whenever an entry is popped (its subtree
is complete) the algorithm

1. checks whether the popped node is a meaningful SLCA of the original
   query ``Q`` — if so, ``Q`` needs no refinement (Definition 3.4);
2. otherwise invokes ``getOptimalRQ`` on the witnessed keyword subset
   to maintain the refined query with minimum ``dSim(Q, RQ)`` whose
   match is meaningful, resetting the witness bits unique to an emitted
   RQ so ancestors do not re-derive the same result (the "pass the rest
   witness to the parent" rule of lines 18–19).

The scan is the paper's single merged pass over the KS inverted lists
(Theorem 1), over the kernel layer's merged-stream LCP table
(:func:`repro.kernels.merged_lcp`): the stack always holds exactly the
previous posting's components, so the shared-prefix length the stack
maintenance needs is the LCP of adjacent merged labels — an indexed
lookup instead of a per-posting prefix comparison, and a popped node
is named by the previous posting and the stack depth instead of a
stack rebuild.  Because the witness-reset rule is a heuristic about *where*
an RQ's matches end, the final result sets for the winning RQ(s) are
completed with one exact SLCA computation over the already decoded
lists — the candidate discovery itself remains one-scan, and the
chosen optimal RQ is identical either way (the tests assert it
against Algorithm 2).

This is deliberately the paper's *basic* solution: one DP invocation
per popped witness-bearing node makes it the slowest of the three
(Fig. 4's expected shape).
"""

from __future__ import annotations

import time
from array import array

from ..kernels import HitRecord, columns_for, merged_lcp
from ..lexicon.rules import RuleSet
from ..perf.profiling import phase
from .common import QueryContext, rank_candidates
from .dp import get_optimal_rq
from .result import RefinementResponse, ScanStats


class _Entry:
    __slots__ = ("mask", "blocked_q")

    def __init__(self):
        self.mask = 0
        self.blocked_q = False


def stack_refine(index, query, rules=None, model=None, dp_memo=None):
    """Run Algorithm 1; returns a :class:`RefinementResponse` (Top-1).

    Parameters
    ----------
    index:
        A :class:`~repro.index.builder.DocumentIndex`.
    query:
        Keyword sequence or string.
    rules:
        The pertinent :class:`~repro.lexicon.rules.RuleSet`; an empty
        set (deletion only) when omitted.
    model:
        Ranking model used to order tied optimal candidates; the
        engine supplies one, standalone callers may omit it.
    dp_memo:
        Optional dict memoizing ``get_optimal_rq`` per witnessed
        keyword frozenset — a pure function of ``(query, witnessed,
        rules)``, so the planner shares it across calls.  Memo hits
        still count in ``stats.dp_invocations``.
    """
    from .ranking.model import full_model

    rules = rules if rules is not None else RuleSet()
    model = model if model is not None else full_model()
    started = time.perf_counter()

    context = QueryContext(index, query, rules)
    stats = ScanStats()
    stats.lists_opened = len(context.keyword_space)

    keyword_bit = {
        keyword: 1 << position
        for position, keyword in enumerate(context.keyword_space)
    }
    query_mask = 0
    for keyword in context.query:
        query_mask |= keyword_bit.get(keyword, 0)
    query_key = context.query_key()

    # One merge lane per keyword-space entry (a repeated keyword scans
    # its list twice, exactly as the per-keyword cursors did); each
    # lane contributes its keyword's witness bit.
    with phase("decode"):
        lane_columns = [
            columns_for(context.lists[keyword])
            for keyword in context.keyword_space
        ]
    bit_of_lane = [
        keyword_bit[keyword] for keyword in context.keyword_space
    ]

    needs_refine = True
    # The original query's results, as (lane, position, depth) entries.
    original_lanes = array("q")
    original_positions = array("q")
    original_depths = array("q")
    min_dissimilarity = float("inf")
    best = {}  # rq key -> RefinedQuery
    optimal_memo = dp_memo if dp_memo is not None else {}

    stack = []

    def pop_entry(lane, position):
        """Pop the top entry; its node is the ancestor-or-self at the
        stack depth of the previous merged posting — ``position`` of
        lane ``lane`` (the stack always spells out its components) —
        and that posting types it."""
        nonlocal needs_refine, min_dissimilarity
        depth = len(stack)
        entry = stack.pop()
        propagate = entry.mask
        if entry.blocked_q:
            if stack:
                stack[-1].blocked_q = True
        elif entry.mask & query_mask == query_mask and query_mask:
            # Popped node is an SLCA of the original query.
            if context.is_meaningful_at(
                lane_columns[lane], position, depth
            ):
                needs_refine = False
                original_lanes.append(lane)
                original_positions.append(position)
                original_depths.append(depth)
            if stack:
                stack[-1].blocked_q = True
            propagate = 0  # line 12: reset all witness entries
        elif needs_refine and entry.mask:
            witnessed = frozenset(
                keyword
                for keyword, bit in keyword_bit.items()
                if entry.mask & bit
            )
            stats.dp_invocations += 1
            if witnessed in optimal_memo:
                optimal = optimal_memo[witnessed]
            else:
                optimal = get_optimal_rq(context.query, witnessed, rules)
                optimal_memo[witnessed] = optimal
            if (
                optimal is not None
                and optimal.key != query_key
                and optimal.dissimilarity <= min_dissimilarity
            ):
                if context.is_meaningful_at(
                    lane_columns[lane], position, depth
                ):
                    if optimal.dissimilarity < min_dissimilarity:
                        min_dissimilarity = optimal.dissimilarity
                        best.clear()
                    best.setdefault(optimal.key, optimal)
                    # Deviation from the paper's lines 18-19: the
                    # witness bits are NOT reset.  Resetting the bits
                    # "unique to this RQ" can consume a witness that
                    # would have combined into a strictly better RQ at
                    # an ancestor (e.g. a lone acronym match emitted as
                    # a one-keyword RQ steals its bit from the
                    # inproceedings node above it), breaking Theorem
                    # 1's optimality.  Duplicate ancestor derivations
                    # the reset was meant to avoid are harmless here
                    # because the final result sets are completed by an
                    # exact SLCA pass below.
        if stack:
            stack[-1].mask |= propagate
            stack[-1].blocked_q = stack[-1].blocked_q or entry.blocked_q

    # ------------------------------------------------------------------
    # Merged single scan over the precomputed (lane, LCP) stream.  The
    # LCP table gives each posting's shared depth with the previous
    # one — which *is* the stack's surviving prefix — so stack
    # maintenance needs no component comparisons at all.
    # ------------------------------------------------------------------
    with phase("merge"):
        lanes, lcps = merged_lcp(lane_columns)
    positions = [0] * len(lane_columns)
    lane_offs = [column.flat_offs()[1] for column in lane_columns]
    previous_lane = 0
    previous_position = 0
    with phase("admit"):
        for lane, shared in zip(lanes, lcps):
            position = positions[lane]
            offs = lane_offs[lane]
            positions[lane] = position + 1
            stats.postings_scanned += 1
            while len(stack) > shared:
                pop_entry(previous_lane, previous_position)
            for _ in range(shared, offs[position + 1] - offs[position]):
                stack.append(_Entry())
            stack[-1].mask |= bit_of_lane[lane]
            previous_lane = lane
            previous_position = position

        while stack:
            pop_entry(previous_lane, previous_position)

    # ------------------------------------------------------------------
    # Finalize: complete exact result sets for the winning RQs.
    # ------------------------------------------------------------------
    refinements = []
    if needs_refine and best:
        candidate_map = {}
        with phase("merge"):
            for key, rq in best.items():
                stats.slca_invocations += 1
                columns = [
                    columns_for(context.index.inverted_list(k))
                    for k in rq.keywords
                ]
                meaningful, count = context.meaningful_hits(
                    [(column, 0, column.size) for column in columns]
                )
                if count:
                    candidate_map[key] = (rq, meaningful)
        refinements = rank_candidates(context, model, candidate_map)
    original_results = []
    if not needs_refine:
        # Popped in post-order: put them in document order.
        original_results = HitRecord(
            lane_columns, original_positions, original_depths,
            original_lanes,
        ).ordered()

    stats.elapsed_seconds = time.perf_counter() - started
    return RefinementResponse(
        query=context.query,
        needs_refinement=needs_refine,
        original_results=original_results,
        refinements=refinements,
        search_for=context.search_for,
        stats=stats,
    )
