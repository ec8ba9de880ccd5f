"""Algorithm 3 — short-list eager (SLE) Top-K refinement (Section VI-C).

Keyword frequencies vary wildly in practice, so SLE explores candidate
refined queries starting from the keyword with the **shortest**
inverted list: every partition containing that keyword is examined
(the other lists are only *probed* by random access — per-partition
range lookups in the kernel layer's partition tables, which never
touch a posting), the local DP proposes candidates, and the processed
list is then retired.  After each iteration the *potential* minimum
dissimilarity ``C_potential`` of any refined query over the remaining
keywords is computed; once the candidate list is full and
``C_potential`` exceeds its worst kept dissimilarity, no unexplored
candidate can qualify and exploration stops — often without ever
touching the long lists (step 1, lines 4–16).  Before ``C_potential``
even runs, a visited partition is pre-screened by the presence bound
(:class:`repro.kernels.PresenceBoundCache`): the least dissimilarity
any refined query over the partition's present keywords can reach — a
WAND-style skip that rejects hopeless partitions from their masks
alone.

Step 1 runs one kernel call per anchor round
(:func:`~repro.kernels.sle_round`): over the round's presence columns
it makes, for every partition an earlier round did not visit, the
pre-screen, the partition-local SLCA of a partition holding all of
``Q``, the probe-minimum skip and the Top-2K admission of the DP beam
(each new candidate checked for a meaningful partition-local match,
"Issue 2"), with every ``ScanStats`` counter exactly what the plain
per-partition loop reported.  The kernel reads the DP's results as
rows per presence mask, computes a row it lacks itself — Section V's
DP compiled over the query's rule table
(:class:`~repro.kernels.scoring.RuleTable`) — and returns to Python
only to grow the rows; a query leaves the rows it grew in the beam
memo for the next query of the same identity.  The ``C_potential``
probe runs the same compiled DP.  Under the pure-Python backend, or
for a keyword space wider than one presence mask, the round's twin
asks :func:`~repro.core.dp.get_top_optimal_rqs` through the memos
instead.  Once ``Q`` has an
answer, one kernel call (:func:`~repro.kernels.sle_direct`) runs the
SLCA of every remaining partition that holds all of ``Q``.

Step 2 then computes SLCA results only for the kept candidates, using
any existing SLCA method (the columnar scan-eager kernel here; the
orthogonality of the paper's discussion holds).  The kernel keeps the
meaningful results as column entries (a
:class:`~repro.kernels.hits.HitRecord`); ranking reads only their
counts, and a result is labelled only when the response is encoded or
read.  This back-loaded SLCA
work is exactly why SLE degrades faster than Partition as K grows
(Fig. 5a).

The per-iteration keyword choice implements the paper's "smarter
choice": prefer keywords that need no refinement (they appear both in
``Q`` and the data) or that rules generate (RHS keywords), breaking
ties by shortest list.
"""

from __future__ import annotations

import time

from ..kernels import (
    PresenceBoundCache,
    RoundState,
    columns_for,
    partition_presence,
    sle_direct,
    sle_round,
)
from ..lexicon.rules import RuleSet
from ..perf.profiling import phase
from .common import QueryContext, rank_candidates
from .dp import get_top_optimal_rqs
from .result import RefinementResponse, ScanStats


def short_list_eager(index, query, rules=None, model=None, k=1,
                     smart_choice=True, dp_memos=None):
    """Run Algorithm 3; returns the Top-``k`` refined queries.

    ``smart_choice=False`` falls back to the plain shortest-list
    ordering (no preference for refinement-free / rule-generated
    keywords), for the ablation benchmark of the Section VI-C
    discussion.  ``dp_memos`` is the planner's optional
    ``(probe_memo, beam_memo)`` pair (see
    :func:`~repro.core.partition_refine.partition_refine`); the
    ``C_potential`` probes share the 1-beam memo, since they are the
    same pure DP over the remaining-keyword set.  When the beam memo is
    a :class:`~repro.core.dp.BeamMemo`, step 1 starts from the per-mask
    rows an earlier query left in it, and leaves the rows it grew.
    """
    from .ranking.model import full_model

    rules = rules if rules is not None else RuleSet()
    model = model if model is not None else full_model()
    started = time.perf_counter()

    context = QueryContext(index, query, rules)
    stats = ScanStats()
    stats.lists_opened = len(context.keyword_space)
    query_set = set(context.query)

    # One column set per distinct keyword.  Lanes are in keyword-string
    # order, so a lane mask compares like the sorted keyword tuple.
    lanes = tuple(sorted(set(context.keyword_space)))
    with phase("decode"):
        columns = {keyword: columns_for(context.lists[keyword])
                   for keyword in lanes}
    remaining = {
        keyword
        for keyword in context.keyword_space
        if len(context.lists[keyword]) > 0
    }

    capacity = max(2 * k, 2)
    probe_memo, beam_memo = dp_memos if dp_memos is not None else ({}, {})
    lane_columns = [columns[keyword] for keyword in lanes]
    # The DP rows the kernel reads, as an earlier query of this memo
    # identity left them (see repro.core.dp.BeamMemo).
    published = getattr(beam_memo, "mask_rows", None)
    walk = RoundState(
        capacity, lanes, lane_columns, context.query,
        PresenceBoundCache(context.query, rules, lanes), context.need,
        rows=published.get(lanes) if published is not None else None,
        rules=rules,
    )

    def probe_minimum(available):
        """Memoized 1-beam DP: the least dSim achievable in ``available``
        (the compiled DP when it can run it)."""
        key = frozenset(available)
        probe = probe_memo.get(key)
        if probe is None:
            probe = probe_memo[key] = walk.optimal_rqs(key, 1)
        return probe[0].dissimilarity if probe else float("inf")

    def dp(mask, beam):
        """The DP result the pure-Python round asks for: the Top-2K
        beam of the keywords ``mask`` holds when ``beam``, else their
        probe minimum.  A result the memos hold is reused; a new one is
        kept by the walk's rows alone, which are the memo of per-mask
        results (published, they outlive the query)."""
        present = frozenset(lanes[lane] for lane in walk.lanes_in(mask))
        if not beam:
            probe = probe_memo.get(present)
            if probe is None:
                probe = get_top_optimal_rqs(context.query, present, rules, 1)
            return probe[0].dissimilarity if probe else float("inf")
        candidates = beam_memo.get(present)
        if candidates is None:
            candidates = get_top_optimal_rqs(
                context.query, present, rules, capacity
            )
        return candidates

    rhs_keywords = rules.generated_keywords()
    lhs_keywords = set()
    for rule in rules:
        lhs_keywords.update(rule.lhs)

    def choose_keyword():
        """The paper's smart choice of the next keyword to anchor on.

        Prefer a keyword that "either appears in the RHS of refinement
        rules related to Q or never appears in the LHS of any rule
        related to Q (i.e. does not need any refinement)", breaking
        ties by shortest inverted list.  With ``smart_choice`` off,
        pure shortest-list order is used.
        """
        def sort_key(keyword):
            preferred = (
                keyword in rhs_keywords or keyword not in lhs_keywords
            )
            rank = 0 if (preferred or not smart_choice) else 1
            return (rank, len(context.lists[keyword]), keyword)

        return min(remaining, key=sort_key)

    def probes_for(anchor):
        # One probe per keyword-space entry (duplicates included) that
        # differs from the anchor, for every partition that passes the
        # pre-screen.
        return sum(1 for keyword in context.keyword_space if keyword != anchor)

    def finish_directly(current_round, start):
        """Q has an answer: what is left of step 1 — the rest of this
        round, then every round of Q's remaining keywords — is the
        SLCA of each unvisited partition holding all of Q, in one
        kernel call."""
        remaining.intersection_update(query_set)
        rounds = [current_round]
        while remaining:
            keyword = choose_keyword()
            remaining.discard(keyword)
            with phase("merge"):
                rounds.append(
                    partition_presence(columns[keyword], lane_columns)
                    + (walk.lane_of[keyword], probes_for(keyword))
                )
        hits, counts = sle_direct(
            rounds, start, retired, walk.query_lanes, walk.query_mask,
            lane_columns, context.need,
        )
        stats.slca_invocations += counts[0]
        stats.probes += counts[1]
        stats.partitions_skipped += counts[2]
        stats.partitions_visited += counts[3]
        return hits

    # ------------------------------------------------------------------
    # Step 1: explore Top-2K candidates, one kernel round per anchor.
    # ------------------------------------------------------------------
    needs_refine = True
    original_results = None
    retired = 0  # lanes of the anchors whose rounds are done
    with phase("admit"):
        while remaining:
            anchor_keyword = choose_keyword()
            remaining.discard(anchor_keyword)
            probes_per_partition = probes_for(anchor_keyword)
            with phase("merge"):
                masks, spans = partition_presence(
                    columns[anchor_keyword], lane_columns
                )
            anchor_lane = walk.lane_of[anchor_keyword]
            position = sle_round(
                walk, masks, spans, retired, probes_per_partition, dp
            )
            if position < len(masks):
                # Q's SLCA has meaningful hits there: Q needs no
                # refinement, and the rest of step 1 is Q's own SLCAs.
                needs_refine = False
                original_results = finish_directly(
                    (masks, spans, anchor_lane, probes_per_partition),
                    position,
                )
                break
            retired |= 1 << anchor_lane

            # Stop condition: C_potential over the remaining keywords,
            # seeded against the best (tightest) Top-2K threshold carried
            # across anchor rounds.  Shares the 1-beam probe memo — the
            # same pure DP over a different keyword set.
            if walk.is_full and remaining:
                stats.dp_invocations += 1
                if probe_minimum(remaining) > walk.worst():
                    break

    if walk.grown and published is not None:
        published[lanes] = walk.rows.trim()
    probes, dp_invocations, slca_invocations, skipped, visited = (
        walk.counters()
    )
    stats.probes += probes
    stats.dp_invocations += dp_invocations
    stats.slca_invocations += slca_invocations
    stats.partitions_skipped += skipped
    stats.partitions_visited += visited

    # ------------------------------------------------------------------
    # Step 2: SLCA computation for the kept candidates only.
    # ------------------------------------------------------------------
    ranked = []
    if needs_refine:
        candidate_map = {}
        with phase("merge"):
            for rq in walk.kept():
                whole_lists = [
                    (columns[keyword], 0, columns[keyword].size)
                    for keyword in rq.keywords
                ]
                stats.slca_invocations += 1
                meaningful, count = context.meaningful_hits(whole_lists)
                if count:
                    candidate_map[rq.key] = (rq, meaningful)
        ranked = rank_candidates(context, model, candidate_map)
    else:
        # Partitions were visited in anchor-round order: put the
        # results in document order (and each once) on the arrays.
        original_results = original_results.ordered()

    stats.elapsed_seconds = time.perf_counter() - started
    return RefinementResponse(
        query=context.query,
        needs_refinement=needs_refine,
        original_results=original_results if not needs_refine else [],
        refinements=ranked[:k],
        candidates=ranked,
        search_for=context.search_for,
        stats=stats,
    )
