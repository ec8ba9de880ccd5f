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
any refined query over the partition's present keywords can reach,
memoized per presence mask — a WAND-style skip that rejects hopeless
partitions from their masks alone.

Most of what step 1 decides about a partition depends only on *which*
keywords it holds, and documents have far fewer distinct presence masks
than partitions.  On the batch-presence path an evaluation that touched
no posting and changed nothing is remembered per mask; a kernel walk
(:func:`~repro.kernels.sle_advance`) passes over visited partitions,
counts the repeats of remembered masks, and stops only at a mask that
needs deciding, and the repeats are settled into the statistics
arithmetically.  Once ``Q`` has an answer, one kernel call
(:func:`~repro.kernels.sle_direct`) runs the SLCA of every remaining
partition that holds all of ``Q``.  So the Python cost of step 1 is
per decision, not per partition — with every ``ScanStats`` counter
exactly what the plain loop would report.

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
    HitRecord,
    MaskMemo,
    PresenceBoundCache,
    admission_sweep,
    columns_for,
    partition_presence,
    prepare_beam,
    presence_ready,
    sle_advance,
    sle_direct,
)
from ..lexicon.rules import RuleSet
from ..perf.profiling import phase
from .candidates import RQSortedList
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
    same pure DP over the remaining-keyword set.
    """
    from .ranking.model import full_model

    rules = rules if rules is not None else RuleSet()
    model = model if model is not None else full_model()
    started = time.perf_counter()

    context = QueryContext(index, query, rules)
    stats = ScanStats()
    stats.lists_opened = len(context.keyword_space)
    query_key = context.query_key()
    query_set = set(context.query)

    # One column set per distinct keyword; lane order indexes the
    # presence bitmasks fed to the presence bound.
    lanes = list(dict.fromkeys(context.keyword_space))
    lane_of = {keyword: lane for lane, keyword in enumerate(lanes)}
    with phase("decode"):
        columns = {keyword: columns_for(context.lists[keyword])
                   for keyword in lanes}
    remaining = {
        keyword
        for keyword in context.keyword_space
        if len(context.lists[keyword]) > 0
    }

    sorted_list = RQSortedList(capacity=max(2 * k, 2))
    needs_refine = True
    probe_memo, beam_memo = dp_memos if dp_memos is not None else ({}, {})
    presence_bound = PresenceBoundCache(context.query, rules, lanes)
    lane_columns = [columns[keyword] for keyword in lanes]
    original_results = HitRecord(lane_columns)
    query_lane_mask = 0
    query_covered = bool(query_set)
    for keyword in query_set:
        lane = lane_of.get(keyword)
        if lane is None:
            query_covered = False
        else:
            query_lane_mask |= 1 << lane

    def probe_minimum(available):
        """Memoized 1-beam DP: the least dSim achievable in ``available``."""
        key = frozenset(available)
        probe = probe_memo.get(key)
        if probe is None:
            probe = get_top_optimal_rqs(context.query, available, rules, 1)
            probe_memo[key] = probe
        return probe[0].dissimilarity if probe else float("inf")

    rhs_keywords = rules.generated_keywords()
    lhs_keywords = set()
    for rule in rules:
        lhs_keywords.update(rule.lhs)

    # Batch presence: the whole probe phase of an anchor round is one
    # merge-join over the lanes' flat partition tables, while a presence
    # mask (one int64) holds every lane; a wider keyword space probes
    # each partition's lanes one table lookup at a time.
    batch_ready = presence_ready(lane_columns)
    nlanes = len(lanes)
    present_of_mask = {}  # lane mask -> frozenset of present keywords
    prepared_memo = {}    # present frozenset -> PreparedBeam

    def present_for(mask):
        cached = present_of_mask.get(mask)
        if cached is None:
            cached = frozenset(
                lanes[lane] for lane in range(nlanes) if mask >> lane & 1
            )
            present_of_mask[mask] = cached
        return cached

    def build_row_sublists(spans_flat, base):
        built = {}
        for lane in range(nlanes):
            lo = spans_flat[base + 2 * lane]
            if lo >= 0:
                built[lanes[lane]] = (
                    lane_columns[lane], lo, spans_flat[base + 2 * lane + 1]
                )
        return built

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

    def examine(pindex, partition_id, mask):
        """Step 1 for one partition: screen, probe, DP, admission.

        ``mask`` is the partition's exact presence mask from the batch
        merge-join, or ``None`` when the keyword space is too wide for
        one: the lanes' partition tables are then looked up here.
        Apart from the two partition-local ``slca_hits`` calls — a
        Q-covering mask, or a not-yet-kept candidate that
        ``would_admit`` — everything decided here is a function of
        ``mask``, ``needs_refine`` and the contents of ``sorted_list``;
        the caller's per-mask memo rests on that.
        """
        nonlocal needs_refine
        sublists = None  # keyword -> (ListColumns, lo, hi)
        if mask is None:
            sublists = {}
            mask = 0
            for lane, keyword in enumerate(lanes):
                span = columns[keyword].pid_range.get(partition_id)
                if span is not None:
                    sublists[keyword] = (columns[keyword],) + span
                    mask |= 1 << lane
        # Pre-screen from the presence mask, before any probe is
        # counted: a partition that holds every query keyword is never
        # pre-screened, so original-result discovery sees every one.
        if sorted_list.is_full or not needs_refine:
            query_may = query_covered and (
                mask & query_lane_mask == query_lane_mask
            )
            if not needs_refine:
                # Only original results remain; a partition that
                # cannot hold all of Q's keywords has nothing left to
                # offer.
                if not query_may:
                    stats.partitions_skipped += 1
                    return
            elif (
                not query_may
                and presence_bound.lower_bound(mask)
                > sorted_list.max_dissimilarity()
            ):
                stats.partitions_skipped += 1
                return
        # The random-access probes of every other keyword list: one
        # partition-table lookup each, no posting is touched.
        stats.probes += probes_per_partition

        if query_covered and mask & query_lane_mask == query_lane_mask:
            stats.slca_invocations += 1
            if sublists is None:
                sublists = build_row_sublists(
                    spans_flat, pindex * nlanes * 2
                )
            meaningful, count = context.meaningful_hits(
                [sublists[keyword] for keyword in context.query]
            )
            if count:
                needs_refine = False
                original_results.extend(meaningful)
        if not needs_refine:
            return

        # Per-partition skip bound (mirrors Partition's
        # optimization 2): once the Top-2K list is full, a
        # partition whose cheapest derivable RQ provably exceeds
        # the worst kept dissimilarity cannot change the list —
        # new keys lose under the content order, and re-offers of
        # kept keys at a worse dSim never mutate it.  The
        # mask-memoized presence bound runs first (no DP at all);
        # both comparisons are strict, so skipping is
        # answer-identical.
        if sorted_list.is_full:
            threshold = sorted_list.max_dissimilarity()
            if presence_bound.lower_bound(mask) > threshold:
                stats.partitions_skipped += 1
                return
            stats.dp_invocations += 1
            if probe_minimum(present_for(mask)) > threshold:
                stats.partitions_skipped += 1
                return

        stats.dp_invocations += 1
        present_key = present_for(mask)
        local_candidates = beam_memo.get(present_key)
        if local_candidates is None:
            local_candidates = get_top_optimal_rqs(
                context.query, present_key, rules,
                sorted_list.capacity
            )
            beam_memo[present_key] = local_candidates
        prepared = prepared_memo.get(present_key)
        if prepared is None:
            prepared = prepare_beam(local_candidates)
            prepared_memo[present_key] = prepared
        # Vectorized admission sweep, then the exact per-candidate
        # re-check on survivors (see kernels/scoring.py for why the
        # superset pre-filter is answer- and stats-identical).
        for index_in_beam in admission_sweep(
            prepared, sorted_list, query_key
        ):
            rq = local_candidates[index_in_beam]
            already_kept = sorted_list.has_key(rq.key)
            if not already_kept and not sorted_list.would_admit(rq):
                continue
            if not already_kept:
                # Issue 2: a candidate may only occupy a Top-2K slot
                # when it is assured a *meaningful* match; a cheap
                # partition-local SLCA check (over the already
                # probed ranges) prevents meaningless candidates
                # from evicting real ones.  Full result sets are
                # still deferred to step 2.
                stats.slca_invocations += 1
                if sublists is None:
                    sublists = build_row_sublists(
                        spans_flat, pindex * nlanes * 2
                    )
                if not context.any_meaningful_hit(
                    [sublists[keyword] for keyword in rq.keywords]
                ):
                    continue
            sorted_list.insert(rq)

    # Per-mask memo of the batch path.  An evaluation that ran no
    # partition-local SLCA and left ``sorted_list`` and ``needs_refine``
    # as it found them would repeat itself, counter for counter, on the
    # next partition with the same mask: remember its counter deltas,
    # let the walk count the repeats, and settle them into ``stats``
    # when the state they were computed against ends.
    memo = MaskMemo()
    retired = 0  # lanes of the anchors whose batch rounds are done
    visited_partitions = set()  # the wide keyword space's

    def settle_repeats():
        for times, (skipped, probes, dp_invocations) in memo.drain():
            stats.partitions_skipped += times * skipped
            stats.probes += times * probes
            stats.dp_invocations += times * dp_invocations

    def probes_for(anchor):
        # The sequential loop counted one probe per keyword-space entry
        # (duplicates included) that differs from the anchor, for every
        # partition that passed the pre-screen.
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
                    + (lane_of[keyword], probes_for(keyword))
                )
        hits, counts = sle_direct(
            rounds, start, retired,
            [lane_of[keyword] for keyword in context.query],
            query_lane_mask, lane_columns, context.need,
        )
        stats.slca_invocations += counts[0]
        stats.probes += counts[1]
        stats.partitions_skipped += counts[2]
        stats.partitions_visited += counts[3]
        original_results.extend(hits)

    # ------------------------------------------------------------------
    # Step 1: explore Top-2K candidates.
    # ------------------------------------------------------------------
    with phase("admit"):
        while remaining:
            anchor_keyword = choose_keyword()
            remaining.discard(anchor_keyword)
            anchor_columns = columns[anchor_keyword]
            probes_per_partition = probes_for(anchor_keyword)
            if not batch_ready:
                for partition_id in anchor_columns.pids:
                    if partition_id not in visited_partitions:
                        visited_partitions.add(partition_id)
                        examine(None, partition_id, None)
            else:
                # The whole round's probe phase at once: per anchor
                # partition, the presence mask and every lane's posting
                # span, from one merge-join (compiled when the backend is).
                with phase("merge"):
                    masks, spans_flat = partition_presence(
                        anchor_columns, lane_columns
                    )
                anchor_lane = lane_of[anchor_keyword]
                # The walk stops only where there is a decision to make:
                # at an unvisited partition whose mask the memo lacks.
                position = sle_advance(masks, 0, retired, memo)
                while position < len(masks):
                    mask = masks[position]
                    state = (sorted_list.mutations, needs_refine)
                    skipped = stats.partitions_skipped
                    probes = stats.probes
                    dp_invocations = stats.dp_invocations
                    slca_invocations = stats.slca_invocations
                    examine(position, None, mask)
                    if not needs_refine:
                        finish_directly(
                            (masks, spans_flat, anchor_lane,
                             probes_per_partition),
                            position + 1,
                        )
                        break
                    if state != (sorted_list.mutations, needs_refine):
                        settle_repeats()
                    elif slca_invocations == stats.slca_invocations:
                        memo.remember(mask, (
                            stats.partitions_skipped - skipped,
                            stats.probes - probes,
                            stats.dp_invocations - dp_invocations,
                        ))
                    position = sle_advance(masks, position + 1, retired, memo)
                # probes_per_partition is the round's: settle before it moves.
                settle_repeats()
                retired |= 1 << anchor_lane

            if not needs_refine:
                # Q's SLCAs may still exist in partitions only reachable
                # through other keywords; keep iterating only over lists of
                # Q's own keywords to complete the original results.
                remaining.intersection_update(query_set)
                continue

            # Stop condition: C_potential over the remaining keywords,
            # seeded against the best (tightest) Top-2K threshold carried
            # across anchor rounds.  Shares the 1-beam probe memo — the
            # same pure DP over a different keyword set.
            if sorted_list.is_full and remaining:
                stats.dp_invocations += 1
                if probe_minimum(remaining) > sorted_list.max_dissimilarity():
                    break

    stats.partitions_visited += memo.visited + len(visited_partitions)

    # ------------------------------------------------------------------
    # Step 2: SLCA computation for the kept candidates only.
    # ------------------------------------------------------------------
    ranked = []
    if needs_refine:
        candidate_map = {}
        with phase("merge"):
            for rq in sorted_list.queries():
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
