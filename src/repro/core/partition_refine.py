"""Algorithm 2 — partition-based Top-K query refinement (Section VI-B).

The document is processed as the ordered list of its partitions
(Definition 6.1: the subtrees rooted at the children of the document
root).  The partitions, and every keyword's posting range within each,
come precomputed from the kernel layer's partition tables
(:func:`repro.kernels.partition_view_masked` — binary-search jumps
over the packed key columns, never a per-posting cursor walk, with
each partition's presence mask and posting count precomputed by the
same merge); the set ``T`` of locally present keywords feeds one
``getTopOptimalRQs`` call, candidates pass the vectorized admission
sweep (:func:`repro.kernels.admission_sweep`) before the exact
per-candidate checks, and qualifying candidates are admitted to the
Top-2K :class:`RQSortedList`; their SLCA results are computed *inside
the partition* by the columnar scan-eager kernel (the orthogonality
of Lemma 3).

The three optimizations the paper credits the approach with are all
implemented and observable in :class:`~repro.core.result.ScanStats`:

1. computations whose SLCA would be the (meaningless) document root
   never happen — partitions never produce the root;
2. a partition whose best local candidate cannot beat the current
   2K-th dissimilarity skips both the DP beam *and* the SLCA
   computation (``partitions_skipped``) — the presence pre-check is
   the block-max bound served from a per-mask memo
   (:class:`repro.kernels.PresenceBoundCache`);
3. within a partition, one DP call covers every RQ candidate no matter
   how many matches it has there (``dp_invocations``).
"""

from __future__ import annotations

import time

from ..kernels import (
    HitRecord,
    PresenceBoundCache,
    admission_sweep,
    columns_for,
    partition_view_masked,
    prepare_beam,
)
from ..lexicon.rules import RuleSet
from ..perf.profiling import phase
from .candidates import RQSortedList
from .common import QueryContext, rank_candidates
from .dp import get_top_optimal_rqs
from .result import RefinementResponse, ScanStats


def partition_refine(index, query, rules=None, model=None, k=1,
                     skip_optimization=True, dp_memos=None):
    """Run Algorithm 2; returns the Top-``k`` refined queries.

    Parameters as :func:`~repro.core.stack_refine.stack_refine`, plus
    ``k`` — the number of ranked refined queries wanted.  The working
    candidate list holds ``2k`` entries, as in the paper.
    ``skip_optimization=False`` disables the partition-pruning bound
    (optimization 2 of Section VI-B) for the ablation benchmark.
    ``dp_memos`` is an optional ``(probe_memo, beam_memo)`` pair of
    dicts keyed on the present-keyword frozenset — the DP is a pure
    function of ``(query, present, rules, limit)``, so the planner
    shares them across calls; memoized hits still count in
    ``stats.dp_invocations``.
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
    probe_memo, beam_memo = dp_memos if dp_memos is not None else ({}, {})

    # One lane per distinct keyword (cursors were a dict, so repeated
    # query terms share a single scan), in keyword-space order.
    lanes = list(dict.fromkeys(context.keyword_space))
    with phase("decode"):
        columns = {keyword: columns_for(context.lists[keyword])
                   for keyword in lanes}
    lane_columns = [columns[keyword] for keyword in lanes]
    presence_bound = PresenceBoundCache(context.query, rules, lanes)

    # Presence questions become bitmask arithmetic against the view's
    # per-partition mask: one bit per lane, set-inclusion as AND.
    bit_of_keyword = {
        keyword: 1 << lane for lane, keyword in enumerate(lanes)
    }
    query_mask = 0
    for keyword in query_set:
        query_mask |= bit_of_keyword[keyword]
    present_of_mask = {}  # lane mask -> frozenset of present keywords
    key_masks = {}        # rq key -> lane mask
    prepared_memo = {}    # present frozenset -> PreparedBeam

    def mask_of_key(key):
        cached = key_masks.get(key)
        if cached is None:
            cached = 0
            for keyword in key:
                cached |= bit_of_keyword[keyword]
            key_masks[key] = cached
        return cached

    def build_sublists(spans):
        # getKLPartition, deferred: only partitions that actually run
        # an SLCA pay for the keyword -> (columns, lo, hi) dict.
        built = {}
        for lane, span in enumerate(spans):
            if span is not None:
                built[lanes[lane]] = (
                    lane_columns[lane], span[0], span[1]
                )
        return built

    sorted_list = RQSortedList(capacity=max(2 * k, 2))
    candidate_map = {}  # rq key -> (RefinedQuery, HitRecord)
    needs_refine = True
    original_results = HitRecord(lane_columns)

    # Matches on the document root itself can never yield a meaningful
    # result; they are consumed (and accounted) outside any partition.
    stats.postings_scanned += sum(
        columns[keyword].root_count for keyword in lanes
    )

    with phase("merge"):
        merged_view = partition_view_masked(lane_columns)
    with phase("admit"):
        for _partition_key, spans, mask, postings in merged_view:
            stats.partitions_visited += 1
            stats.postings_scanned += postings
            sublists = None  # keyword -> (ListColumns, lo, hi), on demand

            # Original-query check: Q has all keywords in this partition.
            if query_mask and mask & query_mask == query_mask:
                stats.slca_invocations += 1
                sublists = build_sublists(spans)
                meaningful, count = context.meaningful_hits(
                    [sublists[keyword] for keyword in context.query]
                )
                if count:
                    needs_refine = False
                    original_results.extend(meaningful)

            if not needs_refine:
                continue

            def accumulate_kept(computed_keys):
                """Partition-local results for already-kept candidates.

                A kept candidate's result set accumulates across *every*
                partition containing all its keywords; pruning only decides
                whether new candidates are searched for.  Without this pass
                a partition skipped by the dissimilarity bound (or a kept
                RQ crowded out of the local DP beam by better local
                candidates) silently loses results, diverging from SLE's
                whole-list step 2.
                """
                nonlocal sublists
                for kept in sorted_list.queries():
                    if kept.key in computed_keys or kept.key == query_key:
                        continue
                    kept_mask = mask_of_key(kept.key)
                    if mask & kept_mask != kept_mask:
                        continue
                    stats.slca_invocations += 1
                    if sublists is None:
                        sublists = build_sublists(spans)
                    meaningful, count = context.meaningful_hits(
                        [sublists[keyword] for keyword in kept.keywords]
                    )
                    if count:
                        record = candidate_map.setdefault(
                            kept.key, (kept, HitRecord(lane_columns))
                        )
                        record[1].extend(meaningful)

            # Optimization 2: if even the best possible candidate here
            # cannot enter the Top-2K list, skip DP + SLCA entirely.  The
            # cheap bound is a 1-beam DP; when the full list's threshold is
            # infinite the bound can never prune, so run the beam directly.
            # The bound is strict: at equal dissimilarity a candidate can
            # still displace a kept entry under the deterministic
            # ``(dissimilarity, keyword set)`` admission order, so tie
            # partitions must run the full beam.
            threshold = sorted_list.max_dissimilarity()
            present = present_of_mask.get(mask)
            if present is None:
                present = frozenset(
                    lanes[lane] for lane in range(len(lanes))
                    if mask >> lane & 1
                )
                present_of_mask[mask] = present
            present_key = present
            if skip_optimization and sorted_list.is_full:
                # Presence pre-check: the memoized presence bound needs
                # no DP at all; the strict comparison mirrors the probe's,
                # so pruning here is answer-identical.
                if presence_bound.lower_bound(mask) > threshold:
                    accumulate_kept(frozenset())
                    stats.partitions_skipped += 1
                    continue
                stats.dp_invocations += 1
                probe = probe_memo.get(present_key)
                if probe is None:
                    probe = get_top_optimal_rqs(context.query, present, rules, 1)
                    probe_memo[present_key] = probe
                if not probe or probe[0].dissimilarity > threshold:
                    accumulate_kept(frozenset())
                    stats.partitions_skipped += 1
                    continue

            stats.dp_invocations += 1
            local_candidates = beam_memo.get(present_key)
            if local_candidates is None:
                local_candidates = get_top_optimal_rqs(
                    context.query, present, rules, sorted_list.capacity
                )
                beam_memo[present_key] = local_candidates
            prepared = prepared_memo.get(present_key)
            if prepared is None:
                prepared = prepare_beam(local_candidates)
                prepared_memo[present_key] = prepared
            computed_keys = set()
            # The vectorized admission sweep pre-filters the beam against
            # the list's entry-time threshold; survivors re-run the exact
            # per-candidate admission checks (the threshold only tightens
            # within the loop, so the sweep is a sound superset — see
            # kernels/scoring.py).
            for index_in_beam in admission_sweep(
                prepared, sorted_list, query_key
            ):
                rq = local_candidates[index_in_beam]
                already_kept = sorted_list.has_key(rq.key)
                if not already_kept and not sorted_list.would_admit(rq):
                    continue
                # Compute this RQ's SLCAs within the partition first: only
                # candidates with a *meaningful* match may enter the list.
                stats.slca_invocations += 1
                if sublists is None:
                    sublists = build_sublists(spans)
                meaningful, count = context.meaningful_hits(
                    [sublists[keyword] for keyword in rq.keywords]
                )
                computed_keys.add(rq.key)
                if not count:
                    continue
                if sorted_list.insert(rq) or already_kept:
                    record = candidate_map.setdefault(
                        rq.key, (rq, HitRecord(lane_columns))
                    )
                    record[1].extend(meaningful)
            accumulate_kept(computed_keys)

    # Keep only candidates that survived in the Top-2K list, then apply
    # the full ranking model (line 19).  Pair each key's accumulated
    # results with the *sorted list's* RefinedQuery object: a beam
    # restricted to one partition's keywords can report a higher
    # dissimilarity for the same keyword set than another partition's,
    # and the sorted list holds the minimum seen.
    surviving = {
        rq.key: (rq, candidate_map[rq.key][1])
        for rq in sorted_list.queries()
        if rq.key in candidate_map
    }
    ranked = (
        rank_candidates(context, model, surviving) if needs_refine else []
    )
    if not needs_refine:
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
