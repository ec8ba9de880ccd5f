"""Vectorized Top-2K candidate selection (the batch scoring kernels).

The refinement hot path spends its time in two per-candidate /
per-partition Python loops: the short-list route's random-access
probes (one ``pid_range`` dict hit per lane per partition) and the
Top-2K admission pre-checks (``has_key`` / ``would_admit`` per beam
candidate per partition).  This module batches both:

* :func:`partition_presence` — one merge-join over flat partition
  tables (compiled when the backend is) producing every anchor
  partition's presence mask and per-lane posting span at once: the
  whole probe phase of the short-list route as two columns.
* :func:`sle_advance` / :func:`sle_direct` — the short-list route's
  walk over those columns: to the next partition whose mask needs a
  decision (repeats of memoized masks are only counted), and, once
  ``Q`` has an answer, every remaining partition's SLCA and
  Definition 3.3 test in one pass.
* :func:`prepare_beam` / :func:`admission_sweep` — the memoized DP
  beam's ``(dissimilarity, content order)`` admission columns,
  compared against the :class:`~repro.core.candidates.RQSortedList`
  bound in a single threshold sweep.  Ties must resolve in content
  order (the sorted keyword tuple), exactly the list's own total
  order, so the sweep is a *superset* pre-filter: a candidate it
  passes is re-checked by ``insert`` itself, and one it rejects could
  never have been admitted (the threshold only tightens as the loop
  runs) — pruning is answer- and stats-identical.

It also keeps :func:`score_table` / :func:`batch_similarity` /
:func:`batch_dependence`, the names the wire benchmark times the
final ranking by; each delegates to the ranking model's formulas and
the index's score memo (:mod:`repro.core.ranking.memo`), the one
implementation of Formulas 2–9.

Everything here follows the kernel contract: pure-Python semantics
are the reference, and the compiled path is a speedup behind
``REPRO_NO_COMPILED_KERNELS=1``.
"""

from __future__ import annotations

from array import array

from . import backend
from .hits import HitRecord
from .slca import slca_hits

#: Lanes one presence mask holds: a mask is one ``int64`` (lane 63 is
#: the sign bit), on either backend.
PRESENCE_MASK_LANES = 64


# ----------------------------------------------------------------------
# Batch partition presence (the short-list probe phase)
# ----------------------------------------------------------------------
def presence_ready(lane_columns):
    """True when the lanes fit one presence mask
    (:data:`PRESENCE_MASK_LANES`)."""
    return len(lane_columns) <= PRESENCE_MASK_LANES


def _int64(mask):
    """A lane bitmask as the signed ``int64`` it is in a mask column:
    lane 63 is the sign bit."""
    return mask - (1 << 64) if mask >= 1 << 63 else mask


def partition_presence(anchor_columns, lane_columns):
    """``(masks, spans)`` for every partition of the anchor column.

    ``masks[i]`` sets bit ``lane`` when ``lane_columns[lane]`` has
    postings in the anchor's ``i``-th partition; ``spans[(i * nlanes +
    lane) * 2]`` / ``+ 1`` hold that lane's ``(lo, hi)`` posting range
    (``-1`` when absent).  Exactly the masks and spans the per-pid
    ``pid_range`` probes produced, in one merge-join over the sorted
    partition tables.  Both are ``array('q')`` on either backend, so a
    mask holds at most :data:`PRESENCE_MASK_LANES` lanes.
    """
    npart = len(anchor_columns.starts)
    nlanes = len(lane_columns)
    if nlanes > PRESENCE_MASK_LANES:
        raise ValueError(
            f"a presence mask holds {PRESENCE_MASK_LANES} lanes, "
            f"not {nlanes}"
        )

    lib = backend.compiled
    if lib is not None and nlanes and npart:
        masks = array("q", bytes(8 * npart))
        spans = array("q", bytes(16 * npart * nlanes))
        # Each column's three casts are memoized on the column; the
        # pointer tables go in as lists, which cffi converts in the call.
        tables = [backend.pid_handles(lib, column) for column in lane_columns]
        lib.lib.repro_partition_presence(
            backend.pid_handles(lib, anchor_columns)[0], npart,
            [table[0] for table in tables],
            [table[1] for table in tables],
            [table[2] for table in tables],
            [len(column.starts) for column in lane_columns], nlanes,
            lib.i64(masks), lib.i64(spans),
        )
        return masks, spans

    a_pids = anchor_columns.pids
    masks = array("q", bytes(8 * npart))
    spans = array("q", [-1]) * (2 * npart * nlanes)
    for lane, column in enumerate(lane_columns):
        pids = column.pids
        starts = column.starts
        ends = column.ends
        bit = _int64(1 << lane)
        ai = 0
        li = 0
        na = npart
        nl = len(pids)
        while ai < na and li < nl:
            a = a_pids[ai]
            l = pids[li]
            if a < l:
                ai += 1
            elif l < a:
                li += 1
            else:
                masks[ai] |= bit
                base = (ai * nlanes + lane) * 2
                spans[base] = starts[li]
                spans[base + 1] = ends[li]
                ai += 1
                li += 1
    return masks, spans


# ----------------------------------------------------------------------
# Short-list step 1: the anchor-round walk and the direct-hit finish
# ----------------------------------------------------------------------
class MaskMemo:
    """Short-list step 1's per-mask memo, as the table :func:`sle_advance`
    reads.

    ``table[0]`` counts the partitions the walk has visited.  Entry
    ``j`` is ``table[1 + 2 * j]``, a presence mask whose evaluation
    under the current list state touched no posting and changed
    nothing, and ``table[2 + 2 * j]``, the partitions with that mask the
    walk has passed since; ``deltas[j]`` is what the caller recorded
    with it.  At most ``CAPACITY`` entries: a mask past that is
    evaluated every time, which costs time and nothing else.
    """

    CAPACITY = 64

    __slots__ = ("table", "deltas", "slot_of", "_c")

    def __init__(self):
        self.table = array("q", bytes(8 * (1 + 2 * self.CAPACITY)))
        self.deltas = []
        #: mask -> entry, for the pure-Python walk.
        self.slot_of = {}
        #: ``(lib, table pointer, masks, masks pointer)`` of the last
        #: compiled walk.
        self._c = None

    @property
    def visited(self):
        return self.table[0]

    def remember(self, mask, deltas):
        slot = len(self.deltas)
        if slot < self.CAPACITY:
            self.table[1 + 2 * slot] = mask
            self.table[2 + 2 * slot] = 0
            self.deltas.append(deltas)
            self.slot_of[mask] = slot

    def drain(self):
        """``[(repeats, deltas), ...]`` of every entry, which are then
        forgotten."""
        table = self.table
        drained = [
            (table[2 + 2 * slot], deltas)
            for slot, deltas in enumerate(self.deltas)
        ]
        self.deltas = []
        self.slot_of.clear()
        return drained


def sle_advance(masks, start, retired, memo):
    """The next partition of an anchor round that needs a decision.

    Walks ``masks`` (one anchor round's, from
    :func:`partition_presence`) from ``start``.  A partition whose mask
    has a bit of ``retired`` — the lanes of earlier rounds' anchors —
    was visited before: every round visits every partition of its
    anchor, and a partition holds an earlier anchor's keyword exactly
    when that anchor visited it.  Every other partition is counted as
    visited in ``memo``, and one whose mask ``memo`` holds is counted as
    that entry's repeat.  Returns the first partition whose mask is new,
    or ``len(masks)``.
    """
    lib = backend.compiled
    if lib is None:
        return _advance_python(masks, start, retired, memo)
    cached = memo._c
    if cached is None or cached[0] is not lib or cached[2] is not masks:
        cached = memo._c = (lib, lib.i64(memo.table), masks, lib.i64(masks))
    return lib.lib.repro_sle_advance(
        cached[3], len(masks), start, _int64(retired), cached[1],
        len(memo.deltas),
    )


def _advance_python(masks, start, retired, memo):
    """Pure-Python twin of ``repro_sle_advance``."""
    table = memo.table
    slot_of = memo.slot_of
    count = len(masks)
    visited = 0
    position = start
    while position < count:
        mask = masks[position]
        if not mask & retired:
            visited += 1
            slot = slot_of.get(mask)
            if slot is None:
                break
            table[2 + 2 * slot] += 1
        position += 1
    table[0] += visited
    return position


#: Kept hits a direct finish first makes room for.
_DIRECT_HITS = 64


def sle_direct(rounds, start, retired, query_lanes, query_mask, lane_columns,
           need):
    """Short-list step 1 once the query ``Q`` has an answer.

    ``rounds`` lists ``(masks, spans, anchor_lane, probes_per_partition)``
    per anchor round (see :func:`partition_presence`): the round under
    way, from partition ``start``, then every later round.  ``retired``
    holds the earlier anchors' lanes; each round's anchor joins them
    when it ends.  Of the unvisited partitions, one that does not hold
    every lane of ``query_mask`` is skipped; one that does costs
    ``probes_per_partition`` probes and one partition-local SLCA over
    the ranges of ``query_lanes`` (``Q``'s keywords in order), whose
    meaningful hits (``depth >= need[type id]``, Definition 3.3) are
    kept.

    Returns ``(hits, counts)``: ``hits`` a
    :class:`~repro.kernels.hits.HitRecord` over ``lane_columns`` —
    entry ``j`` the node ``depths[j]`` components deep on the path to
    posting ``positions[j]`` of ``lane_columns[lanes[j]]`` — and
    ``counts`` the ``(slca_invocations, probes, partitions_skipped,
    partitions_visited)`` it adds.  ``need`` is ``QueryContext.need``
    (an ``array('q')``).
    """
    lib = backend.compiled
    if lib is None:
        return _direct_python(
            rounds, start, retired, query_lanes, query_mask, lane_columns,
            need,
        )
    flats = []
    offs = []
    tids = []
    widths = []
    for lane in query_lanes:
        column = lane_columns[lane]
        flat_c, offs_c = backend.column_handles(lib, column)
        tids_c, width = backend.type_id_handle(lib, column)
        flats.append(flat_c)
        offs.append(offs_c)
        tids.append(tids_c)
        widths.append(width)
    masks_c = []
    spans_c = []
    meta = []
    for masks, spans, anchor_lane, per_partition in rounds:
        masks_c.append(lib.i64(masks))
        spans_c.append(lib.i64(spans))
        meta += (len(masks), anchor_lane, per_partition)
    need_c = lib.i64(need)
    nlanes = len(lane_columns)
    query_mask = _int64(query_mask)
    state = array("q", [0, start, _int64(retired), 0, 0, 0, 0, 0, 0])
    capacity = _DIRECT_HITS
    hits = array("q", bytes(24 * capacity))
    while True:
        status = lib.lib.repro_sle_direct(
            masks_c, spans_c, meta, len(rounds), nlanes, query_mask,
            query_lanes, len(query_lanes), flats, offs, tids, widths,
            need_c, lib.i64(state), lib.i64(hits), capacity,
        )
        if status == 0:
            found = _record(lane_columns, hits[: 3 * state[3]])
            return found, tuple(state[4:8])
        if status == 1:
            # The partition's kept hits do not fit: grow, re-run it.
            grown = max(2 * capacity, state[8])
            hits += array("q", bytes(24 * (grown - capacity)))
        elif status == 2:
            # Labels of different documents: the per-node path raises
            # the exact DeweyError (or answers, when its depth-1 early
            # exit never compares the unrelated pair).
            _, spans, _, per_partition = rounds[state[0]]
            found = _partition_hits(
                spans, state[1] * nlanes * 2, query_lanes, lane_columns,
                need,
            )
            end = 3 * state[3]
            hits[end:end] = array("q", found)
            state[3] += len(found) // 3
            state[4] += 1
            state[5] += per_partition
            state[7] += 1
            state[1] += 1
        else:
            raise MemoryError("short-list direct finish: no depth column")
        capacity = len(hits) // 3


def _direct_python(rounds, start, retired, query_lanes, query_mask,
                   lane_columns, need):
    """Pure-Python twin of ``repro_sle_direct``."""
    nlanes = len(lane_columns)
    hits = []
    slca_invocations = probes = skipped = visited = 0
    for masks, spans, anchor_lane, per_partition in rounds:
        for position in range(start, len(masks)):
            mask = masks[position]
            if mask & retired:
                continue
            visited += 1
            if mask & query_mask != query_mask:
                skipped += 1
                continue
            slca_invocations += 1
            probes += per_partition
            hits += _partition_hits(
                spans, position * nlanes * 2, query_lanes, lane_columns,
                need,
            )
        start = 0
        retired |= 1 << anchor_lane
    return (
        _record(lane_columns, array("q", hits)),
        (slca_invocations, probes, skipped, visited),
    )


def _record(lane_columns, triples):
    """The :class:`HitRecord` of flat ``(lane, position, depth)``
    triples (an ``array('q')``)."""
    return HitRecord(
        lane_columns, triples[1::3], triples[2::3], triples[0::3]
    )


def _partition_hits(spans, base, query_lanes, lane_columns, need):
    """Meaningful ``(lane, position, depth)`` hits of one partition's
    SLCA over ``query_lanes``' spans at ``spans[base:]``."""
    ranges = [
        (lane_columns[lane], spans[base + 2 * lane],
         spans[base + 2 * lane + 1])
        for lane in query_lanes
    ]
    hits = slca_hits(ranges, need)
    # slca_hits anchors on the first shortest range.
    sizes = [hi - lo for _, lo, hi in ranges]
    lane = query_lanes[sizes.index(min(sizes))]
    found = []
    for position, depth in zip(hits.positions, hits.depths):
        found += (lane, position, depth)
    return found


# ----------------------------------------------------------------------
# Vectorized admission sweep (the Top-2K threshold check)
# ----------------------------------------------------------------------
class PreparedBeam:
    """Admission columns of one memoized DP beam.

    Parallel to the candidate list: the set key and the
    ``(dissimilarity, sorted keyword tuple)`` total-order tuple of
    every candidate, precomputed once per distinct present-keyword set
    instead of per partition visit.
    """

    __slots__ = ("rqs", "keys", "orders")

    def __init__(self, candidates):
        self.rqs = candidates
        self.keys = [rq.key for rq in candidates]
        self.orders = [
            (rq.dissimilarity, tuple(sorted(rq.key))) for rq in candidates
        ]


def prepare_beam(candidates):
    """Wrap a DP beam's candidates in their admission columns."""
    return PreparedBeam(candidates)


def admission_sweep(prepared, sorted_list, query_key):
    """Beam indices the admission loop must still consider.

    One pass comparing the beam's precomputed order tuples against the
    list's worst kept entry.  The result is a superset of the
    candidates the sequential loop would admit: the threshold only
    tightens while the loop runs (inserts never raise the bound and
    membership only grows among swept candidates), so a candidate
    rejected against the entry state could never have passed later —
    skipping it changes neither answers nor statistics.  Survivors are
    re-checked per candidate, keeping ties resolved in content order
    by ``insert`` itself.
    """
    keys = prepared.keys
    if not sorted_list.is_full:
        return [i for i, key in enumerate(keys) if key != query_key]
    worst = sorted_list.worst_order()
    orders = prepared.orders
    has_key = sorted_list.has_key
    return [
        i
        for i, key in enumerate(keys)
        if key != query_key and (orders[i] < worst or has_key(key))
    ]


# ----------------------------------------------------------------------
# Formula 2-9 scoring, kept by name for the wire benchmark
# ----------------------------------------------------------------------
# ``benchmarks/e2e/layers.py`` imports these three names to time
# ``kernels.scoring_ns``.  Each delegates to the one implementation —
# the ranking model's formulas over the index's score memo — so that
# metric times exactly what ``/search`` runs.
def score_table(index):
    """``index``'s :class:`~repro.core.ranking.memo.ScoreMemo`."""
    from ..core.ranking.memo import score_memo

    return score_memo(index)


def batch_similarity(table, index, model, rq, original_keywords, search_for):
    """``model.similarity_score`` read through the memo ``table``."""
    return model.similarity_score(
        index, rq, original_keywords, search_for, memo=table
    )


def batch_dependence(table, index, model, rq, search_for):
    """``model.dependence_score`` read through the memo ``table``."""
    return model.dependence_score(index, rq, search_for, memo=table)
