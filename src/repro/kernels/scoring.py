"""Vectorized Top-2K candidate scoring (the batch scoring kernels).

The refinement hot path spends its time in three per-candidate /
per-partition Python loops: the short-list route's random-access
probes (one ``pid_range`` dict hit per lane per partition), the
Top-2K admission pre-checks (``has_key`` / ``would_admit`` per beam
candidate per partition), and the final ranking model's statistics
lookups (``f_k^T`` / ``tf`` / co-occurrence store reads per keyword
per candidate).  This module batches all three:

* :func:`partition_presence` — one merge-join over flat partition
  tables (compiled when the backend is) producing every anchor
  partition's presence mask and per-lane posting span at once: the
  whole probe phase of the short-list route as two columns.
* :func:`prepare_beam` / :func:`admission_sweep` — the memoized DP
  beam's ``(dissimilarity, content order)`` admission columns,
  compared against the :class:`~repro.core.candidates.RQSortedList`
  bound in a single threshold sweep.  Ties must resolve in content
  order (the sorted keyword tuple), exactly the list's own total
  order, so the sweep is a *superset* pre-filter: a candidate it
  passes is re-checked by ``insert`` itself, and one it rejects could
  never have been admitted (the threshold only tightens as the loop
  runs) — pruning is answer- and stats-identical.
* :class:`ScoreTable` / :func:`batch_similarity` /
  :func:`batch_dependence` — Formula 2–9 scoring over precomputed
  ``f_k^T`` / ``tf`` / pairwise co-occurrence lookup columns, memoized
  per index version.  The arithmetic replays the reference formulas
  term for term (same association, same iteration order), so scores
  are byte-identical floats; only the store lookups are batched away.

Everything here follows the kernel contract: pure-Python semantics
are the reference, the compiled path is a speedup behind
``REPRO_NO_COMPILED_KERNELS=1``, and the ``kernel:batch_score``
oracle comparison in ``verify-diff`` holds both to byte-identity.
"""

from __future__ import annotations

from array import array
from weakref import WeakKeyDictionary

from . import backend

_MISS = object()


# ----------------------------------------------------------------------
# Batch partition presence (the short-list probe phase)
# ----------------------------------------------------------------------
def presence_ready(lane_columns):
    """True when every lane can feed the batch presence kernel.

    Blocked (beyond-RAM) columns only qualify once their partition
    tables are already materialized — the batch path must never be
    what forces a lazy column resident.
    """
    return all(column.tables_ready for column in lane_columns)


def partition_presence(anchor_columns, lane_columns):
    """``(masks, spans)`` for every partition of the anchor column.

    ``masks[i]`` sets bit ``lane`` when ``lane_columns[lane]`` has
    postings in the anchor's ``i``-th partition; ``spans[(i * nlanes +
    lane) * 2]`` / ``+ 1`` hold that lane's ``(lo, hi)`` posting range
    (``-1`` when absent).  Exactly the masks and spans the per-pid
    ``pid_range`` probes produced, in one merge-join over the sorted
    partition tables.
    """
    a_pids = anchor_columns.pids
    npart = len(a_pids)
    nlanes = len(lane_columns)

    lib = backend.compiled
    if lib is not None and 0 < nlanes <= backend.MAX_MERGE_LANES and npart:
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
            [len(column.pids) for column in lane_columns], nlanes,
            lib.i64(masks), lib.i64(spans),
        )
        return masks, spans

    masks = [0] * npart
    spans = [-1] * (2 * npart * nlanes)
    for lane, column in enumerate(lane_columns):
        pids = column.pids
        starts = column.starts
        ends = column.ends
        bit = 1 << lane
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
# Batch Formula 2-9 scoring over precomputed lookup columns
# ----------------------------------------------------------------------
class ScoreTable:
    """Per-index memo of the ranking model's statistics lookups.

    ``tf`` holds ``tf(k, T)``, ``ki`` the Formula-3 keyword importance
    ``ln(1 + N_T / (1 + f_k^T))``, ``pair`` the Formula-7 association
    confidences, and ``g`` the per-type ``G_T`` normalizers.  The
    values are exactly what the reference formulas compute — caching a
    float changes nothing — and the table self-invalidates by index
    version, like every other derived cache.
    """

    __slots__ = ("version", "tf", "ki", "pair", "g")

    def __init__(self, version):
        self.version = version
        self.tf = {}
        self.ki = {}
        self.pair = {}
        self.g = {}


_SCORE_TABLES = WeakKeyDictionary()


def score_table(index):
    """The (possibly fresh) :class:`ScoreTable` for ``index``."""
    version = getattr(index, "version", 0)
    try:
        table = _SCORE_TABLES.get(index)
    except TypeError:
        return ScoreTable(version)
    if table is None or table.version != version:
        table = ScoreTable(version)
        try:
            _SCORE_TABLES[index] = table
        except TypeError:
            pass
    return table


def supported_model(model):
    """True when the batch scorer can stand in for ``model``.

    Only the stock :class:`~repro.core.ranking.model.RankingModel` is
    replayed here; a subclass may override the scoring methods, so it
    keeps the per-node path.
    """
    from ..core.ranking.model import RankingModel

    return type(model) is RankingModel


def batch_similarity(table, index, model, rq, original_keywords, search_for):
    """Formulas 2-6 over the lookup columns — byte-identical floats.

    Term-for-term replay of :func:`repro.core.ranking.similarity.
    similarity`: same summation order (the Guideline-2 domain comes
    sorted from the one shared helper), same association, same
    special cases; only the ``f_k^T`` / ``tf`` store reads go through
    the memo columns.
    """
    from ..core.ranking.similarity import (
        _guideline2_domain,
        keyword_importance,
    )

    if not search_for:
        return 0.0
    candidates = search_for if model.use_g3 else search_for[:1]
    tf_memo = table.tf
    ki_memo = table.ki
    g_memo = table.g
    total = 0.0
    for candidate in candidates:
        node_type = candidate.node_type
        if model.use_g1:
            g_t = g_memo.get(node_type, _MISS)
            if g_t is _MISS:
                g_t = index.distinct_keywords(node_type)
                g_memo[node_type] = g_t
            if g_t == 0:
                first = 0.0
            else:
                acc = 0
                for k in rq.keywords:
                    key = (k, node_type)
                    value = tf_memo.get(key, _MISS)
                    if value is _MISS:
                        value = index.tf(k, node_type)
                        tf_memo[key] = value
                    acc += value
                first = acc / g_t
        else:
            first = 1.0
        if model.use_g2:
            second = 0
            for k in _guideline2_domain(
                rq.keywords, original_keywords, model.g2_domain
            ):
                key = (k, node_type)
                value = ki_memo.get(key, _MISS)
                if value is _MISS:
                    value = keyword_importance(index, k, node_type)
                    ki_memo[key] = value
                second += value
        else:
            second = 1.0
        total += candidate.confidence * (first * second)
    if model.use_g4:
        total *= model.decay ** rq.dissimilarity
    return total


def batch_dependence(table, index, model, rq, search_for):
    """Formulas 7-9 over the pair-confidence column — identical floats.

    The pairwise co-occurrence reads are the expensive part (each is a
    key-encoded store probe plus, on a cold pair, two ancestor-set
    intersections); memoizing the confidence float per ``(ki, k, T)``
    leaves the Formula-8 accumulation untouched.
    """
    if not search_for:
        return 0.0
    candidates = search_for if model.use_g3 else search_for[:1]
    pair_memo = table.pair
    keywords = list(dict.fromkeys(rq.keywords))
    total = 0.0
    for candidate in candidates:
        node_type = candidate.node_type
        if len(keywords) < 2:
            total += candidate.confidence * 0.0
            continue
        acc = 0.0
        for k in keywords:
            for ki in keywords:
                if ki == k:
                    continue
                key = (ki, k, node_type)
                value = pair_memo.get(key, _MISS)
                if value is _MISS:
                    value = index.cooccurrence.confidence(ki, k, node_type)
                    pair_memo[key] = value
                acc += value
        total += candidate.confidence * (acc / len(keywords))
    return total
