"""Short-list step 1's kernels, plus the scoring names the wire benchmark reads.

The short-list route's step 1 runs over columns, one anchor round at a
time:

* :func:`partition_presence` — one merge-join over flat partition
  tables (compiled when the backend is) producing every anchor
  partition's presence mask and per-lane posting span at once: the
  whole probe phase of a round as two columns.
* :func:`sle_round` — the round itself: per unvisited partition the
  pre-screen, the ``Q``-covering SLCA, the skip bounds and Top-2K
  admission, with the list held as ``(dissimilarity, lane mask, beam
  ref)`` entries in a :class:`RoundState` and the DP results it reads
  as per-mask rows (:class:`MaskRows`).  Lanes are in keyword-string
  order, so the list's content tie-break is a bit test on masks
  (:func:`_order_less`).  One call per round; a DP row the rows lack is
  computed in the call over the query's :class:`RuleTable` (Section
  V's DP over lane masks, ``repro_dp_top``), and Python is called back
  only to grow the rows.
* :func:`sle_direct` — once ``Q`` has an answer, every remaining
  partition's SLCA and Definition 3.3 test in one pass.

The module also keeps :func:`score_table` / :func:`batch_similarity` /
:func:`batch_dependence`, the names the wire benchmark times the
final ranking by; each delegates to the ranking model's formulas and
the index's score memo (:mod:`repro.core.ranking.memo`), the one
implementation of Formulas 2–9.

Everything here follows the kernel contract: pure-Python semantics
are the reference, and the compiled path is a speedup behind
``REPRO_NO_COMPILED_KERNELS=1``.  A keyword space wider than one
presence mask (:data:`PRESENCE_MASK_LANES`) runs the pure-Python twins
on Python-int masks.
"""

from __future__ import annotations

from array import array

from ..core.candidates import RefinedQuery
from ..core.dp import optimal_dissimilarity
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
    (``-1`` when absent).  Exactly the masks and spans a per-partition
    lookup in each lane would produce, in one merge-join over the
    sorted ``pid_flat`` tables.  ``spans`` is an ``array('q')``; so is
    ``masks`` when the lanes fit one presence mask
    (:func:`presence_ready`), on either backend, and a list of Python
    ints otherwise.
    """
    npart = len(anchor_columns.starts)
    nlanes = len(lane_columns)
    narrow = presence_ready(lane_columns)

    lib = backend.compiled
    if lib is not None and narrow and nlanes and npart:
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

    a_pids = anchor_columns.pid_flat
    masks = array("q", bytes(8 * npart)) if narrow else [0] * npart
    spans = array("q", [-1]) * (2 * npart * nlanes)
    for lane, column in enumerate(lane_columns):
        pids = column.pid_flat
        starts = column.starts
        ends = column.ends
        bit = _int64(1 << lane) if narrow else 1 << lane
        ai = 0
        li = 0
        na = npart
        nl = len(starts)
        while ai < na and li < nl:
            # Partition ids compare as (first, second) component pairs.
            a = a_pids[2 * ai]
            l = pids[2 * li]
            if a == l:
                a = a_pids[2 * ai + 1]
                l = pids[2 * li + 1]
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
# Short-list step 1: one anchor round, and the direct-hit finish
# ----------------------------------------------------------------------
#: ``repro_sle_round``'s state slots: where a crossing left off (the
#: partition, the step in it, the beam cursor), the caller's answer to
#: an SLCA the kernel could not run, the Top-2K list's size, the
#: ``ScanStats`` counters, the mask a crossing is about, and whether the
#: DP rows are the round's own to add to.
(S_POS, S_STEP, S_CAND, S_ANSWER, S_COUNT, S_PROBES, S_DP, S_SLCA,
 S_SKIPPED, S_VISITED, S_MASK, S_OWNED) = range(12)

#: ``repro_sle_round``'s statuses.
_DONE, _QUERY_HIT, _NEED_ROOM, _NEED_ROW, _ASK = range(5)

#: The largest cost the compiled DP adds up exactly in a double.
_EXACT_COST = 1 << 40


def _order_less(a_dis, a_mask, b_dis, b_mask):
    """Whether ``(a_dis, a_mask)`` sorts before ``(b_dis, b_mask)``.

    The Top-2K order — dissimilarity, then the sorted keyword tuple —
    on lane masks whose lanes are in keyword-string order.  Two sets
    first differ at their lowest differing lane ``m``; the set without
    ``m`` sorts first exactly when it has no lane above ``m`` (it is
    then a prefix of the other).  Exact on Python-int masks and on
    ``int64`` ones alike: a negative mask holds the sign lane and,
    to Python, every lane above it.
    """
    if a_dis != b_dis:
        return a_dis < b_dis
    diff = a_mask ^ b_mask
    if not diff:
        return False
    bit = diff & -diff
    above = ~((bit << 1) - 1)
    if a_mask & bit:
        return (b_mask & above) != 0
    return (a_mask & above) == 0


def _cost_kind(cost):
    """``1`` for a float cost, ``0`` for an int one, ``None`` for a
    cost the compiled DP cannot add up as Python does."""
    kind = type(cost)
    if kind is int and cost < _EXACT_COST:
        return 0
    if kind is float and cost < _EXACT_COST:  # False for nan, too
        return 1
    return None


class RuleTable:
    """One query's rule set over its lanes, as the compiled
    ``getOptimalRQ`` (``repro_dp_top``, and ``repro_sle_round`` for a
    missing row) reads it.

    Per query position ``i`` the rules of ``rules.rules_ending_with``
    whose LHS is the query's suffix there, in that order; per rule its
    width, RHS lanes in derivation order, RHS mask and ``ds``; and the
    deletion cost.  A rule with an RHS keyword outside the lanes can
    never apply (the present keywords are lanes) and is left out.
    :meth:`build` returns ``None`` for costs that are neither ``int``
    nor ``float`` below ``2**40``: a double would not add them up as
    Python does, and :func:`~repro.core.dp.get_top_optimal_rqs` runs.
    """

    __slots__ = (
        "lanes", "entry_lanes", "_ints", "_costs", "_starts", "_fields", "_c",
    )

    @classmethod
    def build(cls, query, rules, lanes):
        lane_of = {keyword: lane for lane, keyword in enumerate(lanes)}
        deletion = _cost_kind(rules.deletion_cost)
        if deletion is None or len(lanes) > PRESENCE_MASK_LANES:
            return None
        ids = {}
        width = []
        rhs_off = [0]
        rhs = []
        rhs_mask = []
        ds = []
        ds_float = []
        pos_off = [0]
        pos_rule = []
        # longest[i]: the longest derivation of the prefix S[1..i].
        longest = [0]
        for i in range(1, len(query) + 1):
            best = longest[i - 1] + 1
            for rule in rules.rules_ending_with(query[i - 1]):
                span = len(rule.lhs)
                if span > i or tuple(query[i - span:i]) != rule.lhs:
                    continue
                if not all(keyword in lane_of for keyword in rule.rhs):
                    continue
                rid = ids.get(id(rule))
                if rid is None:
                    kind = _cost_kind(rule.ds)
                    if kind is None:
                        return None
                    rid = ids[id(rule)] = len(width)
                    width.append(span)
                    mask = 0
                    for keyword in rule.rhs:
                        rhs.append(lane_of[keyword])
                        mask |= 1 << lane_of[keyword]
                    rhs_off.append(len(rhs))
                    rhs_mask.append(_int64(mask))
                    ds.append(rule.ds)
                    ds_float.append(kind)
                pos_rule.append(rid)
                best = max(best, longest[i - span] + len(rule.rhs))
            pos_off.append(len(pos_rule))
            longest.append(best)
        table = cls.__new__(cls)
        table.lanes = tuple(lanes)
        #: Distinct lanes one refined query can hold.
        table.entry_lanes = min(longest[-1], len(lanes))
        # The integer columns end to end in one array (each field of the
        # struct points into it), the rule costs in another.
        columns = (
            [lane_of[keyword] for keyword in query], pos_off, pos_rule,
            width, rhs_off, rhs, rhs_mask, ds_float,
        )
        table._ints = array("q")
        starts = []
        for column in columns:
            starts.append(len(table._ints))
            table._ints.extend(column)
        table._costs = array("d", ds)
        table._fields = (
            len(query), float(rules.deletion_cost), deletion, longest[-1],
            max((b - a for a, b in zip(pos_off, pos_off[1:])), default=0),
            table.entry_lanes,
        )
        table._starts = tuple(starts)
        table._c = None
        return table

    #: The struct's scalar fields, in ``_fields`` order, and its
    #: integer-column fields, in ``_ints`` order.
    _FIELDS = (
        "nquery", "deletion", "deletion_float", "seq_max", "max_rules",
        "entry_lanes",
    )
    _INT_FIELDS = (
        "query", "pos_off", "pos_rule", "width", "rhs_off", "rhs",
        "rhs_mask", "ds_float",
    )

    def handle(self, lib):
        """The ``struct repro_dp_rules *`` over this table (memoized)."""
        cached = self._c
        if cached is None or cached[0] is not lib:
            ints = lib.i64(self._ints)
            costs = lib.ffi.from_buffer("double[]", self._costs)
            struct = lib.ffi.new(
                "struct repro_dp_rules *", dict(zip(self._FIELDS, self._fields))
            )
            for name, start in zip(self._INT_FIELDS, self._starts):
                setattr(struct, name, ints + start)
            struct.ds = costs
            cached = self._c = (lib, struct, ints, costs)
        return cached[1]

    def refined(self, lanes, dis, is_float):
        """The :class:`~repro.core.candidates.RefinedQuery` of an entry
        the compiled DP wrote."""
        names = self.lanes
        return RefinedQuery(
            tuple(names[lane] for lane in lanes),
            dis if is_float else int(dis),
        )

    def outputs(self, lib, limit):
        """``(arrays, casts)``: the buffers :meth:`top` writes ``limit``
        refined queries to.  Not to be shared between threads."""
        arrays = (
            array("d", bytes(8 * limit)), array("q", bytes(8 * limit)),
            array("q", bytes(24 * limit)),
            array("B", bytes(limit * self.entry_lanes)),
        )
        ffi = lib.ffi
        return arrays, (
            ffi.from_buffer("double[]", arrays[0]), lib.i64(arrays[1]),
            lib.i64(arrays[2]), ffi.from_buffer("uint8_t[]", arrays[3]),
        )

    def _run(self, lib, mask, limit, casts):
        """One ``repro_dp_top`` call; returns the entries written."""
        count = lib.lib.repro_dp_top(
            self.handle(lib), _int64(mask), limit, *casts
        )
        if count < 0:
            raise MemoryError("getOptimalRQ: no work space")
        return count

    def top(self, lib, mask, limit, out=None):
        """``get_top_optimal_rqs(query, keywords of mask, rules,
        limit)`` through the compiled DP, written to ``out`` (from
        :meth:`outputs`; fresh buffers when ``None``)."""
        arrays, casts = out if out is not None else self.outputs(lib, limit)
        count = self._run(lib, mask, limit, casts)
        dis, _, how, seq = arrays
        return [
            self.refined(seq[how[3 * e]:how[3 * e + 1]], dis[e],
                         how[3 * e + 2])
            for e in range(count)
        ]

    def minimum(self, lib, mask, out):
        """The dissimilarity of :meth:`top`'s first entry at limit 1
        (``inf`` when it writes none), ``int`` or ``float`` as the
        entry's float flag says; ``out`` is :meth:`outputs` at limit 1."""
        arrays, casts = out
        if not self._run(lib, mask, 1, casts):
            return float("inf")
        dis = arrays[0][0]
        return dis if arrays[2][2] else int(dis)


class MaskRows:
    """The DP results short-list step 1 holds, per presence mask.

    Row ``row_of[mask]`` holds the 1-beam probe minimum
    ``probe[row]`` (``-1`` until known) and the Top-2K beam
    ``beam_dis`` / ``beam_masks`` ``[beam[2 * row]:beam[2 * row + 1]]``
    (``-1`` until known).  Beam ref ``b`` is ``rqs[b]``: the DP's own
    :class:`~repro.core.candidates.RefinedQuery` for a row Python
    filled, ``None`` for one the compiled round computed until
    :meth:`rq` reads it from the entry's lanes ``seq[beam_how[3 * b]:
    beam_how[3 * b + 1]]`` and float flag ``beam_how[3 * b + 2]``.

    The columns have spare room: ``n`` counts the rows, entries and
    lanes in use, then the room for each, and :meth:`reserve` grows the
    columns geometrically, so the compiled round re-reads them
    ``O(log rows)`` times per query.  The DP is a pure function of the
    query, the rules, the beam width and the present keywords, so rows
    outlive a query: published in the beam memo
    (:class:`~repro.core.dp.BeamMemo`) under the lane order, they are
    the memo of step 1's per-mask results, read by later queries of the
    same DP-memo identity and never changed again — a
    :class:`RoundState` copies them before adding a row.  ``table``
    (the identity's :class:`RuleTable`) rides along.
    """

    __slots__ = (
        "row_of", "masks", "probe", "beam", "beam_dis", "beam_masks",
        "beam_how", "seq", "n", "rqs", "table", "_c",
    )

    def __init__(self, narrow):
        self.row_of = {}
        self.masks = array("q") if narrow else []
        self.probe = array("d")
        self.beam = array("q")
        self.beam_dis = array("d")
        self.beam_masks = array("q") if narrow else []
        self.beam_how = array("q")
        self.seq = array("B")
        self.n = array("q", bytes(48))
        self.rqs = []
        self.table = None
        #: The casts ``repro_sle_round`` reads.  A cast pins its array's
        #: size, so they are dropped before the columns grow.
        self._c = None

    def copy(self):
        """An unpublished copy, its columns cut to what is in use."""
        copy = self.trim()
        copy.row_of = dict(self.row_of)
        copy.rqs = self.rqs[:]
        return copy

    def _groups(self):
        """The columns per count — rows, entries, lanes — each with its
        width (slots per row or entry)."""
        return (
            ((self.masks, 1), (self.probe, 1), (self.beam, 2)),
            ((self.beam_dis, 1), (self.beam_masks, 1), (self.beam_how, 3)),
            ((self.seq, 1),),
        )

    def reserve(self, rows, entries, lanes):
        """Room for ``rows`` more rows, ``entries`` more beam entries and
        ``lanes`` more entry lanes; a column that lacks it at least
        doubles."""
        n = self.n
        for slot, (more, columns) in enumerate(
            zip((rows, entries, lanes), self._groups())
        ):
            room = n[slot + 3]
            if n[slot] + more <= room:
                continue
            self._c = None
            grown = max(2 * room, n[slot] + more)
            for column, width in columns:
                column.extend([0] * ((grown - room) * width))
            n[slot + 3] = grown

    def trim(self):
        """A copy without the columns' spare room, to publish: no query
        adds to published rows again."""
        rows, entries, lanes = self.n[:3]
        trimmed = MaskRows.__new__(MaskRows)
        trimmed.row_of = self.row_of
        trimmed.masks = self.masks[:rows]
        trimmed.probe = self.probe[:rows]
        trimmed.beam = self.beam[:2 * rows]
        trimmed.beam_dis = self.beam_dis[:entries]
        trimmed.beam_masks = self.beam_masks[:entries]
        trimmed.beam_how = self.beam_how[:3 * entries]
        trimmed.seq = self.seq[:lanes]
        trimmed.n = array("q", [rows, entries, lanes, rows, entries, lanes])
        trimmed.rqs = self.rqs
        trimmed.table = self.table
        trimmed._c = None
        return trimmed

    def row(self, mask):
        """``mask``'s row, added when missing."""
        row = self.row_of.get(mask)
        if row is None:
            self.reserve(1, 0, 0)
            row = self.row_of[mask] = self.n[0]
            self.masks[row] = mask
            self.probe[row] = -1.0
            self.beam[2 * row] = self.beam[2 * row + 1] = -1
            self.n[0] = row + 1
        return row

    def sync(self):
        """Take in the rows and entries the compiled round added (each
        time it returns done)."""
        row_of = self.row_of
        masks = self.masks
        for row in range(len(row_of), self.n[0]):
            row_of[masks[row]] = row
        missing = self.n[1] - len(self.rqs)
        if missing:
            self.rqs += [None] * missing

    def rq(self, ref):
        """Beam ref ``ref``'s refined query."""
        rq = self.rqs[ref]
        if rq is None:
            # Idempotent: a published set may be read by several threads.
            how = self.beam_how
            rq = self.rqs[ref] = self.table.refined(
                self.seq[how[3 * ref]:how[3 * ref + 1]], self.beam_dis[ref],
                how[3 * ref + 2],
            )
        return rq

    def handles(self, lib):
        """The ``struct repro_rows *`` ``repro_sle_round`` reads and
        adds to (memoized until the columns grow)."""
        cached = self._c
        if cached is None or cached[0] is not lib:
            ffi = lib.ffi
            keep = (
                lib.i64(self.masks), ffi.from_buffer("double[]", self.probe),
                lib.i64(self.beam), ffi.from_buffer("double[]", self.beam_dis),
                lib.i64(self.beam_masks), lib.i64(self.beam_how),
                ffi.from_buffer("uint8_t[]", self.seq), lib.i64(self.n),
            )
            struct = ffi.new("struct repro_rows *", keep)
            cached = self._c = (lib, struct, keep)
        return cached[1]


class RoundState:
    """Short-list step 1's state over one query's anchor rounds.

    ``lanes`` are the keyword space's distinct keywords in string order
    (lane ``i`` is ``lanes[i]``, read through ``lane_columns[i]``), so a
    keyword set is a lane mask and :func:`_order_less` is the Top-2K
    tie order.  The state holds

    * the Top-2K list: ``state[S_COUNT]`` entries of ``top_dis`` /
      ``top_masks`` / ``top_refs`` — a dissimilarity, a lane mask and a
      beam ref into ``rows`` — best first;
    * the DP rows (:class:`MaskRows`; ``rows`` starts from a published
      set when given one);
    * the ``ScanStats`` counters (``state[S_PROBES:S_VISITED + 1]``).

    Given ``rules``, the compiled round computes a DP row the rows lack
    itself, over the query's :class:`RuleTable`; without them it asks
    the caller's DP for it.  Masks are ``int64`` (:func:`_int64`) when
    the lanes fit one presence mask (``narrow``), Python ints
    otherwise; ``bound`` is the query's
    :class:`~repro.kernels.bounds.PresenceBoundCache` over ``lanes``.
    """

    __slots__ = (
        "capacity", "lanes", "lane_columns", "lane_of", "query",
        "query_lanes", "query_mask", "narrow", "bound", "need", "rules",
        "state", "top_dis", "top_masks", "top_refs", "rows", "grown", "_c",
        "_out",
    )

    def __init__(self, capacity, lanes, lane_columns, query, bound, need,
                 rows=None, rules=None):
        self.capacity = capacity
        self.lanes = tuple(lanes)
        self.lane_columns = lane_columns
        self.lane_of = {keyword: lane for lane, keyword in enumerate(lanes)}
        self.query = tuple(query)
        self.query_lanes = [self.lane_of[keyword] for keyword in query]
        self.narrow = presence_ready(lane_columns)
        self.query_mask = self.mask_of(query)
        self.bound = bound
        self.need = need
        self.rules = rules
        self.state = array("q", bytes(8 * (S_OWNED + 1)))
        self.top_dis = array("d", bytes(8 * capacity))
        self.top_masks = (array("q", bytes(8 * capacity)) if self.narrow
                          else [0] * capacity)
        self.top_refs = array("q", bytes(8 * capacity))
        self.rows = rows if rows is not None else MaskRows(self.narrow)
        #: Whether ``rows`` is this state's own copy, with rows added.
        self.grown = False
        self._c = None
        #: :meth:`probe_minimum`'s output buffers, this state's own.
        self._out = None

    def mask_of(self, keywords):
        """The lane mask of a keyword set."""
        mask = 0
        for keyword in keywords:
            mask |= 1 << self.lane_of[keyword]
        return _int64(mask) if self.narrow else mask

    def lanes_in(self, mask):
        """``mask``'s lanes, lowest first."""
        return [
            lane for lane in range(len(self.lane_columns)) if mask >> lane & 1
        ]

    @property
    def is_full(self):
        return self.state[S_COUNT] == self.capacity

    def worst(self):
        """The kept list's worst dissimilarity (inf until it is full)."""
        if not self.is_full:
            return float("inf")
        return self.top_dis[self.capacity - 1]

    def kept(self):
        """The kept refined queries, best first."""
        rows = self.rows
        return [rows.rq(ref) for ref in self.top_refs[: self.state[S_COUNT]]]

    def counters(self):
        """``(probes, dp_invocations, slca_invocations,
        partitions_skipped, partitions_visited)`` so far."""
        return tuple(self.state[S_PROBES:S_VISITED + 1])

    def table(self):
        """The query's :class:`RuleTable` (kept with the rows), or
        ``None`` when the compiled DP cannot run it."""
        if self.rules is None or not self.narrow:
            return None
        table = self.rows.table
        if table is None:
            table = RuleTable.build(self.query, self.rules, self.lanes)
            # Idempotent: the table is a pure function of the rows'
            # DP-memo identity.
            self.rows.table = table
        return table

    def probe_minimum(self, keywords):
        """``optimal_dissimilarity(query, keywords, rules)``: one
        compiled DP call at limit 1 when it can run it, building no
        refined query."""
        lib = backend.compiled
        table = self.table() if lib is not None else None
        if table is None:
            return optimal_dissimilarity(self.query, keywords, self.rules)
        out = self._out
        if out is None or out[0] is not lib:
            out = self._out = (lib, table.outputs(lib, 1))
        return table.minimum(lib, self.mask_of(keywords), out[1])

    def own_rows(self):
        """Make ``rows`` this state's own copy (before adding a row)."""
        if not self.grown:
            self.rows = self.rows.copy()
            self.grown = True
            self.state[S_OWNED] = 1
        return self.rows

    def fill(self, mask, beam, value):
        """Store a DP result in ``mask``'s row: the beam (a list of
        refined queries) when ``beam``, else the probe minimum."""
        rows = self.own_rows()
        row = rows.row(mask)
        if not beam:
            rows.probe[row] = value
            return
        rows.reserve(0, len(value), 0)
        lo = rows.n[1]
        for at, rq in enumerate(value, lo):
            rows.beam_dis[at] = rq.dissimilarity
            rows.beam_masks[at] = self.mask_of(rq.key)
        rows.rqs += value
        rows.n[1] = len(rows.rqs)
        rows.beam[2 * row] = lo
        rows.beam[2 * row + 1] = len(rows.rqs)

    def any_hit(self, spans, position, lanes):
        """Whether the SLCA over ``lanes``' ranges in partition
        ``position`` of a round's ``spans`` has a meaningful hit."""
        columns = self.lane_columns
        base = position * len(columns) * 2
        return len(slca_hits(
            [(columns[lane], spans[base + 2 * lane],
              spans[base + 2 * lane + 1]) for lane in lanes],
            self.need,
        )) > 0

    def handles(self, lib):
        """The casts ``repro_sle_round`` reads that stay put for the
        query: ``(query inputs, rule table, Top-2K list and state)``."""
        cached = self._c
        if cached is None or cached[0] is not lib:
            ffi = lib.ffi
            lane_cost = array("d", [
                -1.0 if cost is None else cost
                for cost in self.bound.lane_cost
            ])
            table = self.table()
            cached = self._c = (lib, (
                lib.i64(array("q", self.query_lanes)), len(self.query_lanes),
                ffi.from_buffer("double[]", lane_cost),
                *_lane_tables(lib, self.lane_columns), lib.i64(self.need),
            ), ffi.NULL if table is None else table.handle(lib), (
                ffi.from_buffer("double[]", self.top_dis),
                lib.i64(self.top_masks), lib.i64(self.top_refs),
                self.capacity, lib.i64(self.state),
            ))
        return cached[1:]


def _lane_tables(lib, lane_columns):
    """Per-lane ``(flats, offs, tids, widths)`` C tables of key and
    type-id columns."""
    ffi = lib.ffi
    flats = []
    offs = []
    tids = []
    widths = []
    for column in lane_columns:
        flat_c, offs_c = backend.column_handles(lib, column)
        tids_c, width = backend.type_id_handle(lib, column)
        flats.append(flat_c)
        offs.append(offs_c)
        tids.append(tids_c)
        widths.append(width)
    return (
        ffi.new("int64_t *[]", flats), ffi.new("int64_t *[]", offs),
        ffi.new("void *[]", tids), ffi.new("int64_t[]", widths),
    )


def sle_round(walk, masks, spans, retired, per_partition, dp):
    """Short-list step 1 over one anchor round; see :class:`RoundState`.

    ``masks`` / ``spans`` are the round's presence columns
    (:func:`partition_presence`), ``retired`` the lanes of the earlier
    rounds' anchors and ``per_partition`` the probes a partition that
    passes the pre-screen costs.  Every partition no retired lane holds
    is visited in order, and gets exactly the decisions of the
    per-partition loop of Algorithm 3's step 1:

    * the presence-bound pre-screen, once the list is full (never for a
      partition that holds all of ``Q``), then the probe count;
    * a ``Q``-covering partition's meaningful SLCA;
    * once the list is full, the strict 1-beam probe-minimum skip (a
      second presence-bound test here could never skip: a
      ``Q``-covering partition has bound 0, and any other passed the
      pre-screen);
    * the DP beam, in order: a candidate that is not ``Q``, is kept or
      would beat the list's worst entry, and — when new — has a
      meaningful SLCA in the partition (Issue 2) is inserted, evicting
      the worst entry or replacing its own worse-dissimilarity entry.

    A DP result ``walk`` lacks is computed inside the compiled round
    when the walk has a :class:`RuleTable` (:meth:`RoundState.table`);
    otherwise — and on the pure-Python twin — it is asked of
    ``dp(mask, beam)`` (the beam when ``beam``, else the probe minimum)
    at the point the loop needs it.  Returns the position of the first
    visited partition whose ``Q``-covering SLCA has meaningful hits,
    with none of its counters applied, or ``len(masks)``.
    """
    lib = backend.compiled
    if lib is None or not walk.narrow:
        return _round_python(walk, masks, spans, retired, per_partition, dp)
    query, table, top = walk.handles(lib)
    state = walk.state
    state[S_POS] = state[S_STEP] = 0
    masks_c = lib.i64(masks)
    spans_c = lib.i64(spans)
    retired = _int64(retired)
    nlanes = len(walk.lane_columns)
    call = lib.lib.repro_sle_round
    while True:
        status = call(
            masks_c, spans_c, len(masks), nlanes, retired, per_partition,
            walk.query_mask, *query, walk.rows.handles(lib), table, *top,
        )
        if status == _DONE:
            walk.rows.sync()
            return len(masks)
        if status == _QUERY_HIT:
            walk.rows.sync()
            return state[S_POS]
        mask = state[S_MASK]
        if status == _NEED_ROOM:
            # Room for as many rows again, each with a full beam: the
            # column groups double together.  A first room of 32 rows
            # holds most queries' rows (a DP-memo miss on the
            # replay_mixed corpus computes ~18).
            rows = walk.own_rows()
            more = max(rows.n[0], 32)
            entries = more * walk.capacity
            rows.reserve(more, entries, entries * walk.table().entry_lanes)
        elif status == _ASK:
            # A depth of 0: the per-node path raises the exact error, or
            # answers.
            lanes = (walk.query_lanes if mask == walk.query_mask
                     else walk.lanes_in(mask))
            state[S_ANSWER] = walk.any_hit(spans, state[S_POS], lanes)
        elif status == _NEED_ROW:
            beam = state[S_STEP] == 3
            walk.fill(mask, beam, dp(mask, beam))
        else:
            raise MemoryError("short-list round: no work column")


def _round_python(walk, masks, spans, retired, per_partition, dp):
    """Pure-Python twin of ``repro_sle_round``: the reference."""
    state = walk.state
    capacity = walk.capacity
    query_mask = walk.query_mask
    bound = walk.bound.lower_bound
    top_dis = walk.top_dis
    top_masks = walk.top_masks
    top_refs = walk.top_refs
    top = (top_dis, top_masks, top_refs)
    for position, mask in enumerate(masks):
        if mask & retired:
            continue
        count = state[S_COUNT]
        full = count == capacity
        worst = top_dis[count - 1] if full else float("inf")
        covers = mask & query_mask == query_mask
        if full and not covers and bound(mask) > worst:
            state[S_VISITED] += 1
            state[S_SKIPPED] += 1
            continue
        if covers:
            if walk.any_hit(spans, position, walk.query_lanes):
                return position
            state[S_SLCA] += 1
        state[S_VISITED] += 1
        state[S_PROBES] += per_partition
        row = walk.rows.row_of.get(mask)
        if full:
            # The presence bound cannot skip here: a partition that
            # holds all of Q has bound 0, and any other passed the
            # pre-screen's same test.
            if row is None or walk.rows.probe[row] < 0:
                walk.fill(mask, False, dp(mask, False))
                row = walk.rows.row_of[mask]
            state[S_DP] += 1
            if walk.rows.probe[row] > worst:
                state[S_SKIPPED] += 1
                continue
        if row is None or walk.rows.beam[2 * row] < 0:
            walk.fill(mask, True, dp(mask, True))
            row = walk.rows.row_of[mask]
        state[S_DP] += 1
        rows = walk.rows
        for ref in range(rows.beam[2 * row], rows.beam[2 * row + 1]):
            dis = rows.beam_dis[ref]
            key = rows.beam_masks[ref]
            if key == query_mask:
                continue
            count = state[S_COUNT]
            at = 0
            while at < count and top_masks[at] != key:
                at += 1
            if at == count:
                if count == capacity and not _order_less(
                    dis, key, top_dis[count - 1], top_masks[count - 1]
                ):
                    continue
                state[S_SLCA] += 1
                if not walk.any_hit(spans, position, walk.lanes_in(key)):
                    continue
                if count == capacity:
                    count -= 1  # evict the worst
            else:
                if not dis < top_dis[at]:
                    continue
                for column in top:  # re-insert: remove the kept entry
                    column[at:count - 1] = column[at + 1:count]
                count -= 1
            at = count
            while at and _order_less(dis, key, top_dis[at - 1],
                                     top_masks[at - 1]):
                at -= 1
            for column in top:
                column[at + 1:count + 1] = column[at:count]
            top_dis[at] = dis
            top_masks[at] = key
            top_refs[at] = ref
            state[S_COUNT] = count + 1
    return len(masks)


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
    if lib is None or not presence_ready(lane_columns):
        return _direct_python(
            rounds, start, retired, query_lanes, query_mask, lane_columns,
            need,
        )
    masks_c = []
    spans_c = []
    meta = []
    for masks, spans, anchor_lane, per_partition in rounds:
        masks_c.append(lib.i64(masks))
        spans_c.append(lib.i64(spans))
        meta += (len(masks), anchor_lane, per_partition)
    tables = _lane_tables(lib, lane_columns)
    need_c = lib.i64(need)
    nlanes = len(lane_columns)
    query_mask = _int64(query_mask)
    state = array("q", [0, start, _int64(retired), 0, 0, 0, 0, 0, 0])
    capacity = _DIRECT_HITS
    hits = array("q", bytes(24 * capacity))
    while True:
        status = lib.lib.repro_sle_direct(
            masks_c, spans_c, meta, len(rounds), nlanes, query_mask,
            query_lanes, len(query_lanes), *tables, need_c,
            lib.i64(state), lib.i64(hits), capacity,
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
