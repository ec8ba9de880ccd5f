"""Calibrated per-operation cost constants for the query planner.

The planner predicts each refinement algorithm's running time as a
linear combination of *operation counts* (postings merged, partitions
visited, random-access probes, DP beam work, SLCA postings scanned)
with per-operation unit costs.  The counts come from the index
statistics (:mod:`repro.plan.features`); the unit costs come from a
:class:`Calibration` measured **once per machine/interpreter** by
:func:`micro_calibrate` — a few synthetic timed loops exercising the
same primitive operations the scan kernels run (partition-table
builds and merged views, partition-table dict probes, the refinement
DP, the columnar batch SLCA, the merged-LCP scan).

Calibrations are persisted into frozen snapshots (format version 2;
see :mod:`repro.index.frozen`) so a serving process starts with the
constants measured at freeze time instead of paying the measurement
cost itself.  The record carries its own one-byte version:
:func:`decode_calibration` returns ``None`` for any version other
than the current one, and every consumer falls back to
:data:`DEFAULT_CALIBRATION` / on-the-fly micro-calibration, so
snapshot/version skew degrades routing quality, never correctness —
the planner's answers are byte-identical regardless of which
calibration is loaded.

Record version 3 re-pointed the measured primitives at the batch
kernels (masked partition views, batch partition presence, the
LCP-run merged scan) and added the ``batch_score`` per-candidate
ranking cost.  Version-1/2 records measured the *old* primitives —
their constants misprice the batch hot path — so they intentionally
decode to ``None``, triggering one lazy micro-calibration instead of
planning on stale numbers.
"""

from __future__ import annotations

import struct
import time

#: Field order is the wire order of the snapshot record — append only.
_FIELDS = (
    "scan_posting",     # partition-table build + masked view, per posting
    "probe",            # batch partition presence, per lane-partition pair
    "dp_partial",       # refinement DP, per dp_units() unit
    "slca_posting",     # columnar batch SLCA kernel, per posting
    "partition_visit",  # per-partition work over the masked view
    "stack_posting",    # LCP-run merged scan (stack route), per posting
    "dispatch",         # reserved: a record-v3 slot that nothing reads
    "stack_push_pop",   # one stack frame push+pop pair (stack route)
    "batch_score",      # batch ranking (Formulas 2-9), per candidate
)

#: Uncalibrated defaults (seconds) — conservative CPython estimates
#: used when no measurement is available (version-skewed snapshot
#: record, measurement failure).  Routing stays sane, just less sharp.
_DEFAULTS = {
    "scan_posting": 1.2e-6,
    "probe": 4.0e-7,
    "dp_partial": 1.5e-6,
    "slca_posting": 1.5e-6,
    "partition_visit": 1.5e-6,
    "stack_posting": 2.5e-6,
    "dispatch": 2.0e-4,
    "stack_push_pop": 4.0e-7,
    "batch_score": 6.0e-6,
}

#: One-byte record version inside the snapshot's statistics section.
#: Version 3 re-pointed the measured loops at the batch kernels and
#: appended ``batch_score``; version-1/2 records measured primitives
#: the hot path no longer runs, so they decode to ``None`` and the
#: loader re-measures lazily (see the module docstring).
_RECORD_VERSION = 3
_RECORD = struct.Struct("<B%dd" % len(_FIELDS))


class Calibration:
    """Per-operation unit costs, in seconds."""

    __slots__ = _FIELDS + ("source",)

    FIELDS = _FIELDS

    def __init__(self, source="default", **costs):
        for name in _FIELDS:
            value = costs.get(name, _DEFAULTS[name])
            if not (value > 0.0):  # rejects NaN, zero, negatives
                value = _DEFAULTS[name]
            setattr(self, name, float(value))
        #: ``"default"`` / ``"measured"`` / ``"snapshot"`` provenance.
        self.source = source

    def as_dict(self):
        out = {name: getattr(self, name) for name in _FIELDS}
        out["source"] = self.source
        return out

    def __repr__(self):
        return (
            f"Calibration({self.source}, scan={self.scan_posting:.2e}, "
            f"dp={self.dp_partial:.2e})"
        )


#: The shared fallback instance.
DEFAULT_CALIBRATION = Calibration()


def dp_units(query_len, rule_count, beam):
    """Abstract work units of one ``get_top_optimal_rqs`` invocation.

    The DP fills ``query_len`` cells; each cell merges the previous
    cell's partials (truncated to ``2 * beam``) through keep/delete
    plus the applicable rules.  The unit count is what
    ``Calibration.dp_partial`` is normalized against, so only its
    *shape* matters, not its absolute scale.
    """
    width = 2 * max(int(beam), 1)
    per_cell = width * (2 + min(int(rule_count), 8))
    return float(max(1, int(query_len)) * per_cell)


def dp_cost(calibration, query_len, rule_count, beam):
    """Estimated seconds of one DP invocation."""
    return calibration.dp_partial * dp_units(query_len, rule_count, beam)


# ----------------------------------------------------------------------
# Snapshot record codec
# ----------------------------------------------------------------------
def encode_calibration(calibration):
    """Pack a calibration into the frozen-snapshot statistics record."""
    return _RECORD.pack(
        _RECORD_VERSION, *(getattr(calibration, name) for name in _FIELDS)
    )


def decode_calibration(raw):
    """Unpack a snapshot calibration record.

    Returns ``None`` (→ caller falls back to defaults, or lazily
    re-measures) for any version or size other than the current
    record's — both the forward-compatibility valve for snapshots
    written by newer builds and the deliberate invalidation of
    version-1/2 records, whose constants were measured against
    pre-batch primitives and would misprice the current hot path.
    """
    if len(raw) != _RECORD.size:
        return None
    version, *values = _RECORD.unpack(raw)
    if version != _RECORD_VERSION:
        return None
    return Calibration("snapshot", **dict(zip(_FIELDS, values)))


# ----------------------------------------------------------------------
# Micro-calibration
# ----------------------------------------------------------------------
def _best_of(repeats, run):
    """Minimum elapsed seconds over ``repeats`` runs (least noise)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        run()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return max(best, 1e-9)


def micro_calibrate(repeats=3):
    """Measure per-operation unit costs with small synthetic loops.

    Total cost is a few milliseconds; the loops exercise the exact
    batch primitives the scan kernels run (cold partition-table builds
    plus the masked partition view, the batch presence merge-join, the
    real refinement DP, the columnar batch SLCA kernel, the LCP-run
    merged scan with its stack-depth walk, the warm-memo batch scorer)
    so relative magnitudes track both the machine *and the active
    kernel backend* actually serving queries — a compiled fast path
    calibrates to its own speed.
    """
    from ..core.dp import get_top_optimal_rqs
    from ..kernels import (
        ListColumns,
        merged_lcp_runs,
        partition_presence,
        partition_view_masked,
        slca_ranges,
    )
    from ..lexicon.rules import RuleSet

    # Synthetic posting columns: 4 lists x 128 component tuples spread
    # over 32 partitions, mimicking the real packed layout.
    lists = [
        [(0, p, lane, child, 1) for p in range(32) for child in range(4)]
        for lane in range(4)
    ]
    scan_total = sum(len(column) for column in lists)
    columns = [ListColumns(keys) for keys in lists]

    def run_partition_scan():
        # Cold columns each run: the partition-table build is the
        # kernels' only per-list pass over the postings, and the
        # masked view is the merge Algorithm 2 consumes.
        partition_view_masked([ListColumns(keys) for keys in lists])

    scan_posting = _best_of(repeats, run_partition_scan) / scan_total

    # SLE's probe phase is the batch presence merge-join; one "probe"
    # is one lane-partition pair of its output.
    presence_pairs = len(columns[0].pids) * len(columns)

    def run_probes():
        partition_presence(columns[0], columns)

    probe = _best_of(repeats, run_probes) / presence_pairs

    view = partition_view_masked(columns)

    def run_partition_visits():
        # The per-partition work left in the Algorithm-2 loop: consume
        # the precomputed mask/posting aggregates and test presence.
        query_mask = 0b11
        for _pid, _spans, mask, postings in view:
            _covered = mask & query_mask == query_mask
            _total = postings

    partition_visit = _best_of(repeats, run_partition_visits) / len(view)

    query = ("alpha", "beta", "gamma", "delta")
    available = {"alpha", "beta", "delta"}
    rules = RuleSet()
    dp_calls = 8

    def run_dp():
        for _ in range(dp_calls):
            get_top_optimal_rqs(query, available, rules, 4)

    dp_partial = _best_of(repeats, run_dp) / (
        dp_calls * dp_units(len(query), 0, 4)
    )

    slca_lanes = [(c, 0, c.size) for c in columns[:2]]
    slca_total = sum(c.size for c in columns[:2])

    def run_slca():
        for _ in range(4):
            slca_ranges(slca_lanes)

    slca_posting = _best_of(repeats, run_slca) / (4 * slca_total)

    def run_stack():
        # The LCP-run table plus the per-posting stack-depth walk that
        # consumes it — the stack route's whole scan.
        _lanes, lcps, _ends = merged_lcp_runs(columns)
        depth = 0
        for lcp in lcps:
            if lcp < depth:
                depth = lcp
            depth += 1

    stack_posting = _best_of(repeats, run_stack) / scan_total

    # One stack frame push + pop pair — stack-refine's per-posting
    # stack maintenance, measured apart from the merged-LCP scan so the
    # planner's stack estimate is a sum of two measured terms instead
    # of one blended guess.  Frames mirror the real route's
    # (node, keyword-mask, depth) triples.
    frames = [((0, p, 0), 1 << (p % 4), p % 8) for p in range(16)]
    pair_count = 512

    def run_push_pop():
        stack = []
        push = stack.append
        pop = stack.pop
        for index in range(pair_count):
            push(frames[index % 16])
            pop()

    stack_push_pop = _best_of(repeats, run_push_pop) / pair_count

    # Warm-memo batch ranking: score synthetic candidates through the
    # real Formula 2-9 replay with every lookup column prefilled —
    # exactly the steady state rank_candidates runs in.
    from ..core.candidates import RefinedQuery
    from ..core.ranking.model import RankingModel
    from ..kernels.scoring import (
        ScoreTable,
        batch_dependence,
        batch_similarity,
    )

    class _SearchFor:
        __slots__ = ("node_type", "confidence")

        def __init__(self, node_type, confidence):
            self.node_type = node_type
            self.confidence = confidence

    model = RankingModel()
    search_for = [_SearchFor("article", 0.7), _SearchFor("book", 0.3)]
    score_keywords = ("alpha", "beta", "gamma")
    candidates = [
        RefinedQuery(score_keywords[: 1 + (i % 3)], i % 4)
        for i in range(16)
    ]
    table = ScoreTable(0)
    for sf in search_for:
        table.g[sf.node_type] = 64
        for k in score_keywords:
            table.tf[(k, sf.node_type)] = 3
            table.ki[(k, sf.node_type)] = 0.5
            for ki in score_keywords:
                table.pair[(ki, k, sf.node_type)] = 0.25

    def run_batch_score():
        for rq in candidates:
            batch_similarity(
                table, None, model, rq, score_keywords, search_for
            )
            batch_dependence(table, None, model, rq, search_for)

    batch_score = _best_of(repeats, run_batch_score) / len(candidates)

    return Calibration(
        "measured",
        scan_posting=scan_posting,
        probe=probe,
        dp_partial=dp_partial,
        slca_posting=slca_posting,
        partition_visit=partition_visit,
        stack_posting=stack_posting,
        dispatch=_DEFAULTS["dispatch"],
        stack_push_pop=stack_push_pop,
        batch_score=batch_score,
    )


def calibration_for(index):
    """The calibration to plan ``index``'s queries with.

    Prefers the calibration loaded from (or previously stashed on) the
    index — frozen snapshots carry one — and otherwise micro-calibrates
    once, stashing the result so every engine over the same index
    shares it.  Falls back to :data:`DEFAULT_CALIBRATION` if
    measurement fails for any reason.
    """
    calibration = getattr(index, "calibration", None)
    if calibration is not None:
        return calibration
    try:
        calibration = micro_calibrate()
    except Exception:
        calibration = DEFAULT_CALIBRATION
    try:
        index.calibration = calibration
    except AttributeError:
        pass
    return calibration
