"""SLE's step-1 round and direct finish equal the loops they replace.

``sle_round`` runs one anchor round of step 1 — pre-screen, the
``Q``-covering SLCA, the skip bounds and Top-2K admission — over the
round's presence columns; ``sle_direct`` finishes step 1 once ``Q`` has
an answer, one partition-local SLCA per unvisited ``Q``-covering
partition.  Each is held here, under the active backend and the
pure-Python one, to a plain per-partition loop: the round to the
per-partition ``examine`` loop SLE ran before it (an ``RQSortedList``,
the admission sweep, ``QueryContext``-style SLCAs over the keywords in
candidate order), the finish to one over a visited-pid *set* with
per-partition ``QueryContext.meaningful_hits`` — which is also what
shows the retired-lane visited test is exact.
"""

from __future__ import annotations

import random
import sys
from array import array
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.backend as backend_module
from repro import XRefine
from repro.core.candidates import RefinedQuery, RQSortedList
from repro.core.common import QueryContext
from repro.core.dp import get_top_optimal_rqs
from repro.core.short_list_eager import short_list_eager
from repro.errors import DeweyError
from repro.index import build_document_index
from repro.index.inverted import key_tuples
from repro.index.tokenize_text import query_terms
from repro.kernels import (
    ListColumns,
    PresenceBoundCache,
    RoundState,
    columns_for,
    partition_presence,
    sle_direct,
    sle_round,
    slca_hits,
)
from repro.kernels.scoring import _int64, _order_less
from repro.lexicon.rules import RuleSet, substitution_rule
from repro.slca.meaningful import NEVER_MEANINGFUL
from repro.slca.scan_eager import scan_eager_slca
from repro.verify.generate import DocumentGenerator, QueryGenerator
from repro.verify.oracle import response_fingerprint
from repro.workload import WorkloadGenerator
from repro.xmltree.dewey import Dewey

COMMON_MODULE = sys.modules["repro.core.common"]
SCORING_MODULE = sys.modules["repro.kernels.scoring"]
SLE_MODULE = sys.modules["repro.core.short_list_eager"]


@pytest.fixture(params=["active", "pure-python"])
def kernel_backend(request, monkeypatch):
    """Run the test under the active backend, then the pure fallback."""
    if request.param == "pure-python":
        monkeypatch.setattr(backend_module, "compiled", None)
    elif backend_module.compiled is None:
        pytest.skip("compiled backend unavailable on this host")
    return request.param


def _triples(hits):
    """A :class:`HitRecord` over lanes as flat ``(lane, position,
    depth)`` triples."""
    return [
        value
        for entry in zip(hits.lanes, hits.positions, hits.depths)
        for value in entry
    ]


def _signed(mask):
    return mask - (1 << 64) if mask >> 63 else mask


def _columns(keys):
    """A key column with a type-id column (every posting of type 0)."""
    return ListColumns(keys, array("H", [0] * len(keys)))


# ----------------------------------------------------------------------
# sle_round against the per-partition examine loop
# ----------------------------------------------------------------------
class _Dp:
    """A DP behind its own memos, logging every miss in order."""

    def __init__(self, beam_of, probe_of):
        self.beam_of = beam_of
        self.probe_of = probe_of
        self.beams = {}
        self.probes = {}
        self.misses = []

    def beam(self, present):
        if present not in self.beams:
            self.misses.append((present, True))
            self.beams[present] = self.beam_of(present)
        return self.beams[present]

    def probe(self, present):
        if present not in self.probes:
            self.misses.append((present, False))
            self.probes[present] = self.probe_of(present)
        return self.probes[present]


class _Case:
    """What a round and its reference both read: the lanes (keywords in
    string order) and their columns, the query, the bound, ``need`` and
    the Top-2K capacity."""

    def __init__(self, lanes, lane_columns, query, bound, need, capacity):
        self.lanes = lanes
        self.lane_columns = lane_columns
        self.query = tuple(query)
        self.bound = bound
        self.need = need
        self.capacity = capacity

    def present(self, mask):
        return frozenset(
            keyword for lane, keyword in enumerate(self.lanes)
            if mask >> lane & 1
        )


def _examine_round(case, dp, sorted_list, stats, masks, spans, retired,
                   per_partition):
    """One anchor round of the per-partition loop ``sle_round``
    replaces, while ``Q`` has no answer: returns the position of the
    first visited partition whose ``Q``-covering SLCA has meaningful
    hits — with that partition's counters taken back — or
    ``len(masks)``."""
    lanes = case.lanes
    nlanes = len(lanes)
    query_mask = 0
    for keyword in case.query:
        query_mask |= 1 << lanes.index(keyword)
    query_key = frozenset(case.query)

    def any_hit(ranges):
        return len(slca_hits(ranges, case.need)) > 0

    for position, mask in enumerate(masks):
        if mask & retired:
            continue
        before = dict(stats)
        stats["visited"] += 1
        sublists = {}
        for lane in range(nlanes):
            lo = spans[(position * nlanes + lane) * 2]
            if lo >= 0:
                sublists[lanes[lane]] = (
                    case.lane_columns[lane], lo,
                    spans[(position * nlanes + lane) * 2 + 1],
                )
        covers = mask & query_mask == query_mask
        if sorted_list.is_full and not covers and (
            case.bound.lower_bound(mask) > sorted_list.max_dissimilarity()
        ):
            stats["skipped"] += 1
            continue
        stats["probes"] += per_partition
        if covers:
            stats["slca"] += 1
            if any_hit([sublists[keyword] for keyword in case.query]):
                stats.update(before)
                return position
        present = case.present(mask)
        if sorted_list.is_full:
            threshold = sorted_list.max_dissimilarity()
            if case.bound.lower_bound(mask) > threshold:
                stats["skipped"] += 1
                continue
            stats["dp"] += 1
            if dp.probe(present) > threshold:
                stats["skipped"] += 1
                continue
        stats["dp"] += 1
        local_candidates = dp.beam(present)
        for rq in local_candidates:
            if rq.key == query_key:
                continue
            already_kept = sorted_list.has_key(rq.key)
            if not already_kept and not sorted_list.would_admit(rq):
                continue
            if not already_kept:
                stats["slca"] += 1
                if not any_hit([sublists[keyword] for keyword in rq.keywords]):
                    continue
            sorted_list.insert(rq)
    return len(masks)


def _compare_rounds(case, rounds, beam_of, probe_of, rows=None, retired=0):
    """``sle_round`` and :func:`_examine_round` over the same rounds
    ``[(masks, spans, anchor_lane, per_partition), ...]``, after the
    ``retired`` lanes' rounds: the kept list, the counters, the stop and
    the DP misses must agree after every round.  Returns the round state
    and the last stop."""
    walk = RoundState(
        case.capacity, case.lanes, case.lane_columns, case.query, case.bound,
        case.need, rows=rows,
    )
    walk_dp = _Dp(beam_of, probe_of)
    asked = []

    def dp(mask, beam):
        present = case.present(mask)
        asked.append((present, beam))
        return walk_dp.beam(present) if beam else walk_dp.probe(present)

    sorted_list = RQSortedList(case.capacity)
    stats = dict.fromkeys(("probes", "dp", "slca", "skipped", "visited"), 0)
    reference_dp = _Dp(beam_of, probe_of)
    stop = None
    for masks, spans, anchor_lane, per_partition in rounds:
        stop = sle_round(walk, masks, spans, retired, per_partition, dp)
        expected = _examine_round(
            case, reference_dp, sorted_list, stats, masks, spans, retired,
            per_partition,
        )
        assert stop == expected
        assert [
            (rq.keywords, rq.dissimilarity) for rq in walk.kept()
        ] == [(rq.keywords, rq.dissimilarity) for rq in sorted_list]
        assert walk.counters() == tuple(stats.values())
        assert walk.worst() == sorted_list.max_dissimilarity()
        if rows is None:
            # First contact asks for exactly the DP results the loop ran.
            assert asked == reference_dp.misses
        if stop < len(masks):
            break
        retired |= 1 << anchor_lane
    return walk, stop


def _query_case(index, terms, rules, k):
    """The lanes, rounds and DP of one real query, its anchors in a
    seeded random order."""
    context = QueryContext(index, terms, rules)
    lanes = sorted(set(context.keyword_space))
    lane_columns = [columns_for(context.lists[keyword]) for keyword in lanes]
    capacity = max(2 * k, 2)
    case = _Case(
        lanes, lane_columns, context.query,
        PresenceBoundCache(context.query, rules, lanes), context.need,
        capacity,
    )
    anchors = [lane for lane in range(len(lanes)) if lane_columns[lane].size]
    random.Random(" ".join(terms)).shuffle(anchors)
    rounds = [
        partition_presence(lane_columns[lane], lane_columns) + (
            lane,
            sum(1 for keyword in context.keyword_space
                if keyword != lanes[lane]),
        )
        for lane in anchors
    ]

    def probe_of(present):
        probe = get_top_optimal_rqs(context.query, present, rules, 1)
        return probe[0].dissimilarity if probe else float("inf")

    def beam_of(present):
        return get_top_optimal_rqs(context.query, present, rules, capacity)

    return case, rounds, beam_of, probe_of


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("seed", range(4))
def test_round_on_adversarial_corpora(seed, k, kernel_backend):
    document = DocumentGenerator(seed=seed)
    queries = QueryGenerator(seed=seed + 1, vocabulary=document.words)
    engine = XRefine(build_document_index(document.tree()))
    for query in queries.queries(8):
        terms = query_terms(query)
        if terms:
            _compare_rounds(*_query_case(
                engine.index, terms, engine.mine_rules(terms), k
            ))


@pytest.mark.parametrize("k", [1, 2, 5])
def test_round_on_a_corpus_with_many_partitions(dblp_engine, k,
                                                kernel_backend):
    pool = WorkloadGenerator(dblp_engine.index, seed=9).pool(
        refinable=10, clean=6
    )
    filled = 0
    for entry in pool:
        terms = list(entry.query)
        walk, _ = _compare_rounds(*_query_case(
            dblp_engine.index, terms, dblp_engine.mine_rules(terms), k
        ))
        filled += walk.is_full
    assert filled >= 5


def test_published_rows_resume_without_dp(dblp_engine, kernel_backend):
    # A second query of the same DP-memo identity starts from the rows
    # the first one left: no DP is asked for, and nothing changes.
    pool = WorkloadGenerator(dblp_engine.index, seed=9).pool(
        refinable=6, clean=0
    )
    for entry in pool:
        terms = list(entry.query)
        case, rounds, beam_of, probe_of = _query_case(
            dblp_engine.index, terms, dblp_engine.mine_rules(terms), 2
        )
        first, _ = _compare_rounds(case, rounds, beam_of, probe_of)
        again, _ = _compare_rounds(
            case, rounds, beam_of, probe_of, rows=first.rows,
        )
        assert not again.grown
        assert len(again.kept()) == len(first.kept())
        assert all(a is b for a, b in zip(again.kept(), first.kept()))


# ----------------------------------------------------------------------
# Crafted rounds: ties, prefix sets, lane 63, DP-miss resume
# ----------------------------------------------------------------------
#: Type 0 is meaningful at a partition's SLCA (depth 2); type 1 never.
_NEED = array("q", [1, NEVER_MEANINGFUL])


def _crafted(lanes, partitions, query, beams, capacity=2, deletion=0.5):
    """One crafted round: partition ``p`` holds one posting of each
    keyword in ``partitions[p][0]``, all of type ``partitions[p][1]``;
    the beam of a present set is every ``(keywords, dSim)`` of
    ``beams`` inside it, in order."""
    lanes = sorted(lanes)
    lane_columns = []
    for lane in range(len(lanes)):
        keys = []
        tids = []
        for p, (words, type_id) in enumerate(partitions):
            if lanes[lane] in words:
                keys.append((0, p, lane))
                tids.append(type_id)
        lane_columns.append(ListColumns(keys, array("H", tids)))
    anchor = ListColumns([(0, p) for p in range(len(partitions))])
    masks, spans = partition_presence(anchor, lane_columns)
    # By default a missing query keyword costs less than any crafted
    # dSim, so no presence bound skips.
    rules = RuleSet(deletion_cost=deletion)
    case = _Case(
        lanes, lane_columns, query,
        PresenceBoundCache(query, rules, lanes), _NEED, capacity,
    )
    candidates = [RefinedQuery(words, dis) for words, dis in beams]

    def beam_of(present):
        return [rq for rq in candidates if rq.key <= present]

    def probe_of(present):
        inside = beam_of(present)
        return min(rq.dissimilarity for rq in inside) if inside else (
            float("inf")
        )

    return case, [(masks, spans, len(lanes), 1)], beam_of, probe_of


def _random_round(rng):
    """A crafted round over 64 lanes: masks over a few of them (lane 63
    among them half the time), meaningful or not per partition, a
    retired-lane set, beams with tied dissimilarities, a small list."""
    words = [f"w{lane:02d}" for lane in range(64)]
    active = [words[lane] for lane in sorted(
        rng.sample(range(63), 5) + ([63] if rng.random() < 0.5 else [])
    )]
    pool = [
        frozenset(word for word in active if rng.random() < 0.5)
        or frozenset(active[:1])
        for _ in range(8)
    ]
    partitions = [
        (rng.choice(pool), rng.randint(0, 1))
        for _ in range(rng.randint(0, 60))
    ]
    beams = {}
    for _ in range(8):
        keywords = tuple(rng.sample(active, rng.randint(1, 3)))
        beams.setdefault(frozenset(keywords), (keywords, rng.choice([1, 2, 3])))
    case, rounds, beam_of, probe_of = _crafted(
        words, partitions, tuple(rng.sample(active, 2)), list(beams.values()),
        capacity=rng.choice([2, 3, 4]), deletion=rng.choice([0.5, 2.5]),
    )
    retired = sum(
        1 << words.index(word) for word in active if rng.random() < 0.25
    )
    return case, rounds, beam_of, probe_of, retired


@pytest.mark.parametrize("seed", range(40))
def test_advance_equals_the_plain_walk(seed, kernel_backend):
    # One round over random masks walks them as the per-partition loop
    # does: the same stop, kept list, counters and DP misses.
    case, rounds, beam_of, probe_of, retired = _random_round(
        random.Random(seed)
    )
    _compare_rounds(case, rounds, beam_of, probe_of, retired=retired)


@pytest.mark.parametrize("seed", range(20))
def test_a_whole_round_visits_each_partition_once(seed, kernel_backend):
    # Without a stop, every partition no retired lane holds is visited
    # exactly once, and no other.
    rng = random.Random(1000 + seed)
    case, rounds, beam_of, probe_of, retired = _random_round(rng)
    masks = rounds[0][0]
    walk, stop = _compare_rounds(
        case, rounds, beam_of, probe_of, retired=retired
    )
    open_positions = [
        i for i, mask in enumerate(masks) if not mask & retired
    ]
    if stop == len(masks):
        assert walk.counters()[4] == len(open_positions)
    else:
        assert walk.counters()[4] == open_positions.index(stop)


def test_equal_dissimilarities_keep_content_order(kernel_backend):
    words = ["a", "b", "c", "d", "e", "q"]
    beams = [
        (("d",), 1), (("c",), 1), (("b",), 1), (("a",), 1), (("b", "a"), 1),
    ]
    case, rounds, beam_of, probe_of = _crafted(
        words, [({"a", "b", "c", "d"}, 0)] * 3 + [({"a", "b", "e"}, 0)],
        ("q",), beams, capacity=3,
    )
    # The last partition offers {a, b} again at the same dSim: the kept
    # entry stays the first one.
    again = RefinedQuery(("a", "b"), 1)

    def beam_again(present):
        return beam_of(present) + ([again] if "e" in present else [])

    walk, _ = _compare_rounds(case, rounds, beam_again, probe_of)
    assert [rq.keywords for rq in walk.kept()] == [("a",), ("b", "a"), ("b",)]


def test_presence_bound_pre_screen(kernel_backend):
    # Deleting q costs 3: once the list is full (worst dSim 2), a
    # partition without q is skipped before any probe; one with q (never
    # a meaningful Q hit: type 1) is not.
    words = ["a", "b", "q"]
    case, rounds, beam_of, probe_of = _crafted(
        words,
        [({"a", "b"}, 0), ({"a"}, 0), ({"a", "q"}, 1), ({"b"}, 0),
         ({"b", "q"}, 1)],
        ("q",), [(("a",), 1), (("b",), 2)], capacity=2, deletion=3,
    )
    walk, _ = _compare_rounds(case, rounds, beam_of, probe_of)
    # probes, dp, slca, skipped, visited
    assert walk.counters() == (3, 5, 4, 2, 5)


def test_prefix_keyword_sets(kernel_backend):
    # {a, c} sorts before {a, c, e}, which sorts before {a, d}.
    words = ["a", "c", "d", "e", "q"]
    beams = [
        (("a", "d"), 2), (("e", "c", "a"), 2), (("c", "a"), 2), (("e",), 3),
    ]
    case = _crafted(
        words, [({"a", "c", "d", "e"}, 0), ({"a", "c", "e"}, 0)], ("q",),
        beams, capacity=2,
    )
    walk, _ = _compare_rounds(*case)
    assert [rq.key for rq in walk.kept()] == [
        frozenset("ac"), frozenset("ace"),
    ]


def test_lane_sixty_three(kernel_backend):
    # 64 lanes: lane 63 is every mask's sign bit, in the keys and the
    # tie order alike.
    words = [f"w{lane:02d}" for lane in range(64)]
    beams = [
        (("w00", "w63"), 1), (("w63",), 1), (("w00", "w62"), 1),
        (("w62", "w63"), 1), (("w01",), 2),
    ]
    case = _crafted(
        words,
        [({"w00", "w01", "w62", "w63"}, 0), ({"w63", "w00"}, 0),
         ({"w01", "w62"}, 1)],
        ("w00", "w05"), beams, capacity=3,
    )
    walk, _ = _compare_rounds(*case)
    assert [rq.keywords for rq in walk.kept()] == [
        ("w00", "w62"), ("w00", "w63"), ("w62", "w63"),
    ]
    assert walk.top_masks[1] == _signed(1 | 1 << 63)


def test_improved_dissimilarity_reinserts(kernel_backend):
    # A kept key met again at a lower dSim moves up (no SLCA: it is
    # kept); at a higher one it stays.  A new candidate whose SLCA is not
    # meaningful (type 1) is turned away, and evictions go by.
    words = ["a", "b", "c", "d", "q"]
    partitions = [
        ({"a", "b", "c"}, 0), ({"a", "c"}, 1), ({"a", "c"}, 0),
        ({"a", "b"}, 0), ({"d"}, 0),
    ]
    case, rounds, _, _ = _crafted(words, partitions, ("q",), [], capacity=3)
    by_present = {
        frozenset("abc"): [("a", 3), ("b", 2), ("c", 4)],
        frozenset("ac"): [("c", 1), ("ac", 2.5), ("a", 5)],
        frozenset("ab"): [("a", 1), ("b", 6)],
        frozenset("d"): [("d", 1.5)],
    }
    by_present = {
        present: [RefinedQuery(tuple(words), dis) for words, dis in beam]
        for present, beam in by_present.items()
    }

    def probe_of(present):
        return min(rq.dissimilarity for rq in by_present[present])

    walk, _ = _compare_rounds(case, rounds, by_present.get, probe_of)
    assert [(rq.keywords, rq.dissimilarity) for rq in walk.kept()] == [
        (("a",), 1), (("c",), 1), (("d",), 1.5),
    ]


def test_a_covering_partition_stops_the_round_uncounted(kernel_backend):
    # Partition 0 covers Q but its SLCA is not meaningful (type 1): it is
    # counted and admission goes on — Q itself, first in the beam, is no
    # candidate.  Partition 2's is: the round stops there with none of
    # its counters applied.
    words = ["a", "b", "q"]
    case = _crafted(
        words,
        [({"a", "q"}, 1), ({"b"}, 0), ({"a", "q"}, 0), ({"b", "q"}, 0)],
        ("a", "q"), [(("a", "q"), 0), (("a",), 1), (("b",), 1)],
    )
    walk, stop = _compare_rounds(*case)
    assert stop == 2
    assert walk.counters() == (2, 2, 3, 0, 2)


def test_dp_miss_resumes_where_it_stopped(kernel_backend):
    # Rows known for one mask only: the round asks for the others at the
    # point the loop needs them, and resumes there.
    words = ["a", "b", "c", "q"]
    partitions = [
        ({"a", "b"}, 0), ({"a", "c"}, 0), ({"a", "b"}, 0), ({"b", "c"}, 0),
        ({"a", "b", "c"}, 0),
    ]
    beams = [(("a",), 1), (("b",), 2), (("c",), 2), (("a", "c"), 3)]
    case, rounds, beam_of, probe_of = _crafted(
        words, partitions, ("q",), beams, capacity=2,
    )
    primed = RoundState(
        case.capacity, case.lanes, case.lane_columns, case.query, case.bound,
        case.need,
    )
    primed.fill(_signed(0b0011), True, beam_of(frozenset("ab")))
    walk, _ = _compare_rounds(
        case, rounds, beam_of, probe_of, rows=primed.rows,
    )
    assert walk.grown
    assert len(walk.rows.row_of) == 4


def test_a_handed_back_slca_answers_or_raises(kernel_backend):
    # Keys of different documents in one row: the compiled round hands
    # the SLCA back, and the per-node path answers (the second lane's
    # (0, 2) takes the anchor to depth 1 before (1, 0) is reached) ...
    lanes = ["a", "b", "c"]
    lane_columns = [
        _columns([(0, 1), (0, 5, 1)]),
        _columns([(0, 2), (0, 5, 2)]),
        _columns([(0, 5, 3), (1, 0)]),
    ]
    spans = array("q", [0, 1, 0, 1, 1, 2])
    case = _Case(
        lanes, lane_columns, ("a", "b", "c"),
        PresenceBoundCache(("a", "b", "c"), RuleSet(), lanes),
        array("q", [1]), 2,
    )
    beams = [RefinedQuery(("a", "b", "c"), 0)]
    rounds = [(array("q", [0b111]), spans, 0, 2)]
    _, stop = _compare_rounds(case, rounds, lambda present: beams,
                              lambda present: 0)
    assert stop == 0  # Q's own SLCA: the round stops there

    # ... or raises the exact DeweyError.
    left = [(0, 1), (0, 2, 1)]
    right = [(1, 0), (1, 3)]
    with pytest.raises(DeweyError) as reference:
        scan_eager_slca([
            [Dewey.from_trusted(key) for key in left],
            [Dewey.from_trusted(key) for key in right],
        ])
    case = _Case(
        ["a", "b", "q"], [_columns(left), _columns(right), _columns([])],
        ("q",), PresenceBoundCache(("q",), RuleSet(), ["a", "b", "q"]),
        array("q", [1]), 2,
    )
    walk = RoundState(2, case.lanes, case.lane_columns, case.query,
                      case.bound, case.need)
    with pytest.raises(DeweyError) as raised:
        sle_round(
            walk, array("q", [0b011]),
            array("q", [0, 2, 0, 2, -1, -1]), 0, 1,
            lambda mask, beam: [RefinedQuery(("a", "b"), 1)] if beam else 1,
        )
    assert str(raised.value) == str(reference.value)


# ----------------------------------------------------------------------
# The mask tie order is the sorted-keyword-tuple order
# ----------------------------------------------------------------------
_WORDS = [f"k{i:02d}" for i in range(70)]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.frozensets(st.sampled_from(_WORDS), min_size=1, max_size=6),
            st.sampled_from([0, 1, 1.5, 2]),
        ),
        min_size=2, max_size=6,
    ),
    st.booleans(),
)
def test_mask_order_is_content_order(entries, narrow):
    # Lanes over a prefix of the words (in string order): 64 of them
    # (lane 63 the sign bit of an int64 mask) or all 70 (Python ints).
    lanes = _WORDS[:64] if narrow else _WORDS
    lane_of = {word: lane for lane, word in enumerate(lanes)}
    entries = [
        (keys & set(lanes), dis) for keys, dis in entries
        if keys & set(lanes)
    ]
    for (a_keys, a_dis), (b_keys, b_dis) in combinations(entries, 2):
        a_mask = sum(1 << lane_of[word] for word in a_keys)
        b_mask = sum(1 << lane_of[word] for word in b_keys)
        if narrow:
            a_mask, b_mask = _int64(a_mask), _int64(b_mask)
        for (x, xm, xd), (y, ym, yd) in (
            ((a_keys, a_mask, a_dis), (b_keys, b_mask, b_dis)),
            ((b_keys, b_mask, b_dis), (a_keys, a_mask, a_dis)),
        ):
            assert _order_less(xd, xm, yd, ym) == (
                (xd, tuple(sorted(x))) < (yd, tuple(sorted(y)))
            )


# ----------------------------------------------------------------------
# sle_direct
# ----------------------------------------------------------------------
def _pids(column):
    """A column's partition ids as ``(component, component)`` tuples."""
    pid_flat = column.pid_flat
    return list(zip(pid_flat[0::2], pid_flat[1::2]))


def _pid_range(column):
    """pid -> ``(lo, hi)`` posting range of one column."""
    return dict(zip(_pids(column), zip(column.starts, column.ends)))


def _probes_for(context, anchor):
    return sum(1 for keyword in context.keyword_space if keyword != anchor)


def _plain_finish(context, columns, earlier, anchors, start):
    """Per-partition ``meaningful_hits`` over a visited set of
    partition ids: the loop ``sle_direct`` replaces."""
    visited = set()
    for keyword in earlier:
        visited.update(_pids(columns[keyword]))
    visited.update(_pids(columns[anchors[0]])[:start])
    found = []
    slca_invocations = probes = skipped = newly = 0
    ranges = {term: _pid_range(columns[term]) for term in context.query}
    for keyword in anchors:
        for pid in _pids(columns[keyword]):
            if pid in visited:
                continue
            visited.add(pid)
            newly += 1
            spans = [
                ranges[term].get(pid) for term in context.query
            ]
            if None in spans:
                skipped += 1
                continue
            slca_invocations += 1
            probes += _probes_for(context, keyword)
            found += context.meaningful_hits([
                (columns[term],) + span
                for term, span in zip(context.query, spans)
            ])[0].keys()
    return found, (slca_invocations, probes, skipped, newly)


def _check_direct(engine, terms, rng):
    """``sle_direct`` vs :func:`_plain_finish` for one query, over a
    random split of its lanes into earlier rounds, the round under way
    (from a random partition on) and later rounds; returns the number
    of partition-local SLCAs it ran."""
    context = QueryContext(engine.index, terms, engine.mine_rules(terms))
    lanes = list(dict.fromkeys(context.keyword_space))
    lane_of = {keyword: lane for lane, keyword in enumerate(lanes)}
    columns = {
        keyword: columns_for(context.lists[keyword]) for keyword in lanes
    }
    lane_columns = [columns[keyword] for keyword in lanes]
    order = rng.sample(lanes, len(lanes))
    split = rng.randint(0, len(order) - 1)
    earlier, anchors = order[:split], order[split:]
    start = rng.randint(0, len(columns[anchors[0]].starts))

    expected, counts = _plain_finish(
        context, columns, earlier, anchors, start
    )
    rounds = [
        partition_presence(columns[keyword], lane_columns)
        + (lane_of[keyword], _probes_for(context, keyword))
        for keyword in anchors
    ]
    hits, actual_counts = sle_direct(
        rounds, start, sum(1 << lane_of[k] for k in earlier),
        [lane_of[term] for term in context.query],
        sum(1 << lane_of[term] for term in set(context.query)),
        lane_columns, context.need,
    )
    lane_keys = [key_tuples(*column.flat_offs()) for column in lane_columns]
    keys = [
        lane_keys[lane][position][:depth]
        for lane, position, depth in zip(hits.lanes, hits.positions,
                                         hits.depths)
    ]
    assert hits.columns == tuple(lane_columns)
    assert hits.keys() == keys
    assert (keys, actual_counts) == (expected, counts), (terms, order)
    return counts[0]


@pytest.mark.parametrize("seed", range(6))
def test_direct_on_adversarial_corpora(seed, kernel_backend):
    document = DocumentGenerator(seed=seed)
    queries = QueryGenerator(seed=seed + 1, vocabulary=document.words)
    rng = random.Random(seed)
    for _ in range(4):
        engine = XRefine(build_document_index(document.tree()))
        for query in queries.queries(6):
            terms = query_terms(query)
            if terms:
                _check_direct(engine, terms, rng)


def test_direct_on_a_corpus_with_many_partitions(dblp_engine, kernel_backend):
    rng = random.Random(3)
    pool = WorkloadGenerator(dblp_engine.index, seed=9).pool(
        refinable=12, clean=12
    )
    covering = sum(
        _check_direct(dblp_engine, list(entry.query), rng) for entry in pool
    )
    assert covering >= 10


def _direct_over(lane_columns, masks, spans, query_lanes):
    """``sle_direct`` over one crafted round anchored on lane 0."""
    query_mask = sum(1 << lane for lane in query_lanes)
    return sle_direct(
        [(array("q", masks), array("q", spans), 0, 5)], 0, 0,
        query_lanes, query_mask, lane_columns, array("q", [1]),
    )


def test_cross_document_range_raises_the_per_node_error(kernel_backend):
    left = [(0, 1), (0, 2, 1)]
    right = [(1, 0), (1, 3)]
    with pytest.raises(DeweyError) as reference:
        scan_eager_slca([
            [Dewey.from_trusted(key) for key in left],
            [Dewey.from_trusted(key) for key in right],
        ])
    with pytest.raises(DeweyError) as finished:
        _direct_over(
            [_columns(left), _columns(right)], [3], [0, 2, 0, 2], [0, 1]
        )
    assert str(finished.value) == str(reference.value)


def test_a_handed_back_partition_that_answers_is_kept(kernel_backend):
    # The per-node path answers when its depth-1 early exit never
    # compares the unrelated pair: the second lane's (0, 2) takes the
    # anchor to depth 1 before the third lane's (1, 0) is reached.  The
    # walk then resumes with the next partition.
    lane_columns = [
        _columns([(0, 1), (0, 5, 1)]),
        _columns([(0, 2), (0, 5, 2)]),
        _columns([(0, 5, 3), (1, 0)]),
    ]
    spans = [0, 1, 0, 1, 1, 2] + [1, 2, 1, 2, 0, 1]
    hits, counts = _direct_over(lane_columns, [7, 7], spans, [0, 1, 2])
    assert _triples(hits) == [0, 0, 1, 0, 1, 2]
    assert counts == (2, 10, 0, 2)


def test_direct_grows_its_hit_buffer(kernel_backend):
    # 300 sibling SLCAs in one partition: more than the first buffer.
    lane_columns = [
        _columns([(0, 1, i, 0) for i in range(300)]),
        _columns([(0, 1, i, 1) for i in range(300)]),
    ]
    hits, counts = _direct_over(lane_columns, [3], [0, 300, 0, 300], [0, 1])
    assert _triples(hits) == [
        value for i in range(300) for value in (0, i, 3)
    ]
    assert counts == (1, 5, 0, 1)


# ----------------------------------------------------------------------
# 64 lanes: lane 63 is the sign bit of every mask
# ----------------------------------------------------------------------
def test_sixty_four_lanes(kernel_backend):
    lane_columns = [_columns([(0, 1, 0), (0, 2, 0), (0, 3, 0)])]
    lane_columns += [_columns([]) for _ in range(61)]
    lane_columns.append(_columns([(0, 2, 5)]))            # lane 62
    lane_columns.append(_columns([(0, 1, 1), (0, 3, 1)]))  # lane 63
    masks, spans = partition_presence(lane_columns[0], lane_columns)
    assert isinstance(masks, array) and masks.typecode == "q"
    assert isinstance(spans, array) and spans.typecode == "q"
    assert list(masks) == [
        _signed(1 | 1 << 63), 1 | 1 << 62, _signed(1 | 1 << 63)
    ]

    hits, counts = sle_direct(
        [(masks, spans, 0, 63)], 0, 1 << 62, [0, 63], 1 | 1 << 63,
        lane_columns, array("q", [1]),
    )
    assert _triples(hits) == [0, 0, 2, 0, 2, 2]
    assert counts == (2, 126, 0, 2)


def test_presence_is_an_int64_array_on_every_path(kernel_backend):
    column = _columns([(0, 1, 0)])
    empty = ListColumns([])
    for anchor, lanes in ((empty, [column]), (column, []), (column, [column])):
        masks, spans = partition_presence(anchor, lanes)
        assert masks.typecode == spans.typecode == "q"


def test_presence_past_sixty_four_lanes_is_python_ints(kernel_backend):
    column = _columns([(0, 1, 0)])
    masks, spans = partition_presence(
        column, [ListColumns([])] * 64 + [column]
    )
    assert masks == [1 << 64]
    assert spans.typecode == "q" and list(spans[-2:]) == [0, 1]


def test_sle_over_a_sixty_four_lane_keyword_space(dblp_index, monkeypatch):
    # One query keyword plus 63 rule-generated ones: lane 63 is a
    # generated keyword.  Both backends agree on the answer and on every
    # counter.
    query = ("database",)
    vocabulary = sorted(
        keyword for keyword in dblp_index.inverted.keywords()
        if keyword.isalpha() and keyword != query[0]
    )
    rules = RuleSet(
        substitution_rule(query[0], target, ds=2)
        for target in random.Random(5).sample(vocabulary, 63)
    )
    assert len(QueryContext(dblp_index, query, rules).keyword_space) == 64

    def run():
        response = short_list_eager(dblp_index, query, rules, k=2)
        counters = response.stats.as_dict()
        del counters["elapsed_seconds"]
        return response_fingerprint(response), counters

    active = run()
    monkeypatch.setattr(backend_module, "compiled", None)
    assert run() == active


# ----------------------------------------------------------------------
# SLE itself: no partition-local SLCA of step 1 reaches Python, and a
# direct hit's post-flip partitions are one call
# ----------------------------------------------------------------------
def test_direct_hit_runs_post_flip_slcas_in_one_call(dblp_index,
                                                      monkeypatch):
    if backend_module.compiled is None:
        pytest.skip("compiled backend unavailable on this host")
    python_calls = [0]
    finished = [0]

    def counting(real):
        def hits(column_ranges, need=None):
            python_calls[0] += 1
            return real(column_ranges, need)
        return hits

    def counting_direct(*args):
        hits, counts = real_direct(*args)
        finished[0] += counts[0]
        return hits, counts

    real_direct = SLE_MODULE.sle_direct
    monkeypatch.setattr(
        COMMON_MODULE, "slca_hits", counting(COMMON_MODULE.slca_hits)
    )
    monkeypatch.setattr(
        SCORING_MODULE, "slca_hits", counting(SCORING_MODULE.slca_hits)
    )
    monkeypatch.setattr(SLE_MODULE, "sle_direct", counting_direct)
    engine = XRefine(dblp_index, cache_size=0)
    pool = WorkloadGenerator(dblp_index, seed=41).pool(refinable=12, clean=12)
    post_flip = 0
    for entry in pool:
        python_calls[0] = finished[0] = 0
        response = engine.search(list(entry.query), k=2, algorithm="sle")
        if response.needs_refinement:
            # Only step 2's whole-list SLCAs, one per kept candidate.
            assert python_calls[0] <= 2 * 2
            continue
        # A direct hit: the round and the direct finish ran every SLCA.
        assert python_calls[0] == 0
        assert finished[0] <= response.stats.slca_invocations
        post_flip += finished[0]
    assert post_flip > 0
