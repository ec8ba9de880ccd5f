"""SLE's step-1 walk and direct finish equal the loops they replace.

``sle_advance`` walks an anchor round's presence masks to the next
partition that needs a decision, passing over partitions an earlier
round visited (``mask & retired``) and counting repeats of memoized
masks; ``sle_direct`` finishes step 1 once ``Q`` has an answer, one
partition-local SLCA per unvisited ``Q``-covering partition.  Each is
held here, under the active backend and the pure-Python one, to a plain
per-partition loop: the walk to one over the masks, the finish to one
over a visited-pid *set* with per-partition
``QueryContext.meaningful_hits`` — which is also what shows the
retired-lane visited test is exact.
"""

from __future__ import annotations

import random
import sys
from array import array

import pytest

import repro.kernels.backend as backend_module
from repro import XRefine
from repro.core.common import QueryContext
from repro.core.short_list_eager import short_list_eager
from repro.errors import DeweyError
from repro.index import build_document_index
from repro.index.tokenize_text import query_terms
from repro.kernels import (
    ListColumns,
    MaskMemo,
    columns_for,
    partition_presence,
    sle_advance,
    sle_direct,
)
from repro.lexicon.rules import RuleSet, substitution_rule
from repro.slca.scan_eager import scan_eager_slca
from repro.verify.generate import DocumentGenerator, QueryGenerator
from repro.verify.oracle import response_fingerprint
from repro.workload import WorkloadGenerator
from repro.xmltree.dewey import Dewey

SLE_MODULE = sys.modules["repro.core.short_list_eager"]
COMMON_MODULE = sys.modules["repro.core.common"]


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
# sle_advance
# ----------------------------------------------------------------------
def _plain_walk(masks, start, retired, known):
    """``(stop, visited, repeats)`` of the loop ``sle_advance`` replaces."""
    repeats = [0] * len(known)
    visited = 0
    for position in range(start, len(masks)):
        mask = masks[position]
        if mask & retired:
            continue
        visited += 1
        if mask not in known:
            return position, visited, repeats
        repeats[known.index(mask)] += 1
    return len(masks), visited, repeats


def _random_round(rng):
    """Masks over a few lanes (lane 63 among them half the time), a
    retired-lane set and a list of known masks."""
    lanes = rng.sample(range(63), 5) + ([63] if rng.random() < 0.5 else [])
    pool = sorted({
        sum(1 << lane for lane in lanes if rng.random() < 0.5) or 1
        for _ in range(8)
    })
    masks = array("q", [_signed(rng.choice(pool)) for _ in range(
        rng.randint(0, 60)
    )])
    retired = sum(1 << lane for lane in lanes if rng.random() < 0.25)
    known = [_signed(mask) for mask in rng.sample(
        pool, rng.randint(0, len(pool))
    )]
    return masks, retired, known


@pytest.mark.parametrize("seed", range(40))
def test_advance_equals_the_plain_walk(seed, kernel_backend):
    rng = random.Random(seed)
    masks, retired, known = _random_round(rng)
    start = rng.randint(0, len(masks))
    memo = MaskMemo()
    for mask in known:
        memo.remember(mask, None)
    stop = sle_advance(masks, start, retired, memo)
    assert (stop, memo.visited, [times for times, _ in memo.drain()]) == (
        _plain_walk(masks, start, retired, known)
    )


@pytest.mark.parametrize("seed", range(20))
def test_a_whole_round_visits_each_partition_once(seed, kernel_backend):
    # SLE's use: remember every mask the walk stops at; the stops are
    # the first occurrences, and stops plus repeats are the partitions
    # no retired lane holds.
    rng = random.Random(1000 + seed)
    masks, retired, _ = _random_round(rng)
    memo = MaskMemo()
    stops = []
    position = sle_advance(masks, 0, retired, memo)
    while position < len(masks):
        stops.append(position)
        memo.remember(masks[position], None)
        position = sle_advance(masks, position + 1, retired, memo)
    open_positions = [
        i for i, mask in enumerate(masks) if not mask & retired
    ]
    first_seen = {}
    for i in open_positions:
        first_seen.setdefault(masks[i], i)
    assert stops == sorted(first_seen.values())
    assert memo.visited == len(open_positions)
    repeats = sum(times for times, _ in memo.drain())
    assert repeats + len(stops) == len(open_positions)


# ----------------------------------------------------------------------
# sle_direct
# ----------------------------------------------------------------------
def _probes_for(context, anchor):
    return sum(1 for keyword in context.keyword_space if keyword != anchor)


def _plain_finish(context, columns, earlier, anchors, start):
    """Per-partition ``meaningful_hits`` over a visited set of
    partition ids: the loop ``sle_direct`` replaces."""
    visited = set()
    for keyword in earlier:
        visited.update(columns[keyword].pids)
    visited.update(columns[anchors[0]].pids[:start])
    found = []
    slca_invocations = probes = skipped = newly = 0
    for keyword in anchors:
        for pid in columns[keyword].pids:
            if pid in visited:
                continue
            visited.add(pid)
            newly += 1
            spans = [
                columns[term].pid_range.get(pid) for term in context.query
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
    start = rng.randint(0, len(columns[anchors[0]].pids))

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
    keys = [
        lane_columns[lane].keys[position][:depth]
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

    memo = MaskMemo()
    assert sle_advance(masks, 0, 1 << 63, memo) == 1
    assert memo.visited == 1

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
    with pytest.raises(ValueError):
        partition_presence(column, [column] * 65)


def test_sle_over_a_sixty_four_lane_keyword_space(dblp_index, monkeypatch):
    # One query keyword plus 63 rule-generated ones: lane 63 is a
    # generated keyword, anchored (and so retired) early by the smart
    # choice.  Both backends agree on the answer and on every counter.
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
# SLE itself: a direct hit's post-flip partitions never reach Python
# ----------------------------------------------------------------------
def test_direct_hit_runs_post_flip_slcas_in_one_call(dblp_index, monkeypatch):
    if backend_module.compiled is None:
        pytest.skip("compiled backend unavailable on this host")
    step_one_calls = [0]
    finished = [0]
    real_hits = COMMON_MODULE.slca_hits
    real_direct = SLE_MODULE.sle_direct

    def counting_hits(column_ranges, need=None):
        step_one_calls[0] += 1
        return real_hits(column_ranges, need)

    def counting_direct(*args):
        hits, counts = real_direct(*args)
        finished[0] += counts[0]
        return hits, counts

    monkeypatch.setattr(COMMON_MODULE, "slca_hits", counting_hits)
    monkeypatch.setattr(SLE_MODULE, "sle_direct", counting_direct)
    engine = XRefine(dblp_index, cache_size=0)
    pool = WorkloadGenerator(dblp_index, seed=41).pool(refinable=0, clean=20)
    post_flip = 0
    for entry in pool:
        step_one_calls[0] = finished[0] = 0
        response = engine.search(list(entry.query), k=2, algorithm="sle")
        if response.needs_refinement:
            continue
        # Step 2 never runs on a direct hit: every slca_hits call is a
        # step-1 partition examined up to the flip.
        assert step_one_calls[0] + finished[0] == (
            response.stats.slca_invocations
        )
        post_flip += finished[0]
    assert post_flip > 0
