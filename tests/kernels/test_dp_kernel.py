"""The compiled ``getOptimalRQ`` equals :func:`get_top_optimal_rqs`.

``repro_dp_top`` (and ``repro_sle_round``, for a DP row its rows lack)
runs Section V's DP over lane masks from a :class:`RuleTable`.  It is
held here to the Python DP on every output it has: the refined queries
in rank order, their keywords in derivation order (each once), their
dissimilarities and the dissimilarities' Python types.  Then the round
that uses it: rows computed inside the kernel, grown by Python only
when full, and the same answers and counters as the pure-Python twin.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.backend as backend_module
from repro.core.dp import get_top_optimal_rqs
from repro.core.short_list_eager import short_list_eager
from repro.kernels import RoundState, RuleTable
from repro.kernels.scoring import MaskRows, _int64
from repro.lexicon.rules import RefinementRule, RuleSet
from repro.verify.oracle import response_fingerprint
from repro.workload import WorkloadGenerator

pytestmark = pytest.mark.skipif(
    backend_module.compiled is None,
    reason="compiled backend unavailable on this host",
)

_WORDS = ("ab", "b", "ba", "c", "cd", "d", "e", "f")
_COSTS = (1, 2, 3, 0.5, 1.0, 1.5, 2.0)


def _shown(rqs):
    return [
        (rq.keywords, rq.dissimilarity, type(rq.dissimilarity))
        for rq in rqs
    ]


def _check(query, rules, lanes, mask, limit):
    """The compiled DP and the twin over the keywords of ``mask``."""
    table = RuleTable.build(query, rules, lanes)
    assert table is not None
    present = {
        keyword for lane, keyword in enumerate(lanes) if mask >> lane & 1
    }
    expected = _shown(get_top_optimal_rqs(query, present, rules, limit))
    actual = _shown(table.top(backend_module.compiled, mask, limit))
    assert actual == expected, (query, rules.all_rules(), present, limit)
    return expected


@st.composite
def _cases(draw):
    query = tuple(draw(st.lists(st.sampled_from(_WORDS), min_size=1,
                                max_size=5)))
    rules = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            # An LHS that is a run of the query, so the rule applies.
            width = draw(st.integers(1, min(3, len(query))))
            start = draw(st.integers(0, len(query) - width))
            lhs = query[start:start + width]
        else:
            lhs = tuple(draw(st.lists(st.sampled_from(_WORDS), min_size=1,
                                      max_size=3)))
        rhs = tuple(draw(st.lists(st.sampled_from(_WORDS), min_size=1,
                                  max_size=3)))
        rules.append(RefinementRule(lhs, rhs, "substitution",
                                    draw(st.sampled_from(_COSTS))))
    rule_set = RuleSet(rules, deletion_cost=draw(st.sampled_from(_COSTS)))
    lanes = tuple(sorted(set(query) | rule_set.generated_keywords()))
    full = (1 << len(lanes)) - 1
    mask = draw(st.one_of(
        st.just(0), st.just(full),
        st.sampled_from([1 << lane for lane in range(len(lanes))]),
        st.integers(0, full),
    ))
    return query, rule_set, lanes, mask, draw(st.integers(1, 8))


@settings(max_examples=600, deadline=None)
@given(_cases())
def test_compiled_dp_equals_the_twin(case):
    _check(*case)


def test_every_mask_of_a_tied_query():
    # Equal costs everywhere: int and float ones, a rule into a query
    # keyword, a two-keyword LHS, a duplicate keyword in the query.
    query = ("ab", "c", "ab", "d")
    rules = RuleSet([
        RefinementRule(("ab",), ("b", "c"), "split", 1),
        RefinementRule(("ab",), ("ba",), "substitution", 1.0),
        RefinementRule(("c", "ab"), ("cd",), "merging", 1),
        RefinementRule(("d",), ("ab", "e"), "substitution", 2),
        RefinementRule(("d",), ("f",), "substitution", 2.0),
    ], deletion_cost=2)
    lanes = tuple(sorted(set(query) | rules.generated_keywords()))
    kinds = set()
    for mask in range(1 << len(lanes)):
        for limit in (1, 2, 3, 8):
            for _, dis, kind in _check(query, rules, lanes, mask, limit):
                kinds.add(kind)
    assert kinds == {int, float}


def test_sixty_four_lanes():
    # Lane 63 is the sign bit of the mask the kernel reads.
    lanes = tuple(f"w{lane:02d}" for lane in range(64))
    query = ("w00", "w31", "w63", "w62")
    rules = RuleSet([
        RefinementRule(("w63",), ("w61", "w63"), "split", 1),
        RefinementRule(("w31", "w63"), ("w40",), "merging", 1),
        RefinementRule(("w62",), ("w63",), "substitution", 0.5),
    ])
    full = (1 << 64) - 1
    for mask in (0, full, 1 << 63, full ^ (1 << 63), (1 << 63) | 1,
                 (1 << 61) | (1 << 63) | (1 << 40), full ^ 1):
        for limit in (1, 4):
            _check(query, rules, lanes, mask, limit)
    assert RuleTable.build(query, rules, lanes + ("zz",)) is None


def test_costs_a_double_cannot_add_up_are_left_to_python():
    query = ("a", "b")
    big = RuleSet([RefinementRule(("a",), ("c",), "substitution", 1 << 50)])
    assert RuleTable.build(query, big, ("a", "b", "c")) is None
    odd = RuleSet(deletion_cost=math.nan)
    assert RuleTable.build(query, odd, ("a", "b")) is None


def _pool_queries(engine, count, seed=9):
    pool = WorkloadGenerator(engine.index, seed=seed).pool(
        refinable=count, clean=0
    )
    return [list(entry.query) for entry in pool]


def _sle(engine, terms, k, memos):
    response = short_list_eager(
        engine.index, terms, engine.mine_rules(terms), k=k, dp_memos=memos,
    )
    counters = response.stats.as_dict()
    del counters["elapsed_seconds"]
    return response_fingerprint(response), counters


def test_rows_grow_inside_the_round(dblp_engine, monkeypatch):
    # Rows are computed in the kernel, and the columns grow O(log rows)
    # times, each by at least doubling.  Answers and counters equal the
    # pure-Python twin's.
    from repro.core.dp import BeamMemo

    grows = []
    reserve = MaskRows.reserve

    def counting(rows, *more):
        before = tuple(rows.n[3:])
        reserve(rows, *more)
        if tuple(rows.n[3:]) != before:
            grows.append((before, tuple(rows.n[3:])))

    monkeypatch.setattr(MaskRows, "reserve", counting)
    widest = 0
    for terms in _pool_queries(dblp_engine, 40, seed=3):
        memos = ({}, BeamMemo())
        del grows[:]
        compiled = _sle(dblp_engine, terms, 5, memos)
        published = list(memos[1].mask_rows.values())
        rows = published[0].n[0] if published else 0
        widest = max(widest, rows)
        assert len(grows) <= math.log2(rows + 1) + 1, (terms, rows)
        for before, after in grows:
            assert all(a == b or a >= max(2 * b, 8)
                       for a, b in zip(after, before))
        with monkeypatch.context() as patch:
            patch.setattr(backend_module, "compiled", None)
            assert _sle(dblp_engine, terms, 5, ({}, BeamMemo())) == compiled
        # A second query of the identity reads the published rows and
        # adds none.
        assert _sle(dblp_engine, terms, 5, memos) == compiled
        assert list(memos[1].mask_rows.values()) == published
    assert widest > 32  # some query outgrew the first room


def test_a_round_with_rules_never_asks_the_callers_dp(dblp_engine):
    from repro.core.common import QueryContext
    from repro.kernels import PresenceBoundCache, columns_for, sle_round
    from repro.kernels import partition_presence

    def refuse(mask, beam):
        raise AssertionError("the compiled round asked for a DP row")

    asked = 0
    for terms in _pool_queries(dblp_engine, 6):
        rules = dblp_engine.mine_rules(terms)
        context = QueryContext(dblp_engine.index, terms, rules)
        lanes = tuple(sorted(set(context.keyword_space)))
        lane_columns = [columns_for(context.lists[k]) for k in lanes]
        walk = RoundState(
            4, lanes, lane_columns, context.query,
            PresenceBoundCache(context.query, rules, lanes), context.need,
            rules=rules,
        )
        reference = RoundState(
            4, lanes, lane_columns, context.query,
            PresenceBoundCache(context.query, rules, lanes), context.need,
        )

        def dp(mask, beam):
            present = {k for lane, k in enumerate(lanes) if mask >> lane & 1}
            top = get_top_optimal_rqs(context.query, present, rules,
                                      4 if beam else 1)
            if beam:
                return top
            return top[0].dissimilarity if top else float("inf")

        retired = 0
        for lane, column in enumerate(lane_columns):
            if not column.size:
                continue
            masks, spans = partition_presence(column, lane_columns)
            stop = sle_round(walk, masks, spans, retired, 3, refuse)
            assert stop == sle_round(reference, masks, spans, retired, 3, dp)
            assert _shown(walk.kept()) == _shown(reference.kept())
            assert walk.counters() == reference.counters()
            if stop < len(masks):
                break
            retired |= 1 << lane
        asked += walk.rows.n[0]
        assert walk.rows.n[0] == len(walk.rows.row_of)
        assert all(
            walk.rows.row_of[_int64(mask)] == row
            for row, mask in enumerate(walk.rows.masks[:walk.rows.n[0]])
        )
    assert asked


def test_costs_left_to_python_still_answer(dblp_engine, monkeypatch):
    # A Fraction deletion cost: no rule table, so the round asks the
    # route's Python DP for each row; answers equal the pure backend's.
    from fractions import Fraction

    from repro.core.dp import BeamMemo

    for terms in _pool_queries(dblp_engine, 4):
        mined = dblp_engine.mine_rules(terms)
        rules = RuleSet(mined, deletion_cost=Fraction(5, 2))

        def run():
            response = short_list_eager(
                dblp_engine.index, terms, rules, k=2,
                dp_memos=({}, BeamMemo()),
            )
            return (
                response_fingerprint(response),
                [rq.rq.dissimilarity for rq in response.candidates],
            )

        compiled = run()
        with monkeypatch.context() as patch:
            patch.setattr(backend_module, "compiled", None)
            assert run() == compiled
