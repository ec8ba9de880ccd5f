"""The names ``benchmarks/e2e`` reaches for inside the program.

The wire benchmark pins a calibration into every snapshot it freezes
(``inputs.py``), builds its own planner and wraps engine internals to
time layers (``layers.py``), and reads planner counters off ``/stats``.
Those files change only with the benchmark, so the program keeps every
name they touch; this test fails here, in tier-1, before a deletion
could fail the traced benchmark run instead.
"""

from __future__ import annotations

from repro import XRefine, build_document_index
from repro.datasets import generate_dblp
from repro.index import freeze_index, load_frozen_index
from repro.plan import Calibration

# ``layers.py``'s import block, name for name: importing them is the
# check, so most are not used below.
from repro.core import (QueryContext, partition_refine, short_list_eager,
                        stack_refine)
from repro.index.tokenize_text import query_terms
from repro.kernels import (ListColumns, backend_name, batch_dependence,
                           batch_similarity, merged_lcp, partition_view,
                           score_table, slca_columns)
from repro.perf.result_cache import QueryResultCache
from repro.plan import QueryPlanner
from repro.serve import RefineServer, SnapshotManager
from repro.serve.http import read_request, render_response
from repro.serve.wire import decode_search_body, encode_response

#: Field names ``inputs.PLANNER_CALIBRATION`` passes to Calibration.
CALIBRATION_FIELDS = (
    "scan_posting", "probe", "dp_partial", "slca_posting",
    "partition_visit", "stack_posting", "dispatch", "stack_push_pop",
    "batch_score",
)
QUERIES = (("databse", "systems"), ("xml", "keyword"), ("query",))


def test_pinned_calibration_is_accepted_and_inert(tmp_path):
    tree = generate_dblp(num_authors=20, seed=7)
    plain = build_document_index(tree)
    pinned = build_document_index(tree)
    pinned.calibration = Calibration(
        "measured", **{name: 1e-7 for name in CALIBRATION_FIELDS}
    )
    freeze_index(plain, tmp_path / "plain.frz")
    freeze_index(pinned, tmp_path / "pinned.frz")
    assert (tmp_path / "plain.frz").read_bytes() == (
        tmp_path / "pinned.frz"
    ).read_bytes()


def test_merged_lcp_gives_one_lane_and_lcp_per_posting():
    # _kernel_layer times merged_lcp over ListColumns of each keyword's
    # Dewey keys and divides by the posting count.
    index = build_document_index(generate_dblp(num_authors=20, seed=7))
    keys = [
        list(index.inverted_list(term).dewey_keys)
        for term in ("xml", "keyword", "query")
    ]
    total = sum(len(column) for column in keys)
    assert total
    lanes, lcps = merged_lcp([ListColumns(column) for column in keys])
    assert len(lanes) == len(lcps) == total


class _Traced:
    """``layers._Traced``: delegates, counting the named methods."""

    def __init__(self, inner, names, calls):
        self._inner = inner
        for attribute in names:
            method = getattr(inner, attribute)

            def counted(*args, _method=method, _name=attribute, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _method(*args, **kwargs)

            setattr(self, attribute, counted)

    def __getattr__(self, attribute):
        return getattr(self._inner, attribute)


def _stats_delta(before, after, *path):
    """``layers._delta``: a missing key raises, ``None`` reads as 0."""
    def dig(stats):
        for key in path:
            stats = stats[key] if stats is not None else None
        return stats or 0
    return dig(after) - dig(before)


def test_layers_names_and_stats_paths(tmp_path):
    index = build_document_index(generate_dblp(num_authors=30, seed=7))
    freeze_index(index, tmp_path / "c.frz")
    engine = XRefine(load_frozen_index(tmp_path / "c.frz"))
    k = 2

    # _plan_layer: a planner of its own over the engine's index.
    planner = QueryPlanner(engine.index, packed=engine.packed)
    for terms in QUERIES:
        rules = engine.mine_rules(terms)
        assert planner.plan(terms, rules, k).executed == "sle"

    # _route_layer: the engine's DP memos drive each fixed route.
    for terms in QUERIES:
        rules = engine.mine_rules(terms)
        memos = engine.planner.dp_memos(terms, rules, max(2 * k, 2))
        assert len(memos) == 3
        short_list_eager(engine.index, terms, rules=rules,
                         model=engine.model, k=k, dp_memos=memos[:2])
        partition_refine(engine.index, terms, rules=rules,
                         model=engine.model, k=k, dp_memos=memos[:2])
        stack_refine(engine.index, terms, rules=rules,
                     model=engine.model, dp_memo=memos[2])

    # instrument(): instance attributes and a settable _planner, each
    # of which search() must go through.
    calls = {}
    for attribute in ("mine_rules", "_execute_plan",
                      "_assemble_from_subresults"):
        method = getattr(engine, attribute)

        def counted(*args, _method=method, _name=attribute, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _method(*args, **kwargs)

        setattr(engine, attribute, counted)
    engine._planner = _Traced(engine.planner, ("plan",), calls)
    engine.result_cache = _Traced(engine.result_cache, ("get", "put"), calls)

    # _wire_counters: the /stats paths, read as before/after deltas.
    before = {"engine": engine.cache_stats()}
    for terms in QUERIES:
        engine.search(list(terms), k=k, algorithm="auto")
    after = {"engine": engine.cache_stats()}
    assert calls["_execute_plan"] == len(QUERIES)
    assert calls["plan"] == len(QUERIES)
    assert calls["get"] == calls["put"] == len(QUERIES)
    assert calls["mine_rules"] >= len(QUERIES)
    assert "_assemble_from_subresults" in calls

    routed = {
        route: _stats_delta(before, after, "engine", "planner", "routed",
                            route)
        for route in ("sle", "partition", "stack")
    }
    assert routed == {"sle": len(QUERIES), "partition": 0, "stack": 0}
    assert _stats_delta(before, after, "engine", "planner", "fallbacks") == 0
    for counter in ("hits", "misses"):
        assert _stats_delta(
            before, after, "engine", "planner", "plan_cache", counter
        ) == 0
    engine.index.frozen_snapshot.close()
