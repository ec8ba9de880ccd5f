"""Batch kernels must equal their per-node references, on both backends.

Every test here runs twice via the ``kernel_backend`` fixture: once
against whatever backend import selected (skipped when compilation was
unavailable) and once with the compiled library masked off, so the
pure-Python fallback is exercised in-process regardless of the host.
"""

from __future__ import annotations

import pytest

import repro.kernels.backend as backend_module
from repro.core.dp import MissingKeywordBound
from repro.index import build_document_index
from repro.index.inverted import key_tuples
from repro.index.tokenize_text import query_terms
from repro.kernels import (
    ListColumns,
    PresenceBoundCache,
    columns_for,
    merged_lcp,
    partition_view,
    slca_columns,
    slca_ranges,
)
from repro.slca.scan_eager import scan_eager_slca
from repro.verify.generate import DocumentGenerator, QueryGenerator
from repro.verify.oracle import (
    DocumentOracle,
    response_fingerprint,
    select,
)
from repro.xmltree.dewey import Dewey


@pytest.fixture(params=["active", "pure-python"])
def kernel_backend(request, monkeypatch):
    """Run the test under the active backend, then the pure fallback."""
    if request.param == "pure-python":
        monkeypatch.setattr(backend_module, "compiled", None)
    elif backend_module.compiled is None:
        pytest.skip("compiled backend unavailable on this host")
    return request.param


def _naive_merged_lcp(key_lists):
    """Sort-everything reference for :func:`merged_lcp`."""
    entries = sorted(
        (key, lane)
        for lane, keys in enumerate(key_lists)
        for key in keys
    )
    lanes, lcps = [], []
    previous = None
    for key, lane in entries:
        shared = 0
        if previous is not None:
            for a, b in zip(previous, key):
                if a != b:
                    break
                shared += 1
        lanes.append(lane)
        lcps.append(shared)
        previous = key
    return lanes, lcps


class TestAdversarialCorpusParity:
    """Property tests over the differential harness's generators."""

    @pytest.mark.parametrize("seed", range(6))
    def test_batch_slca_equals_per_node_scan(self, seed, kernel_backend):
        document = DocumentGenerator(seed=seed)
        queries = QueryGenerator(seed=seed + 1, vocabulary=document.words)
        for _ in range(4):
            index = build_document_index(document.tree())
            for query in queries.queries(6):
                terms = query_terms(query)
                lists = [index.inverted_list(term) for term in terms]
                if not terms or not all(len(lst) for lst in lists):
                    continue
                reference = scan_eager_slca(
                    [lst.labels() for lst in lists]
                )
                batch = slca_columns([columns_for(lst) for lst in lists])
                assert [str(d) for d in batch] == [
                    str(d) for d in reference
                ]

    @pytest.mark.parametrize("seed", range(4))
    def test_kernel_oracle_stays_clean(self, seed, kernel_backend):
        document = DocumentGenerator(seed=100 + seed)
        queries = QueryGenerator(seed=200 + seed,
                                 vocabulary=document.words)
        oracle = DocumentOracle(document.spec())
        for query in queries.queries(8):
            assert oracle.check(query, select("kernel")) == []

    @pytest.mark.parametrize("seed", range(3))
    def test_engine_results_identical_across_backends(
        self, seed, monkeypatch
    ):
        """Full searches fingerprint-identically compiled vs pure."""
        if backend_module.compiled is None:
            pytest.skip("compiled backend unavailable on this host")
        document = DocumentGenerator(seed=300 + seed)
        queries = QueryGenerator(seed=400 + seed,
                                 vocabulary=document.words)
        spec = document.spec()
        pool = queries.queries(6)

        def fingerprints():
            oracle = DocumentOracle(spec)
            prints = []
            for query in pool:
                try:
                    prints.append(response_fingerprint(
                        oracle.engine.search(query, k=2)
                    ))
                except Exception as error:  # typed errors must match too
                    prints.append((type(error).__name__, str(error)))
            return prints

        compiled_prints = fingerprints()
        monkeypatch.setattr(backend_module, "compiled", None)
        assert fingerprints() == compiled_prints

    @pytest.mark.parametrize("seed", range(4))
    def test_presence_bound_matches_uncached(self, seed, kernel_backend):
        document = DocumentGenerator(seed=500 + seed)
        queries = QueryGenerator(seed=600 + seed,
                                 vocabulary=document.words)
        oracle = DocumentOracle(document.spec())
        for query in queries.queries(5):
            terms = query_terms(query)
            if not terms:
                continue
            rules = oracle.engine.mine_rules(terms)
            lanes = list(dict.fromkeys(terms))
            lanes += sorted(rules.generated_keywords() - set(lanes))
            cache = PresenceBoundCache(terms, rules, lanes)
            uncached = MissingKeywordBound(terms, rules)
            for mask in range(1 << min(len(lanes), 8)):
                present = {
                    keyword
                    for lane, keyword in enumerate(lanes)
                    if mask & (1 << lane)
                }
                assert cache.lower_bound(mask) == uncached.lower_bound(
                    present
                ), (terms, mask)


#: Key universe for the exhaustive LCP sweeps: a root label, identical
#: paths, prefix chains, and sibling forks at two depths.
LCP_KEY_UNIVERSE = (
    (0,),
    (0, 0),
    (0, 0, 0),
    (0, 0, 1),
    (0, 1),
    (0, 1, 0, 2),
    (1,),
    (1, 0),
)


class TestMergedLcpEdgeCases:
    """Exhaustive Dewey LCP-table cases the stack route leans on."""

    def test_exhaustive_pairs(self, kernel_backend):
        for a in LCP_KEY_UNIVERSE:
            for b in LCP_KEY_UNIVERSE:
                columns = [ListColumns([a]), ListColumns([b])]
                lanes, lcps = merged_lcp(columns)
                naive = _naive_merged_lcp([[a], [b]])
                assert (list(lanes), list(lcps)) == naive, (a, b)

    def test_exhaustive_triples_with_multikey_lanes(self, kernel_backend):
        universe = LCP_KEY_UNIVERSE
        for i, a in enumerate(universe):
            for b in universe[i:]:
                for c in universe:
                    lane0 = sorted((a, b))
                    columns = [ListColumns(lane0), ListColumns([c])]
                    lanes, lcps = merged_lcp(columns)
                    naive = _naive_merged_lcp([lane0, [c]])
                    assert (list(lanes), list(lcps)) == naive, (a, b, c)

    def test_root_label_has_zero_lcp(self, kernel_backend):
        lanes, lcps = merged_lcp(
            [ListColumns([(0,)]), ListColumns([(0, 4, 1)])]
        )
        assert list(lcps) == [0, 1]
        assert list(lanes) == [0, 1]

    def test_identical_paths_tie_to_lowest_lane(self, kernel_backend):
        key = (0, 2, 1)
        lanes, lcps = merged_lcp(
            [ListColumns([key]), ListColumns([key]), ListColumns([key])]
        )
        assert list(lanes) == [0, 1, 2]
        assert list(lcps) == [0, len(key), len(key)]

    def test_one_is_prefix_of_other(self, kernel_backend):
        shorter = (0, 1)
        longer = (0, 1, 0, 0)
        # The shorter key sorts first; the adjacent LCP is its length.
        lanes, lcps = merged_lcp(
            [ListColumns([longer]), ListColumns([shorter])]
        )
        assert list(lanes) == [1, 0]
        assert list(lcps) == [0, len(shorter)]

    @pytest.mark.parametrize("key_lists", [
        # Siblings under one parent, then a parent change at equal depth.
        [[(0, 1), (0, 2), (1, 0), (1, 1)]],
        # Identical keys in three lanes: LCP is the full length.
        [[(0, 1, 2)], [(0, 1, 2)], [(0, 1, 2)]],
        # Consecutive roots: LCP 0 throughout.
        [[(0,), (1,), (2,)]],
        # A second lane interleaving a run of siblings.
        [[(0, 0, 1), (0, 0, 2), (0, 0, 4)], [(0, 0, 3)]],
        # Depth changes inside one lane.
        [[(0, 0), (0, 0, 1), (0, 0, 2), (0, 1)]],
    ], ids=["parent-change", "identical-lanes", "roots",
            "interleaved-siblings", "varying-depth"])
    def test_hand_built_streams(self, key_lists, kernel_backend):
        lanes, lcps = merged_lcp([ListColumns(keys) for keys in key_lists])
        assert (list(lanes), list(lcps)) == _naive_merged_lcp(key_lists)

    @pytest.mark.parametrize("seed", range(5))
    def test_generated_corpora(self, seed, kernel_backend):
        document = DocumentGenerator(seed=500 + seed)
        queries = QueryGenerator(seed=600 + seed, vocabulary=document.words)
        index = build_document_index(document.tree())
        for query in queries.queries(6):
            columns = [
                columns_for(index.inverted_list(term))
                for term in query_terms(query)
            ]
            lanes, lcps = merged_lcp(columns)
            naive = _naive_merged_lcp(
                [key_tuples(*column.flat_offs()) for column in columns]
            )
            assert (list(lanes), list(lcps)) == naive, query

    def test_empty_and_single_column(self, kernel_backend):
        assert merged_lcp([]) == ([], []) or tuple(
            map(list, merged_lcp([]))
        ) == ([], [])
        lanes, lcps = merged_lcp([ListColumns([(0, 1), (0, 2)])])
        assert list(lanes) == [0, 0]
        assert list(lcps) == [0, 1]


class TestSlcaRangeEdgeCases:
    def test_empty_range_returns_nothing(self, kernel_backend):
        column = ListColumns([(0, 1), (0, 2)])
        assert slca_ranges([(column, 0, 0), (column, 0, 2)]) == []
        assert slca_ranges([]) == []

    def test_identical_columns(self, kernel_backend):
        column = ListColumns([(0, 1, 0), (0, 2)])
        result = slca_ranges([(column, 0, 2), (column, 0, 2)])
        assert [tuple(d) for d in result] == [(0, 1, 0), (0, 2)]

    def test_subrange_matches_sliced_per_node(self, kernel_backend):
        keys_a = [(0, 1, 0), (0, 1, 2), (0, 3), (0, 4, 1)]
        keys_b = [(0, 1, 1), (0, 3, 0), (0, 4)]
        column_a, column_b = ListColumns(keys_a), ListColumns(keys_b)
        for a_lo in range(len(keys_a)):
            for a_hi in range(a_lo + 1, len(keys_a) + 1):
                reference = scan_eager_slca([
                    [Dewey.from_trusted(k) for k in keys_a[a_lo:a_hi]],
                    [Dewey.from_trusted(k) for k in keys_b],
                ])
                batch = slca_ranges([
                    (column_a, a_lo, a_hi),
                    (column_b, 0, column_b.size),
                ])
                assert [str(d) for d in batch] == [
                    str(d) for d in reference
                ]


class TestPartitionView:
    def test_view_matches_per_posting_regrouping(self, kernel_backend):
        keys_a = [(0,), (0, 1, 0), (0, 1, 2), (0, 3), (1, 0)]
        keys_b = [(0, 1, 1), (0, 3, 0), (2, 2)]
        columns = [ListColumns(keys_a), ListColumns(keys_b)]
        view = partition_view(columns)
        assert [pid for pid, _ in view] == [
            (0, 1), (0, 3), (1, 0), (2, 2)
        ]
        by_pid = dict(view)
        assert by_pid[(0, 1)] == [(1, 3), (0, 1)]
        assert by_pid[(0, 3)] == [(3, 4), (1, 2)]
        assert by_pid[(1, 0)] == [(4, 5), None]
        assert by_pid[(2, 2)] == [None, (2, 3)]
        assert columns[0].root_count == 1
        assert columns[1].root_count == 0
