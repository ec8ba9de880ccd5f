"""Batch scoring kernels must equal their sequential references.

The scoring hot path has three batch kernels — partition presence,
the Top-2K admission sweep, and the Formula 2-9 batch scorer.  Every
parity test runs twice via the ``kernel_backend`` fixture: once under
whatever backend import selected (skipped when compilation was
unavailable) and once with the compiled library masked off, so the
pure-Python fallback is exercised in-process regardless of the host.
"""

from __future__ import annotations

import pytest

import repro.kernels.backend as backend_module
from repro.core.candidates import RefinedQuery, RQSortedList
from repro.core.common import QueryContext
from repro.core.ranking.model import RankingModel, full_model
from repro.index import build_document_index
from repro.index.tokenize_text import query_terms
from repro.kernels import (
    ListColumns,
    ScoreTable,
    admission_sweep,
    batch_dependence,
    batch_similarity,
    partition_presence,
    prepare_beam,
    supported_model,
)
from repro.lexicon.rules import RuleSet
from repro.verify.generate import DocumentGenerator, QueryGenerator


@pytest.fixture(params=["active", "pure-python"])
def kernel_backend(request, monkeypatch):
    """Run the test under the active backend, then the pure fallback."""
    if request.param == "pure-python":
        monkeypatch.setattr(backend_module, "compiled", None)
    elif backend_module.compiled is None:
        pytest.skip("compiled backend unavailable on this host")
    return request.param


# ----------------------------------------------------------------------
# Batch partition presence vs the per-pid pid_range probes
# ----------------------------------------------------------------------
def _naive_presence(anchor_columns, lane_columns):
    """The short-list route's original probe loop, verbatim."""
    nlanes = len(lane_columns)
    masks = []
    spans = []
    for pid in anchor_columns.pids:
        mask = 0
        row = []
        for lane, column in enumerate(lane_columns):
            span = column.pid_range.get(pid)
            if span is None:
                row.extend((-1, -1))
            else:
                mask |= 1 << lane
                row.extend(span)
        masks.append(mask)
        spans.extend(row)
    return masks, spans


def _assert_presence_matches(anchor_columns, lane_columns):
    masks, spans = partition_presence(anchor_columns, lane_columns)
    want_masks, want_spans = _naive_presence(anchor_columns, lane_columns)
    assert list(masks) == want_masks
    assert list(spans) == want_spans


class TestPartitionPresence:
    def test_matches_per_pid_probes(self, kernel_backend):
        columns = [
            ListColumns([(0, 1, 0), (0, 1, 2), (0, 3), (1, 0), (2, 2, 5)]),
            ListColumns([(0, 1, 1), (0, 3, 0), (2, 2)]),
            ListColumns([(1, 0, 4), (1, 0, 5), (3, 1)]),
        ]
        for anchor in columns:
            _assert_presence_matches(anchor, columns)

    def test_duplicate_keyword_lanes_share_a_column(self, kernel_backend):
        """A query repeating a keyword probes the same column twice."""
        shared = ListColumns([(0, 1, 0), (0, 2), (3, 1, 4)])
        other = ListColumns([(0, 2, 1), (3, 1)])
        lanes = [shared, other, shared]
        _assert_presence_matches(shared, lanes)
        masks, spans = partition_presence(shared, lanes)
        nlanes = len(lanes)
        for i in range(len(shared.pids)):
            # Both duplicate lanes see the partition identically.
            assert bool(masks[i] & 1) == bool(masks[i] & 4)
            base = i * nlanes * 2
            assert spans[base:base + 2] == spans[base + 4:base + 6]

    def test_single_posting_partitions(self, kernel_backend):
        anchor = ListColumns([(0, 0, 1), (0, 1, 2), (1, 5), (2, 0, 0, 3)])
        lanes = [anchor, ListColumns([(0, 1, 9), (2, 0, 1)])]
        _assert_presence_matches(anchor, lanes)
        masks, spans = partition_presence(anchor, lanes)
        # Every anchor partition holds exactly one posting.
        for i, pid in enumerate(anchor.pids):
            lo, hi = spans[i * 4], spans[i * 4 + 1]
            assert (lo, hi) == anchor.pid_range[pid]
            assert hi - lo == 1

    def test_absent_and_empty_lanes(self, kernel_backend):
        anchor = ListColumns([(0, 1, 0), (4, 4)])
        lanes = [anchor, ListColumns([(9, 9, 9)]), ListColumns([])]
        _assert_presence_matches(anchor, lanes)
        masks, spans = partition_presence(anchor, lanes)
        for i in range(len(anchor.pids)):
            assert masks[i] == 1  # only the anchor lane is present
            assert list(spans[i * 6 + 2:i * 6 + 6]) == [-1, -1, -1, -1]

    def test_root_postings_have_no_partition(self, kernel_backend):
        """Depth-0 labels belong to no partition (Definition 6.1)."""
        anchor = ListColumns([(0,), (0, 1), (0, 1, 2), (0, 2, 0)])
        assert anchor.root_count == 1
        assert anchor.pids == [(0, 1), (0, 2)]
        _assert_presence_matches(anchor, [anchor, ListColumns([(0,)])])


# ----------------------------------------------------------------------
# Admission sweep vs the sequential pre-check loop
# ----------------------------------------------------------------------
def _rq(keywords, dissimilarity):
    return RefinedQuery(tuple(keywords), dissimilarity)


def _sequential_admission(candidates, sorted_list, query_key):
    """The per-candidate loop the routes ran before the sweep."""
    kept = []
    for i, rq in enumerate(candidates):
        if rq.key == query_key:
            continue
        if sorted_list.has_key(rq.key) or sorted_list.would_admit(rq):
            kept.append(i)
    return kept


class TestAdmissionSweep:
    def test_not_full_keeps_everything_but_the_query(self):
        sorted_list = RQSortedList(4)
        sorted_list.insert(_rq(("a", "b"), 0.5))
        candidates = [_rq(("a", "b"), 0.5), _rq(("q",), 0.0),
                      _rq(("c",), 9.0)]
        swept = admission_sweep(
            prepare_beam(candidates), sorted_list, frozenset(("q",))
        )
        assert swept == [0, 2]

    def test_exactly_at_threshold_tie_is_rejected(self):
        """A candidate equal to the worst kept order cannot enter."""
        sorted_list = RQSortedList(2)
        sorted_list.insert(_rq(("a",), 1.0))
        sorted_list.insert(_rq(("b",), 2.0))  # worst: (2.0, ("b",))
        candidates = [
            _rq(("b",), 2.0),   # == worst, but key present: kept
            _rq(("c",), 2.0),   # ties dissimilarity, loses on content
            _rq(("aa",), 2.0),  # ties dissimilarity, wins on content
            _rq(("d",), 1.5),   # strictly better
            _rq(("e",), 3.0),   # strictly worse
        ]
        prepared = prepare_beam(candidates)
        swept = admission_sweep(prepared, sorted_list, frozenset(("x",)))
        assert swept == [0, 2, 3]
        assert swept == _sequential_admission(
            candidates, sorted_list, frozenset(("x",))
        )

    def test_matches_sequential_loop_on_entry_state(self):
        sorted_list = RQSortedList(3)
        for rq in (_rq(("a", "b"), 0.4), _rq(("c",), 1.2),
                   _rq(("d", "e"), 1.2)):
            sorted_list.insert(rq)
        query_key = frozenset(("a", "b"))
        candidates = [
            _rq(("a", "b"), 0.4), _rq(("b", "a"), 9.0), _rq(("c",), 5.0),
            _rq(("d", "e"), 1.2), _rq(("d", "a"), 1.2), _rq(("z",), 0.1),
            _rq(("d", "f"), 1.2), _rq(("c", "c"), 1.2),
        ]
        prepared = prepare_beam(candidates)
        assert admission_sweep(
            prepared, sorted_list, query_key
        ) == _sequential_admission(candidates, sorted_list, query_key)

    def test_superset_of_the_looped_inserts(self):
        """Replaying inserts over the swept indices reaches the same
        final list as the fully sequential loop — the sweep may only
        drop candidates the loop would also have rejected."""
        candidates = [
            _rq(("m", "n"), 2.0), _rq(("a",), 2.0), _rq(("b",), 2.0),
            _rq(("a",), 1.0), _rq(("k", "l", "m"), 0.5), _rq(("b",), 2.0),
            _rq(("z", "z2"), 4.0), _rq(("c",), 2.0),
        ]
        query_key = frozenset(("m", "n"))

        reference = RQSortedList(2)
        for rq in candidates:
            if rq.key == query_key:
                continue
            if reference.has_key(rq.key) or reference.would_admit(rq):
                reference.insert(rq)

        swept_list = RQSortedList(2)
        prepared = prepare_beam(candidates)
        for i in admission_sweep(prepared, swept_list, query_key):
            rq = candidates[i]
            if swept_list.has_key(rq.key) or swept_list.would_admit(rq):
                swept_list.insert(rq)

        assert [
            (rq.keywords, rq.dissimilarity) for rq in swept_list
        ] == [(rq.keywords, rq.dissimilarity) for rq in reference]


# ----------------------------------------------------------------------
# Batch Formula 2-9 scoring vs the reference ranking model
# ----------------------------------------------------------------------
def _reference_scores(index, model, rq, context):
    return (
        model.similarity_score(index, rq, context.query,
                               context.search_for),
        model.dependence_score(index, rq, context.search_for),
    )


def _batch_scores(table, index, model, rq, context):
    return (
        batch_similarity(table, index, model, rq, context.query,
                         context.search_for),
        batch_dependence(table, index, model, rq, context.search_for),
    )


class TestBatchScoringParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_model(self, seed, kernel_backend):
        document = DocumentGenerator(seed=700 + seed)
        queries = QueryGenerator(seed=800 + seed,
                                 vocabulary=document.words)
        index = build_document_index(document.tree())
        model = full_model()
        table = ScoreTable(getattr(index, "version", 0))
        for query in queries.queries(6):
            terms = query_terms(query)
            if not terms:
                continue
            context = QueryContext(index, terms, RuleSet())
            present = [k for k in context.keyword_space
                       if len(context.lists[k]) > 0]
            if not present:
                continue
            candidates = [
                _rq(present[:r], r % 3) for r in range(1, len(present) + 1)
            ]
            for rq in candidates:
                want = _reference_scores(index, model, rq, context)
                # Cold memo (misses) and warm memo (hits) must agree
                # byte for byte with the per-node reference.
                assert _batch_scores(table, index, model, rq,
                                     context) == want
                assert _batch_scores(table, index, model, rq,
                                     context) == want

    def test_duplicate_keywords_in_the_candidate(self, kernel_backend):
        document = DocumentGenerator(seed=910)
        index = build_document_index(document.tree())
        word = document.words[0]
        other = document.words[1]
        context = QueryContext(index, (word, other), RuleSet())
        if not context.search_for:
            pytest.skip("generator produced no scoreable corpus")
        model = full_model()
        table = ScoreTable(0)
        # Formula 2's tf sum iterates keywords as given (duplicates
        # count twice); Formula 8 deduplicates.  Both must replay.
        for rq in (_rq((word, word), 1), _rq((word, word, other), 2)):
            assert _batch_scores(
                table, index, model, rq, context
            ) == _reference_scores(index, model, rq, context)

    def test_empty_search_for_scores_zero(self, kernel_backend):
        document = DocumentGenerator(seed=911)
        index = build_document_index(document.tree())
        model = full_model()
        table = ScoreTable(0)
        rq = _rq(("anything",), 0)
        assert batch_similarity(table, index, model, rq,
                                ("anything",), []) == 0.0
        assert batch_dependence(table, index, model, rq, []) == 0.0

    def test_subclassed_model_keeps_the_reference_path(self):
        assert supported_model(RankingModel())
        assert supported_model(full_model())

        class Custom(RankingModel):
            pass

        assert not supported_model(Custom())
