"""Cross-algorithm differential oracle: one table of rows.

Each :class:`Row` of :data:`TABLE` is one divergence kind.  It names
the code it guards, the reference that code is held to and the
comparison (``==`` or ``is``); its ``pair`` function computes
``(expected, actual)`` for one query, or ``None`` where the row does
not apply (an absent term, a one-partition document, a query its
reversal does not change).  A failed comparison is a
:class:`Divergence`, carrying enough context for the shrinker to
reproduce and reduce it by re-running that one row.

What the rows share:

* a :class:`QueryMemo`, which builds the mined rules, the three
  routes' cold responses and the warm engine's repeated answers once
  per query;
* the document's two views, each built once per document on first
  use: a frozen snapshot of the built index, mmapped back from an
  unlinked temp file, and a delta chain — the document minus its last
  partition frozen as a base, that partition re-added through a delta
  — whose compaction must be byte-identical to refreezing the
  chain-loaded index;
* :func:`_per_backend`, which runs a kernel row's code under the
  active backend and then, when that one is compiled, under the
  pure-Python one, so one sweep holds both backends to the same
  references.
"""

from __future__ import annotations

import operator
import os
import shutil
import tempfile
from functools import cached_property, partial

from ..core.common import QueryContext
from ..core.dp import MissingKeywordBound, get_top_optimal_rqs
from ..core.engine import XRefine
from ..core.partition_refine import partition_refine
from ..core.ranking.memo import ScoreMemo
from ..core.ranking.model import full_model
from ..core.ranking.results import rank_response_results
from ..core.short_list_eager import short_list_eager
from ..core.stack_refine import stack_refine
from ..index import (
    append_partition,
    compact,
    freeze_index,
    load_frozen_index,
    load_index_chain,
    remove_partition,
    save_delta,
)
from ..index.blocks import encode_posting_payload
from ..index.builder import build_document_index
from ..index.inverted import InvertedList, key_tuples
from ..index.tokenize_text import query_terms
from ..kernels import backend as kernel_backend
from ..kernels import (
    PresenceBoundCache,
    RuleTable,
    columns_for,
    merged_lcp,
    partition_view,
    slca_hits,
    slca_ranges,
)
from ..lexicon.rules import RuleSet
from ..serve.wire import encode_response
from ..slca.lca import brute_force_slca
from ..slca.meaningful import is_meaningful
from ..slca.scan_eager import scan_eager_slca
from ..slca.stack import stack_slca
from ..xmltree.build import build_tree

#: SLCA variants diffed against the brute-force reference.
SLCA_VARIANTS = {
    "stack": stack_slca,
    "scan": scan_eager_slca,
}

#: The refinement routes evaluated directly, and the engine's names.
ROUTES = ("partition", "sle", "stack")
ALGORITHMS = ROUTES + ("auto",)

#: Subtree appended (then removed) by ``invariant:update-roundtrip``;
#: common generator vocabulary, so it overlaps live inverted lists.
ROUNDTRIP_SPEC = ("probe", "xml data query", [("node", "tree web", [])])

_OPS = {"==": operator.eq, "is": operator.is_}
_FAILED = {"==": "!=", "is": "is not"}


class Divergence:
    """One disagreement between code paths on one (document, query)."""

    __slots__ = ("kind", "detail", "spec", "query", "expected", "actual")

    def __init__(self, kind, detail, spec, query, expected, actual):
        self.kind = kind
        self.detail = detail
        self.spec = spec
        self.query = tuple(query)
        self.expected = expected
        self.actual = actual

    def __repr__(self):
        return f"Divergence({self.kind}, query={self.query!r})"

    def describe(self):
        return (
            f"[{self.kind}] query={' '.join(self.query)!r}: {self.detail}\n"
            f"  expected: {self.expected}\n"
            f"  actual:   {self.actual}"
        )


class Row:
    """One divergence kind: ``guards`` must ``op`` its ``reference``."""

    __slots__ = ("kind", "guards", "op", "reference", "pair")

    def __init__(self, kind, guards, op, reference, pair):
        self.kind = kind
        self.guards = guards
        self.op = op
        self.reference = reference
        self.pair = pair

    @property
    def detail(self):
        return f"{self.guards} {_FAILED[self.op]} {self.reference}"

    def check(self, memo):
        """This row's :class:`Divergence` on ``memo``'s query, or None."""
        pair = self.pair(memo)
        if pair is None:
            return None
        memo.oracle.compared += 1
        if _OPS[self.op](*pair):
            return None
        return Divergence(
            self.kind, self.detail, memo.oracle.spec, memo.query, *pair
        )


def response_fingerprint(response):
    """Canonical, comparable form of a RefinementResponse.

    Everything a caller can observe is included; scan accounting and
    timings (legitimately different across algorithms) are not.
    """
    return (
        tuple(response.query),
        response.needs_refinement,
        tuple(str(d) for d in response.original_results),
        tuple(
            (
                tuple(r.rq.keywords),
                r.rq.dissimilarity,
                tuple(str(d) for d in r.slcas),
                r.rank_score,
                r.similarity_score,
                r.dependence_score,
            )
            for r in response.refinements
        ),
        tuple(
            (tuple(c.node_type), c.confidence) for c in response.search_for
        ),
    )


def _strs(labels):
    return [str(d) for d in labels]


#: Sentinel: the delta-chain artifacts have not been built yet.
_UNBUILT = object()


class DocumentOracle:
    """The table's checks for one document; reusable across queries."""

    def __init__(self, spec, k=2):
        self.spec = spec
        self.k = k
        self.tree = build_tree(spec)
        self.index = build_document_index(self.tree)
        #: Warm engine: result cache enabled.
        self.engine = XRefine(self.index)
        #: Its cache-disabled twin.
        self.cold_engine = XRefine(self.index, cache_size=0)
        self._frozen_engine = None
        self._chain_state = _UNBUILT
        self._column_views = None
        #: Comparisons made so far: rows whose ``pair`` applied.
        self.compared = 0

    def check(self, query, rows=None):
        """``query``'s divergences over ``rows`` (default: every row)."""
        memo = QueryMemo(self, query)
        if not memo.terms:
            return []
        found = (row.check(memo) for row in (TABLE if rows is None else rows))
        return [divergence for divergence in found if divergence]

    @property
    def frozen_engine(self):
        """Engine over a frozen-snapshot round trip of the built index."""
        if self._frozen_engine is None:
            handle, path = tempfile.mkstemp(suffix=".frz")
            os.close(handle)
            try:
                freeze_index(self.index, path)
                self._frozen_engine = XRefine(load_frozen_index(path))
            finally:
                os.unlink(path)
        return self._frozen_engine

    @property
    def chain_state(self):
        """``(chain_engine, compaction_identical)``, or ``None``.

        ``None`` when the document has fewer than two partitions —
        there is no partition to peel into a delta.
        """
        if self._chain_state is _UNBUILT:
            self._chain_state = self._build_chain_state()
        return self._chain_state

    def view(self, name):
        """The engine serving the document through ``name``, or None."""
        if name == "frozen":
            return self.frozen_engine
        state = self.chain_state
        return None if state is None else state[0]

    def _build_chain_state(self):
        tag = self.spec[0]
        text = self.spec[1] if len(self.spec) > 1 else None
        children = list(self.spec[2]) if len(self.spec) > 2 else []
        if len(children) < 2:
            return None

        reduced = build_document_index(
            build_tree((tag, text, children[:-1]))
        )
        workdir = tempfile.mkdtemp(prefix="oracle_chain_")
        try:
            base = os.path.join(workdir, "base.frz")
            delta = os.path.join(workdir, "delta.dlt")
            freeze_index(reduced, base)
            working = load_frozen_index(base)
            append_partition(working, children[-1])
            save_delta(working, delta, base)
            chain_engine = XRefine(load_index_chain(delta))

            compacted = os.path.join(workdir, "compacted.frz")
            refrozen = os.path.join(workdir, "refrozen.frz")
            compact(delta, compacted)
            freeze_index(load_index_chain(delta), refrozen)
            with open(compacted, "rb") as a, open(refrozen, "rb") as b:
                compaction_identical = a.read() == b.read()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return chain_engine, compaction_identical

    @property
    def column_views(self):
        """``[(name, index), ...]`` the type-id column is held to.

        The built index; its frozen snapshot; an index whose first
        partition was re-appended under a fresh tag and then removed —
        both update paths, leaving postings typed by ids the original
        table did not have; and the delta-chain top where the document
        has one.
        """
        if self._column_views is None:
            views = [
                ("built", self.index),
                ("frozen", self.frozen_engine.index),
            ]
            children = list(self.spec[2]) if len(self.spec) > 2 else []
            if children:
                updated = build_document_index(build_tree(self.spec))
                first = updated.tree.root.children[0].dewey
                append_partition(
                    updated, ("moved",) + tuple(children[0][1:])
                )
                remove_partition(updated, first)
                views.append(("updated", updated))
            if self.chain_state is not None:
                views.append(("chain", self.chain_state[0].index))
            self._column_views = views
        return self._column_views


class QueryMemo:
    """One query's inputs, each built at most once and shared by rows."""

    def __init__(self, oracle, query):
        self.oracle = oracle
        self.query = tuple(query)
        self.terms = query_terms(query)

    @cached_property
    def rules(self):
        return self.oracle.engine.mine_rules(self.terms)

    @cached_property
    def lists(self):
        return [self.oracle.index.inverted.get(term) for term in self.terms]

    @cached_property
    def labels(self):
        return [lst.labels() for lst in self.lists]

    @cached_property
    def columns(self):
        return [columns_for(lst) for lst in self.lists]

    @cached_property
    def brute_force(self):
        return _strs(brute_force_slca(self.oracle.tree, self.labels))

    @cached_property
    def cold(self):
        """The three routes' responses, each from a direct call."""
        oracle = self.oracle
        shared = dict(rules=self.rules, model=oracle.engine.model)
        return {
            "partition": partition_refine(
                oracle.index, self.terms, k=oracle.k, **shared
            ),
            "sle": short_list_eager(
                oracle.index, self.terms, k=oracle.k, **shared
            ),
            "stack": stack_refine(oracle.index, self.terms, **shared),
        }

    @cached_property
    def fingerprints(self):
        return {
            name: response_fingerprint(r) for name, r in self.cold.items()
        }

    @cached_property
    def warm(self):
        """``{algorithm: (first, second)}`` from the warm engine."""
        search = partial(
            self.oracle.engine.search, self.terms, k=self.oracle.k
        )
        return {
            name: (search(algorithm=name), search(algorithm=name))
            for name in ALGORITHMS
        }

    def built(self, algorithm):
        """The warm engine's answer fingerprint for ``algorithm``."""
        return response_fingerprint(self.warm[algorithm][1])

    @cached_property
    def partitions(self):
        """``({(a, b): spans per lane}, roots per lane)`` by regrouping
        each column's keys posting by posting."""
        table = {}
        roots = []
        for lane, column in enumerate(self.columns):
            count = 0
            for position, key in enumerate(key_tuples(*column.flat_offs())):
                if len(key) < 2:
                    count += 1
                    continue
                spans = table.setdefault(key[:2], [None] * len(self.columns))
                span = spans[lane]
                spans[lane] = (
                    (position, position + 1)
                    if span is None
                    else (span[0], position + 1)
                )
            roots.append(count)
        return table, roots

    @cached_property
    def engine_slcas(self):
        return self.oracle.engine.slca_search(self.terms)

    @cached_property
    def reversed_terms(self):
        """The terms reversed, or None when that changes nothing."""
        reversed_terms = tuple(reversed(self.terms))
        return None if reversed_terms == tuple(self.terms) else reversed_terms

    @cached_property
    def permuted(self):
        """``(base, swapped)`` answers under the single-keyword rules.

        Merging and acronym rules match an adjacent run of keywords,
        which a permutation can break, so only the rules whose
        left-hand side is one keyword are kept.
        """
        mined = self.rules
        rules = RuleSet(
            (rule for rule in mined if len(rule.lhs) == 1),
            deletion_cost=mined.deletion_cost,
        )
        search = partial(
            self.oracle.engine.search, k=self.oracle.k, rules=rules
        )
        return search(self.terms), search(self.reversed_terms)


def _per_backend(compute):
    """``compute()`` under the active backend, then the pure-Python one
    when the active one is compiled."""
    active = kernel_backend.compiled
    results = []
    for lib in (active,) if active is None else (active, None):
        kernel_backend.compiled = lib
        try:
            results.append(compute())
        finally:
            kernel_backend.compiled = active
    return results


def _agreement(values):
    """``(expected, actual)`` over the routes that disagree with the
    first: its value for each of them, and theirs."""
    reference = next(iter(values.values()), None)
    odd = {name: value for name, value in values.items() if value != reference}
    return {name: reference for name in odd}, odd


# ----------------------------------------------------------------------
# Row pairs: each returns (expected, actual) or None.
# ----------------------------------------------------------------------
def _slca_variant(name, m):
    return m.brute_force, _strs(SLCA_VARIANTS[name](m.labels))


def _slca_engine_cold(m):
    return m.brute_force, _strs(m.oracle.cold_engine.slca_search(m.terms))


def _slca_engine_warm(m):
    m.oracle.engine.slca_search(m.terms)  # prime the result cache
    return m.brute_force, _strs(m.oracle.engine.slca_search(m.terms))


def _partition_vs_sle(m):
    return m.fingerprints["partition"], m.fingerprints["sle"]


def _needs_flag(m):
    return _agreement({n: r.needs_refinement for n, r in m.cold.items()})


def _original_results(m):
    return _agreement({
        n: tuple(_strs(r.original_results)) for n, r in m.cold.items()
    })


def _optimal_dsim(m):
    return _agreement({
        n: min((c.rq.dissimilarity for c in r.candidates), default=None)
        for n, r in m.cold.items()
        if r.needs_refinement
    })


def _partition_skip(m):
    oracle = m.oracle
    unpruned = partition_refine(
        oracle.index, m.terms, rules=m.rules, model=oracle.engine.model,
        k=oracle.k, skip_optimization=False,
    )
    return response_fingerprint(unpruned), m.fingerprints["partition"]


def _cache_hit(algorithm, m):
    return m.warm[algorithm]


def _warm_vs_cold(algorithm, m):
    return m.fingerprints[algorithm], m.built(algorithm)


def _auto_serial(m):
    return m.built("partition"), response_fingerprint(m.warm["auto"][0])


def _auto_warm(m):
    first, second = m.warm["auto"]
    return (
        (True, m.built("partition")),
        (second is first, response_fingerprint(second)),
    )


def _view_postings(view, m):
    engine = m.oracle.view(view)
    if engine is None:
        return None
    return (
        [_strs(labels) for labels in m.labels],
        [_strs(engine.index.inverted.get(t).labels()) for t in m.terms],
    )


def _view_slca(view, m):
    engine = m.oracle.view(view)
    if engine is None:
        return None
    return _strs(m.engine_slcas), _strs(engine.slca_search(m.terms))


def _view_route(view, algorithm, m):
    engine = m.oracle.view(view)
    if engine is None:
        return None
    return m.built(algorithm), response_fingerprint(
        engine.search(m.terms, k=m.oracle.k, algorithm=algorithm)
    )


def _chain_compaction(m):
    state = m.oracle.chain_state
    if state is None:
        return None
    chain_engine, identical = state
    # Report once per document, not for every query.
    m.oracle._chain_state = (chain_engine, True)
    return True, identical


def _subresult_assembly(m):
    # Refinements issued as their own queries, result cache emptied:
    # a deposited signature comes through sub-result assembly.
    k = m.oracle.k
    warm = XRefine(m.oracle.index)
    cold = XRefine(m.oracle.index, cache_size=0)
    first = warm.search(m.terms, k=k, algorithm="auto")
    followups = [list(r.rq.keywords) for r in first.refinements]
    followups.append(list(m.terms))
    warm.result_cache.clear()
    assembled, reference = [], []
    for follow in followups:
        assembled.append(response_fingerprint(
            warm.search(follow, k=k, algorithm="auto")
        ))
        reference.append(response_fingerprint(
            cold.search(follow, k=k, algorithm="auto")
        ))
    return reference, assembled


def _slca_batch(m):
    if not all(m.labels):
        return None
    return _strs(scan_eager_slca(m.labels)), _strs(
        slca_ranges([(c, 0, c.size) for c in m.columns])
    )


def _lcp_table(m):
    # Equal keys break toward the lowest lane, like the strict-<
    # cursor merge the table replaced.
    entries = sorted(
        (key, lane)
        for lane, column in enumerate(m.columns)
        for key in key_tuples(*column.flat_offs())
    )
    lanes, lcps = [], []
    previous = ()
    for key, lane in entries:
        shared = 0
        for a, b in zip(previous, key):
            if a != b:
                break
            shared += 1
        lanes.append(lane)
        lcps.append(shared if lcps else 0)
        previous = key
    merged_lanes, merged_lcps = merged_lcp(m.columns)
    return (lanes, lcps), (list(merged_lanes), list(merged_lcps))


def _partition_view(m):
    table, roots = m.partitions
    return (sorted(table.items()), roots), (
        [(pid, list(spans)) for pid, spans in partition_view(m.columns)],
        [c.root_count for c in m.columns],
    )


def _slca_emit(m):
    shared = [
        spans for _, spans in sorted(m.partitions[0].items())
        if None not in spans
    ]
    expected = [
        _strs(scan_eager_slca([
            labels[lo:hi] for labels, (lo, hi) in zip(m.labels, spans)
        ]))
        for spans in shared
    ]
    runs = _per_backend(lambda: [
        _strs(slca_ranges([
            (column, lo, hi) for column, (lo, hi) in zip(m.columns, spans)
        ]))
        for spans in shared
    ])
    return [expected] * len(runs), runs


def _meaningful_column(m):
    return tuple(zip(*(
        _meaningful_by_tree_and_column(index, m.terms, m.rules)
        for _, index in m.oracle.column_views
    )))


def _meaningful_by_tree_and_column(index, terms, rules):
    """``(by_tree, by_column)`` over one index's SLCA hits.

    Each holds one entry per call — the whole lists, then every
    partition all of ``terms`` share — of ``(every hit is a node,
    per-hit verdicts, meaningful results' labels, any)``.  The tree
    side looks each SLCA's label up and applies Definition 3.3 to the
    node's own type; the column side asks :class:`QueryContext`, whose
    kernel call applies it as the SLCAs are emitted.
    """
    context = QueryContext(index, terms, rules)
    types = context.search_for_types
    columns = [columns_for(context.lists[term]) for term in terms]
    calls = [[(column, 0, column.size) for column in columns]]
    calls += [
        [(column, lo, hi) for column, (lo, hi) in zip(columns, spans)]
        for _, spans in partition_view(columns)
        if None not in spans
    ]
    by_tree = []
    by_column = []
    for column_ranges in calls:
        hits = slca_hits(column_ranges)
        labels = hits.deweys()
        nodes = [index.tree.get(label) for label in labels]
        verdicts = [
            node is not None and is_meaningful(label, node.node_type, types)
            for label, node in zip(labels, nodes)
        ]
        kept = [
            str(label) for label, verdict in zip(labels, verdicts) if verdict
        ]
        by_tree.append((True, verdicts, kept, bool(kept)))
        anchor = hits.columns[0] if hits.columns else None
        by_column.append((
            None not in nodes,
            [
                context.is_meaningful_at(anchor, position, depth)
                for position, depth in zip(hits.positions, hits.depths)
            ],
            context.meaningful_hits(column_ranges)[0].labels(),
            context.any_meaningful_hit(column_ranges),
        ))
    return by_tree, by_column


def _presence_bound(m):
    # Every presence subset of the keyword-space lanes, capped: the
    # subsets double per lane.
    lanes = list(dict.fromkeys(m.terms))
    lanes += sorted(m.rules.generated_keywords() - set(lanes))
    cache = PresenceBoundCache(m.terms, m.rules, lanes)
    uncached = MissingKeywordBound(m.terms, m.rules)
    masks = range(1 << min(len(lanes), 10))
    return [
        uncached.lower_bound({
            keyword for lane, keyword in enumerate(lanes) if mask >> lane & 1
        })
        for mask in masks
    ], [cache.lower_bound(mask) for mask in masks]


def _codec(m):
    def written():
        out = []
        for lst in m.lists:
            arrays = lst.arrays()
            payload = encode_posting_payload(
                lst.keyword, key_tuples(arrays.flat, arrays.offs),
                arrays.tids, arrays.counts,
            )
            out.append((payload, InvertedList.open(
                lst.keyword, payload, lst.type_table
            ).arrays()))
        return out

    runs = _per_backend(written)
    return (
        runs[-1] + [lst.arrays() for lst in m.lists],
        runs[0] + [arrays for _, arrays in runs[-1]],
    )


def _sle_round(m):
    def run():
        response = short_list_eager(
            m.oracle.index, m.terms, m.rules, k=m.oracle.k
        )
        counters = response.stats.as_dict()
        del counters["elapsed_seconds"]
        return response_fingerprint(response), counters

    runs = _per_backend(run)
    return runs[-1], runs[0]


#: Presence masks the ``kernel:dp-rows`` row runs per query, at most.
DP_ROW_MASK_BITS = 10


def _dp_rows(m):
    # Every presence mask of the keyword space's lanes, capped: past
    # DP_ROW_MASK_BITS lanes the top enumerated bit brings every higher
    # lane along.  Beams of the Top-2K width and 1-beam probes, with the
    # dissimilarities' types, through the compiled DP (the twin itself
    # under the pure-Python backend, as short-list step 1 runs it).
    lib = kernel_backend.compiled
    query = tuple(m.terms)
    lanes = tuple(sorted(set(query) | m.rules.generated_keywords()))
    table = RuleTable.build(query, m.rules, lanes) if lib else None
    low = min(len(lanes), DP_ROW_MASK_BITS)
    upper = (1 << len(lanes)) - (1 << low)
    capacity = max(2 * m.oracle.k, 2)

    def shown(rqs):
        return [
            (rq.keywords, rq.dissimilarity, type(rq.dissimilarity).__name__)
            for rq in rqs
        ]

    expected = []
    actual = []
    for mask in range(1 << low):
        if mask >> (low - 1) & 1:
            mask |= upper
        present = {
            keyword for lane, keyword in enumerate(lanes) if mask >> lane & 1
        }
        for limit in (1, capacity):
            twin = get_top_optimal_rqs(query, present, m.rules, limit)
            expected.append(shown(twin))
            actual.append(shown(
                twin if table is None else table.top(lib, mask, limit)
            ))
    return expected, actual


def _ranking_memo(m):
    index = m.oracle.index
    context = QueryContext(index, m.terms, m.rules)
    present = {
        keyword
        for keyword in context.keyword_space
        if len(context.lists[keyword]) > 0
    }
    if not present:
        return None
    candidates = get_top_optimal_rqs(
        context.query, present, m.rules, max(2 * m.oracle.k, 2)
    )
    model = full_model()

    def scores(memo):
        return [
            (
                model.similarity_score(
                    index, rq, context.query, context.search_for, memo
                ),
                model.dependence_score(index, rq, context.search_for, memo),
            )
            for rq in candidates
        ]

    warm = scores(None)
    return scores(ScoreMemo(index)), warm


def _wire_labels(m):
    # Each route's fresh response and a copy of it are encoded before
    # anything reads their results (labels rendered from hit records),
    # then again after; a third is encoded after rank_results
    # reordered its lists.
    index, k = m.oracle.index, m.oracle.k
    routes = (
        lambda: partition_refine(index, m.terms, rules=m.rules, k=k),
        lambda: short_list_eager(index, m.terms, rules=m.rules, k=k),
        lambda: stack_refine(index, m.terms, rules=m.rules),
    )

    def sent(response):
        payload = encode_response(response)
        return (
            payload["original_results"],
            [refinement["slcas"] for refinement in payload["refinements"]],
        )

    def read(response):
        return (
            _strs(response.original_results),
            [_strs(r.slcas) for r in response.refinements],
        )

    def encodings():
        expected, actual = [], []
        for route in routes:
            fresh = route()
            clone = fresh.copy()
            unread = [sent(fresh), sent(clone)]
            ranked = route()
            rank_response_results(index, ranked)
            for response, labels in zip((fresh, clone), unread):
                expected += [read(response)] * 2
                actual += [labels, sent(response)]
            expected.append(read(ranked))
            actual.append(sent(ranked))
        return expected, actual

    return tuple(zip(*_per_backend(encodings)))


def _ancestor_free(m):
    slcas = m.engine_slcas
    return [], [
        (str(a), str(b))
        for i, a in enumerate(slcas)
        for b in slcas[i + 1:]
        if a.is_ancestor_of(b) or b.is_ancestor_of(a)
    ]


def _order_slca(m):
    if m.reversed_terms is None:
        return None
    return sorted(_strs(m.engine_slcas)), sorted(
        _strs(m.oracle.engine.slca_search(m.reversed_terms))
    )


def _order_flag(m):
    if m.reversed_terms is None:
        return None
    base, swapped = m.permuted
    return base.needs_refinement, swapped.needs_refinement


def _order_original(m):
    flags = _order_flag(m)
    if flags is None or flags[0] != flags[1]:
        return None  # invariant:order:flag reports it
    base, swapped = m.permuted
    return sorted(_strs(base.original_results)), sorted(
        _strs(swapped.original_results)
    )


def _order_refinements(m):
    original = _order_original(m)
    if original is None or original[0] != original[1]:
        return None  # an earlier invariant:order row reports it
    return tuple(
        {frozenset(r.rq.keywords) for r in response.refinements}
        for response in m.permuted
    )


def _topk_prefix(m):
    # Only when the candidate pool fit the smaller run's 2K working
    # list too: then both rank the same candidates and must nest.
    engine, k = m.oracle.engine, m.oracle.k
    small = engine.search(m.terms, k=k)
    large = engine.search(m.terms, k=k + 2)
    if len(large.candidates) > 2 * k:
        return None
    small_keys = [tuple(r.rq.keywords) for r in small.refinements]
    large_keys = [tuple(r.rq.keywords) for r in large.refinements]
    return large_keys[: len(small_keys)], small_keys


def _update_roundtrip(m):
    engine, k = m.oracle.engine, m.oracle.k
    before = response_fingerprint(engine.search(m.terms, k=k))
    node = append_partition(m.oracle.index, ROUNDTRIP_SPEC)
    remove_partition(m.oracle.index, node.dewey)
    return before, response_fingerprint(engine.search(m.terms, k=k))


def _view_rows(view, where):
    return (
        Row(f"{view}:postings", f"each term's posting list {where}", "==",
            "the built index's", partial(_view_postings, view)),
        Row(f"{view}:slca", f"slca_search {where}", "==",
            "the built index's", partial(_view_slca, view)),
        *(
            Row(f"{view}:{algorithm}", f"search({algorithm}) {where}", "==",
                "the built index's", partial(_view_route, view, algorithm))
            for algorithm in ALGORITHMS
        ),
    )


#: Every row, in evaluation order (rows that mutate the index last).
TABLE = (
    # --- SLCA: every implementation vs a subtree-check reference.
    *(
        Row(f"slca:{name}:cold", f"{fn.__name__} on the label lists", "==",
            "brute_force_slca", partial(_slca_variant, name))
        for name, fn in SLCA_VARIANTS.items()
    ),
    Row("slca:engine:cold", "slca_search with the result cache off", "==",
        "brute_force_slca", _slca_engine_cold),
    Row("slca:engine:warm", "slca_search from the result cache", "==",
        "brute_force_slca", _slca_engine_warm),
    # --- Refinement: the three routes called directly, then warm.
    Row("refine:partition-vs-sle", "short_list_eager (Algorithm 3)", "==",
        "partition_refine (Algorithm 2)", _partition_vs_sle),
    Row("refine:needs-flag", "each route's needs_refinement", "==",
        "Algorithm 2's", _needs_flag),
    Row("refine:original-results", "each route's original results", "==",
        "Algorithm 2's", _original_results),
    Row("refine:optimal-dsim", "each refining route's optimal dSim", "==",
        "the first refining route's", _optimal_dsim),
    Row("refine:partition-skip", "partition_refine with its skip bound",
        "==", "partition_refine(skip_optimization=False)", _partition_skip),
    *(
        row
        for algorithm in ROUTES
        for row in (
            Row(f"refine:{algorithm}:cache-miss",
                f"the repeated search({algorithm})", "is",
                "the first one's result-cache entry",
                partial(_cache_hit, algorithm)),
            Row(f"refine:{algorithm}:warm-vs-cold",
                f"search({algorithm}) from the result cache", "==",
                f"a direct {algorithm} call",
                partial(_warm_vs_cold, algorithm)),
        )
    ),
    # --- The default algorithm.
    Row("auto:serial", "search(auto)", "==", "search(partition)",
        _auto_serial),
    Row("auto:warm", "(cache hit, answer) of a repeated search(auto)", "==",
        "(True, search(partition))", _auto_warm),
    # --- Views of the same document.
    *_view_rows("frozen", "over the frozen snapshot"),
    Row("chain:compaction", "compacting the base+delta chain", "==",
        "refreezing the chain-loaded index, byte for byte",
        _chain_compaction),
    *_view_rows("chain", "through the base+delta chain"),
    # --- Caches.
    Row("cache:subresult-assembly", "each refinement (and the query) "
        "answered through sub-result assembly", "==",
        "a cache-disabled engine", _subresult_assembly),
    # --- Kernels vs per-node recomputations and pure-Python twins.
    Row("kernel:slca-batch-vs-node", "slca_ranges over whole lists", "==",
        "scan_eager_slca", _slca_batch),
    Row("kernel:lcp-table", "merged_lcp", "==",
        "a sort-and-compare pass", _lcp_table),
    Row("kernel:partition-view", "partition_view and root counts", "==",
        "a posting-by-posting regrouping", _partition_view),
    Row("kernel:slca-emit", "slca_ranges over each shared partition, per "
        "backend", "==", "scan_eager_slca over the label slices",
        _slca_emit),
    Row("kernel:meaningful-column", "Definition 3.3 from the type-id "
        "column, on every view", "==", "Definition 3.3 from the tree "
        "node's type", _meaningful_column),
    Row("kernel:presence-bound", "PresenceBoundCache over every mask", "==",
        "MissingKeywordBound", _presence_bound),
    Row("kernel:codec", "payloads and arrays of the compiled codec", "==",
        "the pure-Python codec's and the list's own", _codec),
    Row("kernel:sle-round", "SLE's answer and ScanStats, compiled", "==",
        "pure-Python", _sle_round),
    Row("kernel:dp-rows", "the compiled getOptimalRQ over every presence "
        "mask", "==", "get_top_optimal_rqs", _dp_rows),
    # --- Ranking and the wire.
    Row("ranking:memo", "Formula 2-9 scores through the index's memo",
        "==", "a fresh ScoreMemo's", _ranking_memo),
    Row("wire:labels", "the labels encode_response sends, per backend",
        "==", "str() of the response's Dewey lists", _wire_labels),
    # --- Metamorphic invariants from the paper.
    Row("invariant:ancestor-free", "ancestor/descendant pairs in the SLCA "
        "answer", "==", "none", _ancestor_free),
    Row("invariant:order:slca", "SLCAs of the reversed query", "==",
        "the query's", _order_slca),
    Row("invariant:order:flag", "the reversed query's needs_refinement",
        "==", "the query's", _order_flag),
    Row("invariant:order:original", "the reversed query's original "
        "results", "==", "the query's", _order_original),
    Row("invariant:order:refinements", "the reversed query's refined "
        "keyword sets", "==", "the query's", _order_refinements),
    Row("invariant:topk-prefix", "Top-k", "==", "the first k of Top-(k+2)",
        _topk_prefix),
    Row("invariant:update-roundtrip", "the answer after append_partition + "
        "remove_partition", "==", "the answer before", _update_roundtrip),
)


def select(group):
    """The rows of kind ``group`` or under it (``"kernel"`` selects
    every ``kernel:*`` row)."""
    return tuple(
        row for row in TABLE
        if row.kind == group or row.kind.startswith(group + ":")
    )


def replay_cold_diff(index, samples, model=None):
    """Diff replay-recorded answers against cold evaluation.

    ``samples`` is a :class:`~repro.workload.replay.ReplayReport`'s
    sample list — ``(query, k, algorithm, fingerprint)`` tuples
    recorded while the replay was served through the full cache stack
    (result cache, sub-result assembly, the miner's per-keyword memo,
    the DP and search-for memos).  A
    fresh cache-disabled engine over the same index re-evaluates each
    sampled query; any fingerprint difference means some cache layer
    changed an answer during the replay.  The memos live in
    ``index.derived``, so the cold pass runs over a fresh holder and
    reads none of the ones the replay filled.
    """
    replayed, index._derived = index._derived, None
    try:
        cold = XRefine(index, model=model, cache_size=0)
        answers = [
            response_fingerprint(cold.search(list(q), k=k, algorithm=a))
            for q, k, a, _ in samples
        ]
    finally:
        index._derived = replayed
    return [
        Divergence(
            "replay:cold-diff",
            f"replayed answer (k={k}, {algorithm}) differs "
            "from a cold evaluation",
            None, query, fresh, fingerprint,
        )
        for (query, k, algorithm, fingerprint), fresh in zip(samples, answers)
        if fresh != fingerprint
    ]
