"""Cross-algorithm differential oracle.

One ``(document, query, rules)`` triple is pushed through every code
path that must agree:

* **SLCA layer** — ``stack``, ``scan``, ``indexed``, ``multiway`` on
  plain label lists, plus the engine's one ``slca_search`` (the
  columnar kernel) uncached and served from the result cache; all
  diffed against a brute-force subtree-check reference.  The
  ELCA-adjacent path is cross-checked through the containment laws
  that relate the two semantics: every SLCA is an ELCA, and pruning
  ancestors from the ELCA set yields exactly the SLCA set.
* **Refinement layer** — ``partition`` and ``sle`` must produce
  byte-identical :class:`~repro.core.result.RefinementResponse`
  fingerprints (stats excluded); ``stack`` (Top-1) must agree on the
  refinement flag, the original results and the optimal dissimilarity;
  the partition skip bound must not change answers; and a warm
  (result-cached) engine must answer exactly like a cold one.
* **Frozen snapshot layer** — the index is frozen to an mmap-served
  columnar snapshot (:mod:`repro.index.frozen`), loaded back, and each
  query term's posting list, the plain SLCA path and all three
  refinement algorithms are each diffed byte-for-byte against the
  built index.  Runs against whichever kernel backend is active, so
  the verify-diff sweep exercises both the compiled and pure-Python
  posting decoders.
* **Delta-chain layer** — the document's last partition is peeled off
  into a base snapshot and re-added through a delta file
  (:mod:`repro.index.delta`); the merged base+delta view must answer
  exactly like the built index, and compacting the chain must produce
  a snapshot byte-identical to refreezing the chain-loaded index.
* **Cache layer** — a refinable query's evaluation deposits its
  refinements' SLCA sets into the term-signature sub-result cache;
  each refinement is then issued as its own query with the result
  cache emptied, so the answer must come through sub-result
  *assembly*, and is diffed byte-for-byte against a cache-disabled
  engine.  :func:`replay_cold_diff` applies the same contract to a
  traffic replay's sampled answers.
* **Kernel layer** — each batch primitive in :mod:`repro.kernels` is
  diffed against a per-node recomputation of the same answer: the
  columnar SLCA kernel against the classic forward-pointer scan (whole
  lists, and — ``kernel:slca-emit`` — every shared partition's ranges
  through both the compiled and the pure-Python ancestor filter), the
  merged-LCP table against a naive sort-and-compare pass, the
  partition view against a posting-by-posting regrouping, the
  mask-memoized presence bound against
  :class:`~repro.core.dp.MissingKeywordBound` over every presence
  subset, and — ``kernel:meaningful-column`` — Definition 3.3 decided
  from the posting's type-id column against
  :func:`~repro.slca.meaningful.is_meaningful` on the tree node's own
  type, for every SLCA hit over the same whole lists and shared
  partitions, on the built index, its frozen snapshot, an updated
  index and the delta-chain top.  And —
  ``kernel:sle-round`` — SLE run with the active backend and with the
  pure-Python one must give the same answer and the same ``ScanStats``;
  and ``kernel:codec`` — each query term's list written and decoded by
  the active codec and by the pure-Python one must give the same bytes
  and the same arrays as the list's own.

* **Ranking layer** — ``ranking:memo``: every DP beam candidate's
  Formula 2-9 scores read through the index's warm score memo must
  equal, bit for bit, the scores read through a fresh one.

* **Wire layer** — ``wire:labels``: for every route, under both
  backends, the labels ``encode_response`` sends — rendered from a
  response's hit records while unread, ``str()`` of its ``Dewey``
  lists once read, copied or reordered by ``rank_results`` — equal
  ``str(d)`` over ``original_results`` / ``slcas``.

A failed comparison is a :class:`Divergence` — a plain record carrying
enough context for the shrinker to reproduce and reduce it.
"""

from __future__ import annotations

import os
import tempfile

from ..core.common import QueryContext
from ..core.dp import MissingKeywordBound, get_top_optimal_rqs
from ..core.engine import XRefine
from ..core.partition_refine import partition_refine
from ..core.ranking.memo import ScoreMemo
from ..core.ranking.model import full_model
from ..core.short_list_eager import short_list_eager
from ..core.stack_refine import stack_refine
from ..kernels import backend as kernel_backend
from ..kernels import (
    PresenceBoundCache,
    columns_for,
    merged_lcp,
    partition_view,
    slca_hits,
    slca_ranges,
)
from ..index.blocks import encode_posting_payload
from ..index.builder import build_document_index
from ..index.inverted import InvertedList
from ..index.tokenize_text import query_terms
from ..slca.elca import elca
from ..slca.indexed_lookup import indexed_lookup_slca
from ..slca.lca import brute_force_slca, remove_ancestors
from ..slca.meaningful import is_meaningful
from ..slca.multiway import multiway_slca
from ..slca.scan_eager import scan_eager_slca
from ..slca.stack import stack_slca
from ..xmltree.build import build_tree

#: SLCA variants diffed against the brute-force reference.
SLCA_VARIANTS = {
    "stack": stack_slca,
    "scan": scan_eager_slca,
    "indexed": indexed_lookup_slca,
    "multiway": multiway_slca,
}


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


#: Sentinel: the delta-chain artifacts have not been built yet.
_UNBUILT = object()


class DocumentOracle:
    """All cross-checks for one document; reusable across queries."""

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

    @property
    def frozen_engine(self):
        """Engine over a frozen-snapshot round trip of the built index.

        The snapshot is frozen to (and mmapped from) an anonymous temp
        file, unlinked immediately — the mapping keeps it alive — so no
        oracle run can leave files behind.
        """
        if self._frozen_engine is None:
            from ..index.frozen import freeze_index, load_frozen_index

            handle, path = tempfile.mkstemp(suffix=".frz")
            os.close(handle)
            try:
                freeze_index(self.index, path)
                self._frozen_engine = XRefine(load_frozen_index(path))
            finally:
                os.unlink(path)
        return self._frozen_engine

    @property
    def column_views(self):
        """``[(name, index), ...]`` the type-id column is held to.

        The built index; its frozen snapshot (the frozen layer's, every
        list decoded whole from the mapped payload at its first read);
        an index whose first partition was re-appended under a fresh
        tag and then removed — both update paths, leaving postings
        typed by ids the original table did not have; and the
        delta-chain top where the document has one.
        """
        if self._column_views is None:
            from ..index import append_partition, remove_partition

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

    # ------------------------------------------------------------------
    # SLCA layer
    # ------------------------------------------------------------------
    def check_slca(self, query):
        divergences = []
        terms = query_terms(query)
        if not terms:
            return divergences
        lists = [self.index.inverted.get(term).labels() for term in terms]
        reference = [str(d) for d in brute_force_slca(self.tree, lists)]

        def diff(kind, got, detail):
            labels = [str(d) for d in got]
            if labels != reference:
                divergences.append(
                    Divergence(
                        kind, detail, self.spec, query, reference, labels
                    )
                )

        for name, implementation in SLCA_VARIANTS.items():
            diff(
                f"slca:{name}:cold",
                implementation(lists),
                f"{name} on plain label lists != brute force",
            )
        diff(
            "slca:engine:cold",
            self.cold_engine.slca_search(terms),
            "engine SLCA search (columnar kernel) != brute force",
        )
        self.engine.slca_search(terms)  # prime cache
        diff(
            "slca:engine:warm",
            self.engine.slca_search(terms),
            "engine SLCA served from the result cache != brute force",
        )

        # ELCA adjacency: SLCA ⊆ ELCA and min(ELCA) == SLCA.
        elcas = elca(lists)
        elca_labels = {str(d) for d in elcas}
        if not set(reference) <= elca_labels:
            divergences.append(
                Divergence(
                    "slca:elca:containment",
                    "an SLCA is missing from the ELCA answer set",
                    self.spec, query, reference, sorted(elca_labels),
                )
            )
        minimal = [str(d) for d in remove_ancestors(elcas)]
        if minimal != reference:
            divergences.append(
                Divergence(
                    "slca:elca:minimal",
                    "ancestor-pruned ELCA set != SLCA set",
                    self.spec, query, reference, minimal,
                )
            )
        return divergences

    # ------------------------------------------------------------------
    # Refinement layer
    # ------------------------------------------------------------------
    def check_refinement(self, query):
        divergences = []
        terms = query_terms(query)
        if not terms:
            return divergences
        rules = self.engine.mine_rules(terms)
        model = self.engine.model
        k = self.k

        cold = {
            "partition": partition_refine(
                self.index, terms, rules=rules, model=model, k=k
            ),
            "sle": short_list_eager(
                self.index, terms, rules=rules, model=model, k=k
            ),
            "stack": stack_refine(
                self.index, terms, rules=rules, model=model
            ),
        }
        fingerprints = {
            name: response_fingerprint(r) for name, r in cold.items()
        }

        if fingerprints["partition"] != fingerprints["sle"]:
            divergences.append(
                Divergence(
                    "refine:partition-vs-sle",
                    "Algorithm 2 and Algorithm 3 disagree",
                    self.spec, query,
                    fingerprints["partition"], fingerprints["sle"],
                )
            )

        # Stack is Top-1 only: flags, original results, optimal dSim.
        flags = {name: r.needs_refinement for name, r in cold.items()}
        if len(set(flags.values())) != 1:
            divergences.append(
                Divergence(
                    "refine:needs-flag",
                    "algorithms disagree on whether refinement is needed",
                    self.spec, query, flags, flags,
                )
            )
        originals = {
            name: tuple(str(d) for d in r.original_results)
            for name, r in cold.items()
        }
        if len(set(originals.values())) != 1:
            divergences.append(
                Divergence(
                    "refine:original-results",
                    "algorithms disagree on the original query's results",
                    self.spec, query,
                    originals["partition"], originals,
                )
            )
        optimal = {
            name: min(
                (c.rq.dissimilarity for c in r.candidates),
                default=None,
            )
            for name, r in cold.items()
            if r.needs_refinement
        }
        if len(set(optimal.values())) > 1:
            divergences.append(
                Divergence(
                    "refine:optimal-dsim",
                    "algorithms disagree on the optimal dissimilarity",
                    self.spec, query, optimal, optimal,
                )
            )

        # The skip bound is an optimization, never a semantic change.
        unpruned = partition_refine(
            self.index, terms, rules=rules, model=model, k=k,
            skip_optimization=False,
        )
        if response_fingerprint(unpruned) != fingerprints["partition"]:
            divergences.append(
                Divergence(
                    "refine:partition-skip",
                    "partition answers change with the skip bound off",
                    self.spec, query,
                    response_fingerprint(unpruned),
                    fingerprints["partition"],
                )
            )

        # Warm path: second engine.search must hit the result cache and
        # equal the cold direct call byte for byte.
        for algorithm in ("partition", "sle", "stack"):
            first = self.engine.search(terms, k=k, algorithm=algorithm)
            second = self.engine.search(terms, k=k, algorithm=algorithm)
            if second is not first:
                divergences.append(
                    Divergence(
                        f"refine:{algorithm}:cache-miss",
                        "repeated query did not hit the result cache",
                        self.spec, query, "cache hit", "cache miss",
                    )
                )
            if response_fingerprint(second) != fingerprints[algorithm]:
                divergences.append(
                    Divergence(
                        f"refine:{algorithm}:warm-vs-cold",
                        "cached answer differs from a cold evaluation",
                        self.spec, query,
                        fingerprints[algorithm],
                        response_fingerprint(second),
                    )
                )
        return divergences

    # ------------------------------------------------------------------
    # Default-algorithm ("auto") layer
    # ------------------------------------------------------------------
    def check_auto(self, query):
        """The default algorithm must answer like Algorithm 2.

        ``algorithm="auto"`` (SLE) is diffed against fixed Algorithm 2
        cold, and again warm, where it must be the cached object.
        """
        divergences = []
        terms = query_terms(query)
        if not terms:
            return divergences
        engine = self.engine
        k = self.k
        reference = response_fingerprint(
            engine.search(terms, k=k, algorithm="partition")
        )

        auto = engine.search(terms, k=k, algorithm="auto")
        if response_fingerprint(auto) != reference:
            divergences.append(
                Divergence(
                    "auto:serial",
                    "default-algorithm answer differs from Algorithm 2",
                    self.spec, query, reference,
                    response_fingerprint(auto),
                )
            )

        warm = engine.search(terms, k=k, algorithm="auto")
        if warm is not auto or response_fingerprint(warm) != reference:
            divergences.append(
                Divergence(
                    "auto:warm",
                    "repeated auto query missed the result cache or "
                    "changed its answer",
                    self.spec, query, reference,
                    response_fingerprint(warm),
                )
            )

        return divergences

    def _diff_postings(self, view, engine, query, terms):
        """A ``{view}:postings`` divergence for each query term whose
        posting list through ``engine``'s index differs from the built
        index's."""
        divergences = []
        for term in terms:
            expected = [
                str(d) for d in self.index.inverted.get(term).labels()
            ]
            actual = [
                str(d) for d in engine.index.inverted.get(term).labels()
            ]
            if actual != expected:
                divergences.append(
                    Divergence(
                        f"{view}:postings",
                        f"posting list for {term!r} through the {view} "
                        "view != built index",
                        self.spec, query, expected, actual,
                    )
                )
        return divergences

    # ------------------------------------------------------------------
    # Frozen snapshot layer
    # ------------------------------------------------------------------
    def check_frozen(self, query):
        """A frozen-loaded engine must answer byte-identically.

        The index is frozen to a snapshot file, mmapped back, and each
        query term's posting list, the plain SLCA path and every
        refinement algorithm are diffed against the built index,
        proving the columnar round trip (dictionary binary search, lazy
        payload decode, tree/statistics sections) loses nothing.
        """
        divergences = []
        terms = query_terms(query)
        if not terms:
            return divergences
        engine = self.frozen_engine
        k = self.k

        divergences += self._diff_postings("frozen", engine, query, terms)
        reference = [
            str(d) for d in self.engine.slca_search(terms)
        ]
        frozen_slca = [
            str(d) for d in engine.slca_search(terms)
        ]
        if frozen_slca != reference:
            divergences.append(
                Divergence(
                    "frozen:slca",
                    "SLCA search over the frozen snapshot != built index",
                    self.spec, query, reference, frozen_slca,
                )
            )

        for algorithm in ("partition", "sle", "stack", "auto"):
            built = response_fingerprint(
                self.engine.search(terms, k=k, algorithm=algorithm)
            )
            frozen = response_fingerprint(
                engine.search(terms, k=k, algorithm=algorithm)
            )
            if frozen != built:
                divergences.append(
                    Divergence(
                        f"frozen:{algorithm}",
                        f"{algorithm} over the frozen snapshot differs "
                        "from the built index",
                        self.spec, query, built, frozen,
                    )
                )

        return divergences

    # ------------------------------------------------------------------
    # Delta-chain layer
    # ------------------------------------------------------------------
    @property
    def chain_state(self):
        """Lazily built delta-chain artifacts, or ``None``.

        ``None`` when the document has fewer than two partitions —
        there is no partition to peel into a delta.  Otherwise a
        ``(chain_engine, compaction_identical)`` pair:

        * ``chain_engine`` serves the original document reconstructed
          as base-minus-last-partition plus a delta re-adding it;
        * ``compaction_identical`` records whether compacting the
          chain produced bytes identical to refreezing the
          chain-loaded index.

        All temp files are deleted once the mmaps hold them open, so
        no oracle run leaves files behind.
        """
        if self._chain_state is _UNBUILT:
            self._chain_state = self._build_chain_state()
        return self._chain_state

    def _build_chain_state(self):
        import shutil

        from ..index import (
            append_partition,
            compact,
            freeze_index,
            load_frozen_index,
            load_index_chain,
            save_delta,
        )

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

    def check_chain(self, query):
        """The base+delta view must answer identically.

        The chain engine reconstructs the document from a base
        snapshot plus one delta; diverging from the built index means
        the merge-on-demand overlay changed an answer.  The compaction
        byte-identity is checked once per document and reported
        against the first query that reaches it.
        """
        divergences = []
        terms = query_terms(query)
        if not terms:
            return divergences
        state = self.chain_state
        if state is None:
            return divergences
        chain_engine, compaction_identical = state
        k = self.k

        if not compaction_identical:
            divergences.append(
                Divergence(
                    "chain:compaction",
                    "compacting the base+delta chain != refreezing the "
                    "chain-loaded index",
                    self.spec, query, "byte-identical snapshots",
                    "snapshots differ",
                )
            )
            # Report once, not for every query of this document.
            self._chain_state = (chain_engine, True)

        divergences += self._diff_postings(
            "chain", chain_engine, query, terms
        )
        reference = [
            str(d)
            for d in self.engine.slca_search(terms)
        ]
        answered = [
            str(d) for d in chain_engine.slca_search(terms)
        ]
        if answered != reference:
            divergences.append(
                Divergence(
                    "chain:slca",
                    "SLCA search through the chain view != built index",
                    self.spec, query, reference, answered,
                )
            )

        for algorithm in ("partition", "sle", "stack", "auto"):
            built = response_fingerprint(
                self.engine.search(terms, k=k, algorithm=algorithm)
            )
            answered = response_fingerprint(
                chain_engine.search(terms, k=k, algorithm=algorithm)
            )
            if answered != built:
                divergences.append(
                    Divergence(
                        f"chain:{algorithm}",
                        f"{algorithm} through the chain view "
                        "differs from the built index",
                        self.spec, query, built, answered,
                    )
                )
        return divergences

    # ------------------------------------------------------------------
    # Kernel layer
    # ------------------------------------------------------------------
    def check_kernels(self, query):
        """Each batch kernel must equal a per-node recomputation.

        The scan kernels earn their keep only if they are invisible:
        every primitive — columnar SLCA, the merged-LCP table, the
        partition view, the memoized presence bound — is recomputed
        here the slow way (per node / per posting / per subset) and
        diffed.  Runs against whichever backend is active, so the same
        sweep exercises the compiled fast path and, under
        ``REPRO_NO_COMPILED_KERNELS=1``, the pure-Python fallback.
        """
        divergences = []
        terms = query_terms(query)
        if not terms:
            return divergences

        def diff(kind, detail, expected, actual):
            if expected != actual:
                divergences.append(
                    Divergence(
                        kind, detail, self.spec, query, expected, actual
                    )
                )

        inverted = [self.index.inverted.get(term) for term in terms]
        columns = [columns_for(lst) for lst in inverted]

        # Batch SLCA vs the classic forward-pointer scan — the
        # independent per-node reference.
        label_lists = [lst.labels() for lst in inverted]
        if all(label_lists):
            reference = [str(d) for d in scan_eager_slca(label_lists)]
            batch = [
                str(d)
                for d in slca_ranges([(c, 0, c.size) for c in columns])
            ]
            diff(
                "kernel:slca-batch-vs-node",
                "columnar batch SLCA != per-node forward scan",
                reference, batch,
            )

        # Merged-LCP table vs a naive sort + adjacent-compare pass
        # (equal keys must break toward the lowest lane, like the
        # strict-< cursor merge the table replaced).
        entries = sorted(
            (key, lane)
            for lane, column in enumerate(columns)
            for key in column.keys
        )
        naive_lanes = []
        naive_lcps = []
        previous = ()
        for key, lane in entries:
            shared = 0
            for a, b in zip(previous, key):
                if a != b:
                    break
                shared += 1
            naive_lanes.append(lane)
            naive_lcps.append(shared if naive_lcps else 0)
            previous = key
        lanes, lcps = merged_lcp(columns)
        diff(
            "kernel:lcp-table",
            "merged-LCP table != naive adjacent-LCP recomputation",
            (naive_lanes, naive_lcps), (list(lanes), list(lcps)),
        )

        # Partition view vs a per-posting regrouping of the raw keys.
        expected_table = {}
        expected_roots = []
        for lane, column in enumerate(columns):
            roots = 0
            for position, key in enumerate(column.keys):
                if len(key) < 2:
                    roots += 1
                    continue
                spans = expected_table.setdefault(
                    key[:2], [None] * len(columns)
                )
                span = spans[lane]
                spans[lane] = (
                    (position, position + 1)
                    if span is None
                    else (span[0], position + 1)
                )
            expected_roots.append(roots)
        diff(
            "kernel:partition-view",
            "partition view != per-posting partition regrouping",
            sorted(expected_table.items()),
            [(pid, list(spans)) for pid, spans in partition_view(columns)],
        )
        diff(
            "kernel:partition-view",
            "partition root counts != per-posting recount",
            expected_roots, [c.root_count for c in columns],
        )

        # Emit-filtered SLCAs over partition ranges (the calls SLE's
        # partition-local checks make) vs the per-node scan over the
        # same label slices — through the active backend and, when that
        # is the compiled one, through the pure-Python filter as well.
        shared_spans = [
            spans for _, spans in sorted(expected_table.items())
            if None not in spans
        ]
        expected_local = [
            [
                str(d) for d in scan_eager_slca([
                    labels[lo:hi]
                    for labels, (lo, hi) in zip(label_lists, spans)
                ])
            ]
            for spans in shared_spans
        ]
        active = kernel_backend.compiled
        for lib in (active,) if active is None else (active, None):
            kernel_backend.compiled = lib
            try:
                emitted = [
                    [
                        str(d) for d in slca_ranges([
                            (column, lo, hi)
                            for column, (lo, hi) in zip(columns, spans)
                        ])
                    ]
                    for spans in shared_spans
                ]
            finally:
                kernel_backend.compiled = active
            diff(
                "kernel:slca-emit",
                "emit-filtered partition SLCAs != per-node forward scan "
                f"({'pure-python' if lib is None else 'compiled'})",
                expected_local, emitted,
            )

        # Definition 3.3 from the type-id column vs from the tree, for
        # every hit of the same calls: the whole lists and each shared
        # partition, on every view of the document.
        rules = self.engine.mine_rules(terms)
        diff(
            "kernel:meaningful-column",
            "Definition 3.3 decided from the type-id column != "
            "decided from the tree node's type",
            *zip(*(
                self._meaningful_by_tree_and_column(index, terms, rules)
                for _, index in self.column_views
            )),
        )

        # Presence bound memo vs the uncached bound, over every
        # presence subset of the keyword-space lanes (capped: the
        # subsets double per lane, and generated documents rarely
        # exceed the cap anyway).
        lanes_kw = list(dict.fromkeys(terms))
        lanes_kw += sorted(rules.generated_keywords() - set(lanes_kw))
        cache = PresenceBoundCache(terms, rules, lanes_kw)
        uncached = MissingKeywordBound(terms, rules)
        expected_bounds = []
        actual_bounds = []
        for mask in range(1 << min(len(lanes_kw), 10)):
            present = {
                keyword
                for lane, keyword in enumerate(lanes_kw)
                if mask & (1 << lane)
            }
            expected_bounds.append(uncached.lower_bound(present))
            actual_bounds.append(cache.lower_bound(mask))
        diff(
            "kernel:presence-bound",
            "mask-memoized presence bound != MissingKeywordBound",
            expected_bounds, actual_bounds,
        )

        # The posting codec: each term's list written, then opened and
        # decoded, by the C codec and by its Python twin — the same
        # bytes and the same arrays, which are the list's own.
        codecs = []
        for lib in (active, None):
            kernel_backend.compiled = lib
            try:
                written = []
                for lst in inverted:
                    payload = encode_posting_payload(
                        lst.keyword, lst.dewey_keys, lst.type_ids, lst.counts
                    )
                    written.append((payload, InvertedList.open(
                        lst.keyword, payload, lst.type_table
                    ).arrays()))
                codecs.append(written)
            finally:
                kernel_backend.compiled = active
        diff(
            "kernel:codec",
            "posting payloads or decoded arrays differ between the "
            "compiled and pure-Python codecs, or from the list's own",
            codecs[1] + [lst.arrays() for lst in inverted],
            codecs[0] + [arrays for _, arrays in codecs[1]],
        )

        # SLE's step-1 walk and direct finish run in C on the compiled
        # backend and as Python twins on the other: the answer and every
        # ScanStats counter must not depend on which.
        runs = []
        for lib in (active, None):
            kernel_backend.compiled = lib
            try:
                response = short_list_eager(self.index, terms, rules,
                                            k=self.k)
            finally:
                kernel_backend.compiled = active
            counters = response.stats.as_dict()
            del counters["elapsed_seconds"]
            runs.append((response_fingerprint(response), counters))
        diff(
            "kernel:sle-round",
            "SLE answer or ScanStats differ between the compiled and "
            "pure-Python backends",
            *runs,
        )
        return divergences

    @staticmethod
    def _meaningful_by_tree_and_column(index, terms, rules):
        """``(by_tree, by_column)`` over one index's SLCA hits.

        Each holds one entry per call — the whole lists, then every
        partition all of ``terms`` share — of ``(every hit is a node,
        per-hit verdicts, meaningful results' labels, any)``.  The tree
        side looks each SLCA's label up and applies Definition 3.3 to
        the node's own type; the column side asks :class:`QueryContext`,
        whose kernel call applies it as the SLCAs are emitted.
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
                node is not None
                and is_meaningful(label, node.node_type, types)
                for label, node in zip(labels, nodes)
            ]
            kept = [
                str(label)
                for label, verdict in zip(labels, verdicts) if verdict
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

    # ------------------------------------------------------------------
    # Ranking layer
    # ------------------------------------------------------------------
    def check_ranking(self, query):
        """Scores read through a warm memo must equal a fresh memo's.

        ``ranking:memo`` — every DP beam candidate's (similarity,
        dependence) pair is scored through the index's own score memo,
        warm from the refinement layers, and again through a fresh
        :class:`~repro.core.ranking.memo.ScoreMemo`, and compared with
        ``==``: a memoized float that went stale, or a read keyed on
        the wrong fields, shows here as a changed bit.
        """
        terms = query_terms(query)
        if not terms:
            return []
        rules = self.engine.mine_rules(terms)
        context = QueryContext(self.index, terms, rules)
        present = {
            keyword
            for keyword in context.keyword_space
            if len(context.lists[keyword]) > 0
        }
        if not present:
            return []
        candidates = get_top_optimal_rqs(
            context.query, present, rules, max(2 * self.k, 2)
        )
        model = full_model()

        def scores(memo):
            return [
                (
                    model.similarity_score(
                        self.index, rq, context.query, context.search_for,
                        memo,
                    ),
                    model.dependence_score(
                        self.index, rq, context.search_for, memo
                    ),
                )
                for rq in candidates
            ]

        warm = scores(None)
        fresh = scores(ScoreMemo(self.index))
        if warm == fresh:
            return []
        return [
            Divergence(
                "ranking:memo",
                "scores through the index's score memo != a fresh memo's",
                self.spec, query, fresh, warm,
            )
        ]

    # ------------------------------------------------------------------
    # Cache layer
    # ------------------------------------------------------------------
    def check_cache_layers(self, query):
        """The cache stack must never change an answer.

        Drives the term-signature sub-result layer explicitly: the
        query's evaluation deposits computed SLCA sets (its own, if it
        direct-hits; its refinements', if it needs refinement); each
        refinement plus the query itself is then re-issued with the
        result cache *emptied*, so a deposited signature is served
        through sub-result assembly rather than a plain result-cache
        hit — and every answer is diffed byte-for-byte against a
        cache-disabled engine.
        """
        divergences = []
        terms = query_terms(query)
        if not terms:
            return divergences
        k = self.k
        warm = XRefine(self.index)
        cold = XRefine(self.index, cache_size=0)
        first = warm.search(terms, k=k, algorithm="auto")
        followups = [list(r.rq.keywords) for r in first.refinements]
        followups.append(list(terms))
        warm.result_cache.clear()
        for follow in followups:
            assembled = response_fingerprint(
                warm.search(follow, k=k, algorithm="auto")
            )
            reference = response_fingerprint(
                cold.search(follow, k=k, algorithm="auto")
            )
            if assembled != reference:
                divergences.append(
                    Divergence(
                        "cache:subresult-assembly",
                        "answer through the sub-result cache differs "
                        "from a cache-disabled engine",
                        self.spec, follow, reference, assembled,
                    )
                )
        return divergences

    # ------------------------------------------------------------------
    # Wire layer
    # ------------------------------------------------------------------
    def check_wire(self, query):
        """The labels a response sends equal its ``Dewey`` lists.

        ``encode_response`` renders a result list that has not been read
        from its hit record (one kernel call) and ``str()``-s one that
        has.  For every route, under the active backend and the
        pure-Python one, a fresh response and a copy of it are encoded
        before anything reads their results, then again after; a third
        response is encoded after ``rank_results`` reordered its
        lists.  Each encoding's labels must be ``str(d)`` over
        ``original_results`` / ``slcas``.
        """
        from ..core.ranking.results import rank_response_results
        from ..serve.wire import encode_response

        divergences = []
        terms = query_terms(query)
        if not terms:
            return divergences
        rules = self.engine.mine_rules(terms)
        routes = {
            "partition": lambda: partition_refine(
                self.index, terms, rules=rules, k=self.k
            ),
            "sle": lambda: short_list_eager(
                self.index, terms, rules=rules, k=self.k
            ),
            "stack": lambda: stack_refine(self.index, terms, rules=rules),
        }

        def sent(response):
            payload = encode_response(response)
            return (
                payload["original_results"],
                [refinement["slcas"] for refinement in payload["refinements"]],
            )

        def read(response):
            return (
                [str(d) for d in response.original_results],
                [[str(d) for d in r.slcas] for r in response.refinements],
            )

        expected = []
        actual = []
        active = kernel_backend.compiled
        for lib in (active,) if active is None else (active, None):
            kernel_backend.compiled = lib
            try:
                for name, route in routes.items():
                    fresh = route()
                    clone = fresh.copy()
                    unread = [sent(fresh), sent(clone)]
                    ranked = route()
                    rank_response_results(self.index, ranked)
                    for response, labels in zip((fresh, clone), unread):
                        expected += [read(response)] * 2
                        actual += [labels, sent(response)]
                    expected.append(read(ranked))
                    actual.append(sent(ranked))
            finally:
                kernel_backend.compiled = active
        if actual != expected:
            divergences.append(
                Divergence(
                    "wire:labels",
                    "labels encode_response sends != str() of the "
                    "response's Dewey lists",
                    self.spec, query, expected, actual,
                )
            )
        return divergences

    def check_query(self, query):
        """Every oracle check for one query; list of divergences."""
        return (
            self.check_slca(query)
            + self.check_refinement(query)
            + self.check_auto(query)
            + self.check_frozen(query)
            + self.check_chain(query)
            + self.check_cache_layers(query)
            + self.check_kernels(query)
            + self.check_ranking(query)
            + self.check_wire(query)
        )


def run_oracle(spec, query, k=2):
    """Build a fresh oracle for ``spec`` and check one query."""
    return DocumentOracle(spec, k=k).check_query(query)


def replay_cold_diff(index, samples, model=None, miner=None):
    """Diff replay-recorded answers against cold evaluation.

    ``samples`` is a :class:`~repro.workload.replay.ReplayReport`'s
    sample list — ``(query, k, algorithm, fingerprint)`` tuples
    recorded while the replay was served through the full cache stack
    (result cache, sub-result assembly, rules memo, DP memos).  A
    fresh cache-disabled engine over the same index re-evaluates each
    sampled query; any fingerprint difference means some cache layer
    changed an answer during the replay.
    """
    cold = XRefine(index, model=model, miner=miner, cache_size=0)
    divergences = []
    for query, k, algorithm, fingerprint in samples:
        fresh = response_fingerprint(
            cold.search(list(query), k=k, algorithm=algorithm)
        )
        if fresh != fingerprint:
            divergences.append(
                Divergence(
                    "replay:cold-diff",
                    f"replayed answer (k={k}, {algorithm}) differs "
                    "from a cold evaluation",
                    None, query, fresh, fingerprint,
                )
            )
    return divergences
