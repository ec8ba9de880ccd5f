"""XRefine — the keyword search engine prototype (Section I-VIII).

:class:`XRefine` wires the whole stack together:

* parse/accept an XML document and build the Section-VII indexes;
* mine the pertinent refinement rule set for each query (the role the
  paper's human annotators played);
* run one of the three refinement algorithms, returning the original
  query's meaningful SLCAs when no refinement is needed and the ranked
  Top-K refined queries (with their results) when it is;
* expose plain SLCA search over the same index.

Typical use::

    from repro import XRefine

    engine = XRefine.from_xml(open("bib.xml").read())
    response = engine.search("on line data base", k=3)
    if response.needs_refinement:
        for refinement in response.refinements:
            print(refinement.keywords, refinement.result_count)
"""

from __future__ import annotations

import time

from ..errors import QueryError
from ..index.builder import build_document_index
from ..index.tokenize_text import query_terms
from ..kernels import columns_for, slca_columns
from ..perf.result_cache import DEFAULT_CAPACITY, QueryResultCache
from ..perf.subresult import (
    DEFAULT_SUBRESULT_CAPACITY,
    SubResultCache,
    term_signature,
)
from ..plan.planner import AUTO_ROUTE, QueryPlanner
from ..xmltree.parser import parse
from .common import QueryContext
from .partition_refine import partition_refine
from .ranking.model import full_model
from .result import RefinementResponse, ScanStats
from .short_list_eager import short_list_eager
from .stack_refine import stack_refine

#: Refinement algorithm registry.  ``"auto"`` (the default) is
#: Algorithm 3 (SLE, :data:`~repro.plan.planner.AUTO_ROUTE`) for every
#: query; answers are byte-identical to every fixed choice.
ALGORITHMS = ("auto", "partition", "sle", "stack")


def _validate_k(k):
    """Reject non-integral or non-positive Top-K requests up front.

    ``k=0`` used to return a silently empty refinement list and a
    float ``k`` crashed deep inside list slicing; both now fail fast
    with a typed :class:`~repro.errors.QueryError`.  Integral floats
    and ``bool`` are intentionally rejected too — a caller passing
    ``k=True`` has a bug.
    """
    if isinstance(k, bool) or not isinstance(k, int):
        raise QueryError(f"k must be an integer >= 1, got {k!r}")
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    return k


class XRefine:
    """The automatic XML keyword query refinement engine.

    Rules are mined by the index version's miner,
    ``index.derived.miner``, which follows every partition
    append/removal and snapshot swap; :meth:`search` also takes a
    hand-written rule set.

    Parameters
    ----------
    index:
        A prebuilt :class:`~repro.index.builder.DocumentIndex`.
    model:
        Ranking model (Formula 10); the full RS0 model by default.
        Its parameters are part of every result-cache key and are read
        once per model object — assign a new model rather than mutating
        one an engine already holds.
    cache_size:
        Capacity of the query-result cache
        (:class:`~repro.perf.result_cache.QueryResultCache`); ``0``
        disables result caching.  Cached answers are version-checked
        against the index, so partition updates can never serve stale
        results.
    subresult_size:
        Capacity of the term-signature sub-result cache
        (:class:`~repro.perf.subresult.SubResultCache`) that lets
        reformulation chains reuse refined queries' meaningful-SLCA
        lists.  ``None`` (default) ties it to result caching: the
        default capacity when ``cache_size > 0``, disabled otherwise;
        ``0`` disables it explicitly.
    """

    #: Always ``None``: ``benchmarks/e2e/layers.py`` passes it to
    #: ``QueryPlanner(packed=...)``, which reads nothing from it.
    packed = None

    def __init__(self, index, model=None, cache_size=DEFAULT_CAPACITY,
                 subresult_size=None):
        self.index = index
        self.model = model if model is not None else full_model()
        self._model_key_memo = (None, None)
        index.derived.miner  # reads the vocabulary now, not on a first query
        #: Complete-answer cache (repro.perf.result_cache).
        self.result_cache = QueryResultCache(cache_size)
        #: Term-signature sub-result cache (repro.perf.subresult); tied
        #: to result caching by default so cold-path measurements with
        #: ``cache_size=0`` stay genuinely cold.
        if subresult_size is None:
            subresult_size = (
                DEFAULT_SUBRESULT_CAPACITY if cache_size > 0 else 0
            )
        self.subresult_cache = SubResultCache(subresult_size)
        #: Route counters (repro.plan).
        self._planner = QueryPlanner(index)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_tree(cls, tree, model=None):
        """Build the engine (and all indexes) from a parsed tree."""
        return cls(build_document_index(tree), model=model)

    @classmethod
    def from_xml(cls, text, model=None):
        """Build the engine from an XML document string."""
        return cls.from_tree(parse(text), model=model)

    @classmethod
    def from_file(cls, path, model=None):
        """Build the engine from an XML file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_xml(handle.read(), model=model)

    @classmethod
    def from_frozen(cls, path, model=None, **kwargs):
        """Serve a frozen snapshot file (see :mod:`repro.index.frozen`).

        Posting lists stay on the memory-mapped snapshot and decode
        lazily per keyword, so the engine reaches its first answer
        without ever rebuilding or bulk-decoding the index.
        """
        from ..index.frozen import load_frozen_index

        return cls(load_frozen_index(path), model=model, **kwargs)

    # ------------------------------------------------------------------
    # Hot-path plumbing (repro.perf)
    # ------------------------------------------------------------------
    @property
    def miner(self):
        """The index version's rule miner."""
        return self.index.derived.miner

    def _model_key(self):
        """The model parameters that affect a query's answer.

        Built once per model object (a model is treated as immutable
        once an engine holds it; assign a new one to change weights).
        """
        model = self.model
        memo = self._model_key_memo
        if memo[0] is not model:
            memo = self._model_key_memo = (model, (
                model.alpha,
                model.beta,
                model.decay,
                model.use_g1,
                model.use_g2,
                model.use_g3,
                model.use_g4,
                model.g2_domain,
            ))
        return memo[1]

    def _result_key(self, terms, k, algorithm, rank_results):
        """The result-cache key of a validated refinement search.

        Keyed on the route, not the requested name: ``auto`` and
        ``sle`` are one evaluation and share one entry.
        """
        return (
            "search",
            terms,
            k,
            AUTO_ROUTE if algorithm == "auto" else algorithm,
            bool(rank_results),
            self._model_key(),
        )

    def clear_caches(self):
        """Explicitly drop the engine-level result caches."""
        self.result_cache.clear()
        self.subresult_cache.clear()

    def cache_stats(self):
        """Monitoring snapshot of every hot-path cache layer."""
        tree = self.index.tree
        return {
            #: ``admission_rejects`` is always 0 (the cache admits
            #: every entry); kept because ``benchmarks/e2e/layers.py``
            #: reads it from ``/stats``.
            "results": {**self.result_cache.stats(), "admission_rejects": 0},
            "subresults": self.subresult_cache.stats(),
            #: size / limit / hits / misses / evictions of the keyword-
            #: rules, DP, search-for and need-column memos of the index
            #: version.
            "memos": self.index.derived.stats(),
            "index_version": getattr(self.index, "version", 0),
            #: Document partitions resident as node objects.  Refinement
            #: search never reads the tree, so over a frozen snapshot
            #: this stays 0 until presentation (``rank_results``,
            #: :meth:`node`, the CLI) faults partitions in — the first
            #: thing to look at when a daemon's RSS grows.
            "tree_partitions_loaded": tree.loaded_partition_count(),
            "tree_partitions": tree.partition_count(),
            #: Evaluations per route and cached DP memo identities.
            "planner": self.planner.stats(),
        }

    @property
    def planner(self):
        """The engine's :class:`~repro.plan.planner.QueryPlanner`."""
        return self._planner

    def close(self):
        """Nothing to release: the engine owns no process, segment or file.

        Kept because ``benchmarks/e2e`` calls it; whoever opened a
        frozen snapshot closes that through ``index.frozen_snapshot``.
        """

    # ------------------------------------------------------------------
    # Snapshot hot-swap (repro.serve)
    # ------------------------------------------------------------------
    def prepare_swap(self, new_index, queries=()):
        """Warm a generation about to swap in for a set of hot queries.

        The optional slow companion of :meth:`swap_index`.  The first
        post-flip occurrence of every query pays the new generation's
        cold costs on the serving thread — a miner over the fresh
        vocabulary (its stems, and a spelling index when the carried
        one is too far out of date: 10–20 ms on the bundled corpora),
        mining the rules of keywords that miner has not seen, decoding
        posting lists, and inferring the search-for statistics.  Run
        this on a background thread while the old generation keeps
        serving: it fills ``new_index.derived`` (not yet shared with
        the serving path), which the flip then serves from.  Its miner
        is the serving one updated
        (:meth:`~repro.lexicon.mining.RuleMiner.updated`), as on an
        unprepared swap.  Call it again to warm more queries; returns
        how many of ``queries`` were warmed.
        """
        derived = new_index.derived
        derived.inherit(self.index.derived)
        miner = derived.miner
        # Built here, on the reload thread, so the first post-flip
        # misspelling pays no index build.
        miner.spelling_index()
        warmed = 0
        for query in queries:
            terms = tuple(query_terms(query))
            if not terms:
                continue
            rules = miner.mine(terms)
            try:
                # Opens the keyword space's lists (memoized on
                # new_index) and fills its search-for memo.
                context = QueryContext(new_index, terms, rules)
            except QueryError:
                continue
            for inverted in context.lists.values():
                columns_for(inverted)  # decodes the list into its columns
            warmed += 1
        return warmed

    def swap_index(self, new_index):
        """Atomically re-point this engine at a freshly loaded index.

        The zero-downtime reload primitive of the serving daemon
        (:mod:`repro.serve`): one long-lived engine keeps serving while
        a newer snapshot is loaded elsewhere, then flips to it here.
        Returns the previous :class:`~repro.index.builder.DocumentIndex`
        so the caller can release its resources (the mmap) once the
        last in-flight reader of the old generation has exited.

        What the flip guarantees:

        * ``new_index.version`` is restamped to ``old version + 1``, so
          version numbers stay unique and monotonic across generations
          — a freshly loaded snapshot starts at version 0, which would
          otherwise collide with the first generation's stamp and let
          version-checked caches serve cross-snapshot answers.
        * The index reference flip and the result-cache purge happen
          under the result cache's lock, making them atomic with
          respect to every concurrent stamp check-and-return.
        * Everything derived from the old index stays in its holder;
          the engine serves ``new_index.derived``, filled by
          :meth:`prepare_swap` or, with no warm-up, built on use.
          Either way its miner is the old one updated
          (:meth:`~repro.lexicon.mining.RuleMiner.updated`).

        The caller must ensure no query is *executing* on this engine
        during the flip (the daemon runs it on its single query thread,
        serialized behind in-flight requests); concurrent cache *reads*
        from other threads are safe.
        """
        old_index = self.index
        if new_index is old_index:
            return old_index
        new_index.version = getattr(old_index, "version", 0) + 1
        new_index.derived.inherit(old_index.derived)
        with self.result_cache.lock:
            self.index = new_index
            self.result_cache.purge_other_versions(new_index.version)
            # Sub-results obey the same generation contract: purged
            # atomically with the flip so no old-generation SLCA list
            # can assemble a post-swap answer.
            self.subresult_cache.purge_other_versions(new_index.version)
        self.planner.on_index_swap(new_index)
        return old_index

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def mine_rules(self, query):
        """The pertinent rule set for a query (terms are normalized),
        mined by the index version's miner, which keeps each keyword's
        own rules (:attr:`~repro.lexicon.mining.RuleMiner.keyword_rules`)
        and mines only the merges and contractions per query."""
        return self.index.derived.miner.mine(tuple(query_terms(query)))

    def search(self, query, k=1, algorithm="auto", rules=None,
               rank_results=False, explain=False):
        """Automatic refinement search (Issues 1–4 of the introduction).

        Parameters
        ----------
        query:
            Keyword string or sequence.
        k:
            Number of ranked refined queries wanted when refinement is
            needed.
        algorithm:
            ``"auto"`` (default) runs Algorithm 3 (SLE); a fixed
            ``"partition"`` (Algorithm 2), ``"sle"`` (Algorithm 3) or
            ``"stack"`` (Algorithm 1; Top-1 only) reproduces the
            paper's comparison.  Answers are byte-identical for every
            choice.
        rules:
            Pre-mined :class:`~repro.lexicon.rules.RuleSet`; mined on
            the fly when omitted.
        rank_results:
            When True, each result list is reordered by the XML TF*IDF
            result ranking of [6] instead of document order.
        explain:
            When True, attach a :class:`~repro.plan.planner.QueryPlan`
            naming the route that answered to ``response.plan``.  A
            result-cache hit returns a copy of the cached response
            whose plan says ``cached``; the shared entry is untouched.

        Returns
        -------
        RefinementResponse
        """
        terms = self.normalize(query, k, algorithm)
        return self._search_validated(
            terms, k, algorithm, rules, rank_results, explain
        )

    def normalize(self, query, k=1, algorithm="auto"):
        """Validate a search request; returns its normalized term tuple.

        The checks :meth:`search` runs before it looks anything up —
        ``k`` a positive ``int`` (not ``bool``, not ``1.0``: both hash
        like ``1`` and would otherwise *hit* the ``k=1`` cache entry),
        ``algorithm`` in the registry, at least one indexable term —
        each failing with :class:`~repro.errors.QueryError`.  Reads no
        engine state, so any thread may call it; a returned tuple
        passed back in as ``query`` normalizes to itself.
        """
        _validate_k(k)
        if algorithm not in ALGORITHMS:
            raise QueryError(
                f"unknown refinement algorithm {algorithm!r}; "
                f"expected one of {ALGORITHMS}"
            )
        terms = tuple(query_terms(query))
        if not terms:
            raise QueryError(
                "the keyword query is empty (no indexable terms after "
                "normalization)"
            )
        return terms

    def cached_body(self, terms, k=1, algorithm="auto", rank_results=False):
        """The memoized wire body of a result-cache hit, or ``None``.

        The serving daemon's event-loop probe; safe from any thread.
        ``terms``/``k``/``algorithm`` must have passed
        :meth:`normalize`.  The lookup is the one :meth:`search` makes
        — ``index.version`` read and cache probed under the cache lock
        that :meth:`swap_index` holds across its flip and purge, so a
        body of the previous generation is unreachable the moment the
        flip completes.  It *counts* (hit counter, recency) only when
        it returns a body: on anything else — no entry, a stale one, a
        response the daemon has not rendered yet — it leaves the cache
        untouched and the caller's :meth:`search` makes the request's
        one counted lookup.
        """
        cache = self.result_cache
        if not cache.enabled:
            return None
        key = self._result_key(terms, k, algorithm, rank_results)
        with cache.lock:
            version = getattr(self.index, "version", 0)
            response = cache.peek(key, version)
            if response is None or response.wire_body is None:
                return None
            cache.get(key, version)
            return response.wire_body

    def _search_validated(self, terms, k, algorithm, rules, rank_results,
                          explain):
        """Cache lookup + dispatch for pre-validated arguments."""
        # Repeated-query fast path: answers are cached only for engine-
        # mined rules (a caller-supplied RuleSet is part of the answer
        # but not hashable into a key) and returned as the same object —
        # treat responses as read-only.
        cache_key = None
        # The version every cache interaction for this request uses is
        # captured exactly once, atomically with the lookup (under the
        # cache lock, which swap_index also holds while it flips the
        # index): a hit can never race a snapshot swap into returning
        # an old generation's answer, and the eventual put is stamped
        # with the version the response was *computed against*, so an
        # evaluation that straddles a swap stores an unreachable entry
        # instead of poisoning the new generation.
        version = getattr(self.index, "version", 0)
        mined = rules is None
        force = None if algorithm == "auto" else algorithm
        if rules is None and self.result_cache.enabled:
            cache_key = self._result_key(terms, k, algorithm, rank_results)
            with self.result_cache.lock:
                version = getattr(self.index, "version", 0)
                cached = self.result_cache.get(cache_key, version)
            if cached is not None:
                if explain:
                    return self._explained_hit(cached, terms, k, force)
                return cached
        if rules is None:
            rules = self.mine_rules(terms)
        # Sub-result fast path: when an earlier evaluation (typically
        # the corrupted head of this reformulation chain) already
        # deposited this term set's meaningful SLCAs, assemble the
        # direct-hit response from them instead of re-running the full
        # algorithm.  Byte-identical to a cold evaluation — the verify
        # oracle's cache-layer check holds it to that.
        if (
            mined
            and not explain
            and self.subresult_cache.enabled
        ):
            response = self._assemble_from_subresults(terms, rules, version)
            if response is not None:
                if rank_results:
                    from .ranking.results import rank_response_results

                    rank_response_results(self.index, response)
                if cache_key is not None:
                    self.result_cache.put(cache_key, response, version)
                return response
        plan = self.planner.plan(terms, rules, k, force=force)
        response = self._execute_plan(plan, terms, rules, k)
        if explain:
            plan.actual_seconds = response.stats.elapsed_seconds
            response.plan = plan
        if mined and self.subresult_cache.enabled:
            # Deposit *before* rank_results mutates the result lists —
            # sub-results must stay in the canonical document order a
            # cold evaluation would produce.
            self._deposit_subresults(response, version, plan.executed)
        if rank_results:
            from .ranking.results import rank_response_results

            rank_response_results(self.index, response)
        if cache_key is not None:
            self.result_cache.put(cache_key, response, version)
        return response

    def _explained_hit(self, cached, terms, k, force):
        """A copy of a result-cache hit carrying a ``cached`` plan.

        The cached response is shared by every later hit, so the plan
        goes on a copy; the evaluation that produced the entry ran the
        route the key names.
        """
        response = cached.copy()
        plan = self.planner.plan(terms, None, k, force=force)
        plan.cached = True
        plan.actual_seconds = cached.stats.elapsed_seconds
        response.plan = plan
        return response

    def _assemble_from_subresults(self, terms, rules, version):
        """A direct-hit response assembled from deposited sub-results.

        Valid only when the consumer's inferred search-for types equal
        the depositor's (meaningfulness is relative to them — see
        :mod:`repro.perf.subresult`); the cache refuses to serve a
        mismatch and the query falls back to full evaluation.  Returns
        ``None`` on any miss, and counts each as one: an absent
        signature before the query context is built for it.
        """
        signature = term_signature(terms)
        if self.subresult_cache.absent(signature):
            return None
        started = time.perf_counter()
        try:
            context = QueryContext(self.index, terms, rules)
        except QueryError:
            return None
        slcas = self.subresult_cache.get(
            signature, version, tuple(context.search_for_types)
        )
        if slcas is None:
            return None
        original_results = sorted(slcas)
        stats = ScanStats()
        stats.lists_opened = len(context.keyword_space)
        stats.elapsed_seconds = time.perf_counter() - started
        return RefinementResponse(
            query=context.query,
            needs_refinement=False,
            original_results=original_results,
            refinements=[],
            candidates=[],
            search_for=context.search_for,
            stats=stats,
        )

    def _deposit_subresults(self, response, version, algorithm):
        """Bank this evaluation's complete meaningful-SLCA lists.

        Only oracle-fingerprinted surfaces are deposited: the original
        query's results on a direct hit, and each surviving
        refinement's accumulated list.  Top-1 stack responses skip the
        refinement deposit — the cross-algorithm byte-identity
        contract covers stack's flag/original-results only, not its
        refinement result lists.
        """
        cache = self.subresult_cache
        types = tuple(c.node_type for c in response.search_for)
        if not response.needs_refinement:
            cache.put(
                term_signature(response.query), version, types,
                response.original_results,
            )
            return
        if algorithm == "stack":
            return
        for refinement in response.refinements:
            cache.put(
                term_signature(refinement.rq.keywords), version, types,
                refinement.slcas,
            )

    def _execute_plan(self, plan, terms, rules, k):
        """Run the route ``plan`` names; every evaluation comes here."""
        memos = self.index.derived.dp_memos(terms, rules, max(2 * k, 2))
        route = plan.executed
        if route == "sle":
            response = short_list_eager(
                self.index, terms, rules=rules, model=self.model, k=k,
                dp_memos=memos[:2],
            )
        elif route == "partition":
            response = partition_refine(
                self.index, terms, rules=rules, model=self.model, k=k,
                dp_memos=memos[:2],
            )
        else:  # "stack" — the registry was validated by the caller
            response = stack_refine(
                self.index, terms, rules=rules, model=self.model,
                dp_memo=memos[2],
            )
        self.planner.routed[route] += 1
        return response

    def search_many(self, queries, k=1, algorithm="auto",
                    rank_results=False):
        """Batch refinement search: one response per input query.

        The hot-path batch API: per-keyword decoded lists (the
        inverted-list cache) are shared across the whole call,
        and duplicate queries are deduplicated *before dispatch* — each
        distinct normalized query is evaluated exactly once per batch
        even when the LRU result cache is disabled or thrashing.
        Duplicate queries receive mutation-isolated **copies**
        (:meth:`RefinementResponse.copy`) of the one evaluated
        response, so a caller sorting or truncating one answer's lists
        can never corrupt another position's answer.
        ``k``/``algorithm`` are validated **once** for the whole batch
        (not per unique query); dispatch goes straight to the
        post-validation path.
        """
        k = _validate_k(k)
        if algorithm not in ALGORITHMS:
            raise QueryError(
                f"unknown refinement algorithm {algorithm!r}; "
                f"expected one of {ALGORITHMS}"
            )
        responses = []
        batch = {}  # normalized terms -> response
        for query in queries:
            terms = tuple(query_terms(query))
            if not terms:
                raise QueryError(
                    "the keyword query is empty (no indexable terms "
                    "after normalization)"
                )
            response = batch.get(terms)
            if response is None:
                response = self._search_validated(
                    terms, k, algorithm, None, rank_results, False,
                )
                batch[terms] = response
                responses.append(response)
            else:
                # Dedup-before-dispatch used to hand the *same* object
                # to every duplicate position; one caller mutating a
                # result list then corrupted every other's answer.
                responses.append(response.copy())
        return responses

    def slca_search(self, query):
        """Plain SLCA search of the original query (no refinement).

        Runs the columnar Scan Eager kernel the refinement routes serve
        with; the label-list implementations the paper baselines
        against (``stack-slca`` / ``scan-slca`` in Fig. 4) are plain
        functions in :mod:`repro.slca`.  Returns the SLCA labels in
        document order.
        """
        terms = query_terms(query)
        if not terms:
            raise QueryError(
                "the keyword query is empty (no indexable terms after "
                "normalization)"
            )
        cache_key = None
        version = getattr(self.index, "version", 0)
        if self.result_cache.enabled:
            cache_key = ("slca", tuple(terms))
            # Same atomic version-capture-plus-lookup as refinement
            # search: the stamp check cannot race a snapshot swap.
            with self.result_cache.lock:
                version = getattr(self.index, "version", 0)
                cached = self.result_cache.get(cache_key, version)
            if cached is not None:
                return list(cached)
        results = slca_columns(
            [columns_for(self.index.inverted.get(term)) for term in terms]
        )
        if cache_key is not None:
            self.result_cache.put(cache_key, tuple(results), version)
        return results

    def node(self, dewey):
        """Fetch the tree node for a result label."""
        return self.index.tree.node(dewey)

    def __repr__(self):
        return f"XRefine({self.index!r})"
