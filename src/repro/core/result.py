"""Result objects shared by the three refinement algorithms.

Every algorithm — stack-refine, Partition, SLE — answers a query with a
:class:`RefinementResponse`: whether the original query needed
refinement (Definition 3.4), the original query's meaningful SLCAs when
it did not, the ranked refined queries with *their* results when it
did, the inferred search-for candidates, and scan accounting that the
tests use to assert the one-scan guarantees of Theorems 1 and 2.
"""

from __future__ import annotations

from ..kernels.hits import HitRecord


class ScanStats:
    """Inverted-list access accounting for one query evaluation."""

    __slots__ = (
        "postings_scanned",
        "probes",
        "dp_invocations",
        "slca_invocations",
        "partitions_visited",
        "partitions_skipped",
        "lists_opened",
        "elapsed_seconds",
    )

    def __init__(self):
        self.postings_scanned = 0
        self.probes = 0
        self.dp_invocations = 0
        self.slca_invocations = 0
        self.partitions_visited = 0
        self.partitions_skipped = 0
        self.lists_opened = 0
        self.elapsed_seconds = 0.0

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        return (
            f"ScanStats(scanned={self.postings_scanned}, probes={self.probes}, "
            f"dp={self.dp_invocations}, slca={self.slca_invocations})"
        )


class RankedRefinement:
    """One refined query with its results and ranking breakdown.

    The routes hand results over as the
    :class:`~repro.kernels.hits.HitRecord` the SLCA kernel returned
    (``hits``): column entries, no label built.  :meth:`labels` renders
    the dotted labels a response sends from the record, in one kernel
    call; :attr:`slcas` builds the ``Dewey`` labels the first time it
    is read and drops the record.  A response sends only its Top-K, so
    the rest of SLE's Top-2K candidates are never labelled.
    """

    __slots__ = (
        "rq",
        "_hits",
        "_slcas",
        "rank_score",
        "similarity_score",
        "dependence_score",
    )

    def __init__(
        self,
        rq,
        slcas=(),
        rank_score=0.0,
        similarity_score=0.0,
        dependence_score=0.0,
        hits=None,
    ):
        self.rq = rq
        #: Results not yet built into ``_slcas``.
        self._hits = hits
        self._slcas = list(slcas) if hits is None else None
        self.rank_score = rank_score
        self.similarity_score = similarity_score
        self.dependence_score = dependence_score

    @property
    def slcas(self):
        """The result labels, in document order (a mutable list)."""
        hits = self._hits
        if hits is not None:
            # _slcas is set before _hits is cleared, so a concurrent
            # reader sees either the record or the built list.
            self._slcas = hits.deweys()
            self._hits = None
        return self._slcas

    def labels(self):
        """The results as dotted label strings, in :attr:`slcas` order:
        rendered from the record while :attr:`slcas` is unread, else
        ``str()`` of each built label (which ``rank_results`` may have
        reordered)."""
        hits = self._hits
        if hits is not None:
            return hits.labels()
        return [str(label) for label in self._slcas]

    @property
    def keywords(self):
        return self.rq.keywords

    @property
    def dissimilarity(self):
        return self.rq.dissimilarity

    @property
    def result_count(self):
        hits = self._hits
        return len(hits) if hits is not None else len(self._slcas)

    def copy(self):
        """A mutation-isolated duplicate (fresh ``slcas`` list).

        The :class:`~repro.core.common.RefinedQuery` is shared — it is
        treated as immutable everywhere — but the result-label list is
        the caller-facing mutable surface and gets its own copy.  Unbuilt
        results stay unbuilt: the copy shares the (read-only) record.
        """
        hits = self._hits
        return RankedRefinement(
            self.rq,
            self._slcas if hits is None else (),
            self.rank_score,
            self.similarity_score,
            self.dependence_score,
            hits=hits,
        )

    def __repr__(self):
        return (
            f"RankedRefinement({{{', '.join(self.rq.keywords)}}}, "
            f"dSim={self.rq.dissimilarity}, results={self.result_count}, "
            f"rank={self.rank_score:.4f})"
        )


class RefinementResponse:
    """Complete answer for one keyword query."""

    __slots__ = (
        "query",
        "needs_refinement",
        "_original_hits",
        "_original_results",
        "refinements",
        "candidates",
        "search_for",
        "stats",
        "plan",
        "wire_body",
    )

    def __init__(
        self,
        query,
        needs_refinement,
        original_results,
        refinements,
        search_for,
        stats,
        candidates=None,
        plan=None,
    ):
        self.query = tuple(query)
        self.needs_refinement = needs_refinement
        #: ``original_results`` as the routes hand it over — a
        #: :class:`~repro.kernels.hits.HitRecord` — until it is read;
        #: a list of ``Dewey`` labels is kept as given.
        if isinstance(original_results, HitRecord):
            self._original_hits = original_results
            self._original_results = None
        else:
            self._original_hits = None
            self._original_results = list(original_results)
        self.refinements = list(refinements)
        #: The full ranked candidate list before Top-K truncation (the
        #: paper's 2K working set); equals ``refinements`` for Top-1
        #: algorithms.
        self.candidates = (
            list(candidates) if candidates is not None else list(refinements)
        )
        self.search_for = list(search_for)
        self.stats = stats
        #: The :class:`~repro.plan.planner.QueryPlan` naming the route
        #: that answered, when the caller asked with ``explain=True``;
        #: ``None`` otherwise.  Not part of the answer fingerprint.
        self.plan = plan
        #: The serving daemon's rendered JSON body for this response
        #: (``bytes``), memoized by :mod:`repro.serve` so a result-cache
        #: hit re-sends it instead of re-encoding; ``None`` until the
        #: daemon first answers with it.  Like ``plan`` it is not part
        #: of the answer fingerprint, and :meth:`copy` does not carry
        #: it — a copy exists to be mutated.
        self.wire_body = None

    @property
    def original_results(self):
        """The original query's meaningful SLCAs on a direct hit, in
        document order (a mutable list, built the first time it is
        read)."""
        hits = self._original_hits
        if hits is not None:
            self._original_results = hits.deweys()
            self._original_hits = None
        return self._original_results

    def original_labels(self):
        """:attr:`original_results` as dotted label strings — rendered
        from the record while the list is unread."""
        hits = self._original_hits
        if hits is not None:
            return hits.labels()
        return [str(label) for label in self._original_results]

    def copy(self):
        """A mutation-isolated duplicate of this response.

        Every caller-facing list — ``original_results``,
        ``refinements`` (and each refinement's ``slcas``),
        ``candidates``, ``search_for`` — is freshly allocated, so a
        caller sorting or truncating one returned response can never
        corrupt another caller's answer.  :class:`RankedRefinement`
        objects shared between ``refinements`` and ``candidates`` keep
        that sharing in the copy (they are the same ranked entry, not
        coincidentally equal ones); immutable leaves (``rq``, Dewey
        labels, unread result records) and the ``stats``/``plan``
        records are shared.  The memoized ``wire_body`` is dropped.
        """
        hits = self._original_hits
        copies = {id(r): r.copy() for r in self.refinements}
        for candidate in self.candidates:
            if id(candidate) not in copies:
                copies[id(candidate)] = candidate.copy()
        clone = RefinementResponse(
            self.query,
            self.needs_refinement,
            self._original_results if hits is None else hits,
            [copies[id(r)] for r in self.refinements],
            self.search_for,
            self.stats,
            candidates=[copies[id(r)] for r in self.candidates],
            plan=self.plan,
        )
        return clone

    def top(self, k=1):
        """The best ``k`` refined queries (best first)."""
        return self.refinements[:k]

    @property
    def best(self):
        """The best refined query, or ``None``."""
        return self.refinements[0] if self.refinements else None

    def __repr__(self):
        status = "needs refinement" if self.needs_refinement else "direct hit"
        return (
            f"RefinementResponse({{{', '.join(self.query)}}}: {status}, "
            f"{len(self.refinements)} refinements)"
        )
