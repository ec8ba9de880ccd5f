"""Shared plumbing for the three refinement algorithms (Section VI).

All three start identically: expand the original query ``Q`` with the
keywords generated by the pertinent rules (``getNewKeywords(Q) + Q``,
Algorithm 1 line 3), open the inverted lists, and infer the search-for
candidates used by both the meaningful-SLCA test and the ranking
model.  They also end identically: apply the full ranking model to the
surviving candidates (Algorithm 2 line 19).  That plumbing lives here.
"""

from __future__ import annotations

from array import array

from ..errors import QueryError
from ..index.tokenize_text import query_terms
from ..kernels import slca_hits
from ..perf.profiling import phase
from ..slca.meaningful import infer_search_for
from .result import RankedRefinement

#: ``need`` of a type no search-for type prefixes: no depth reaches it.
_NEVER = (1 << 63) - 1


class QueryContext:
    """Everything the refinement algorithms need about one query."""

    __slots__ = (
        "index",
        "query",
        "rules",
        "keyword_space",
        "lists",
        "search_for",
        "search_for_types",
        "need",
    )

    def __init__(self, index, query, rules):
        query = tuple(query_terms(query))
        if not query:
            raise QueryError("the keyword query is empty")
        self.index = index
        self.query = query
        self.rules = rules

        # KS = getNewKeywords(Q) + Q; generated keywords that do not
        # occur in the data cannot contribute to any RQ and are pruned.
        generated = {
            keyword
            for keyword in rules.generated_keywords()
            if index.has_keyword(keyword)
        }
        ordered = list(query)
        for keyword in sorted(generated):
            if keyword not in ordered:
                ordered.append(keyword)
        self.keyword_space = tuple(ordered)
        self.lists = {
            keyword: index.inverted_list(keyword)
            for keyword in self.keyword_space
        }

        # Search-for inference over KS: for a query whose own keywords
        # are all absent (e.g. pure typos), Formula 1 over Q alone is
        # all-zero, so the extension to "queries that may need to be
        # refined" (Section III-A) scores over the whole keyword space.
        # Served through the index's memo when available (repro.perf) —
        # repeated queries and ad-hoc indexes behave identically.
        present = [k for k in self.keyword_space if len(self.lists[k]) > 0]
        if not present:
            self.search_for = []
        else:
            cache = getattr(index, "search_for_cache", None)
            if cache is not None:
                self.search_for = cache.infer(present)
            else:
                self.search_for = infer_search_for(index, present)
        self.search_for_types = [c.node_type for c in self.search_for]

        # Definition 3.3 per interned type id.  A node at ``depth``
        # above a posting typed ``path`` has type ``path[:depth]``, and
        # is meaningful iff some search-for type prefixes that — iff
        # ``depth`` reaches the shortest search-for type prefixing
        # ``path``.  ``need[type_id]`` is that length; an ``int64``
        # column, so the compiled short-list finish reads it in place.
        types = self.search_for_types
        self.need = array("q", [
            min(
                (len(t) for t in types if path[: len(t)] == t),
                default=_NEVER,
            )
            for path in index.inverted.node_type_table
        ])

    # ------------------------------------------------------------------
    def is_meaningful_at(self, columns, position, depth):
        """Definition 3.3 for the node ``depth`` components deep on the
        path to posting ``position`` of ``columns``."""
        return depth >= self.need[columns.tids[position]]

    def meaningful_hits(self, column_ranges):
        """The meaningful SLCAs of ``[(ListColumns, lo, hi), ...]`` and
        their count: ``(HitRecord, count)``.

        :func:`~repro.kernels.slca_hits` applies Definition 3.3 as it
        emits; the record stays column entries, labelled only when a
        response is encoded or a result is read
        (:class:`~repro.core.result.RankedRefinement`).
        """
        hits = slca_hits(column_ranges, self.need)
        return hits, len(hits)

    def any_meaningful_hit(self, column_ranges):
        """Whether :meth:`meaningful_hits` would find any."""
        return len(slca_hits(column_ranges, self.need)) > 0

    def query_key(self):
        """Set identity of the original query."""
        return frozenset(self.query)


def rank_candidates(context, model, candidate_map):
    """Final ranking step shared by the three routes.

    ``candidate_map`` maps an RQ key to ``(RefinedQuery, HitRecord)``
    — the meaningful results :meth:`QueryContext.meaningful_hits`
    found.  Returns a list of :class:`RankedRefinement`, best first,
    scored by Formula 10 over ``model``'s similarity and dependence
    scores — which read the index's score memo, and no result; each
    builds its ``Dewey`` labels only if its ``slcas`` is read.  Ties
    fall back to ascending dissimilarity, then keyword order.
    """
    ranked = []
    index = context.index
    with phase("score"):
        for rq, hits in candidate_map.values():
            similarity_score = model.similarity_score(
                index, rq, context.query, context.search_for
            )
            dependence_score = model.dependence_score(
                index, rq, context.search_for
            )
            score = (
                model.alpha * similarity_score
                + model.beta * dependence_score
            )
            ranked.append(
                RankedRefinement(
                    rq,
                    rank_score=score,
                    similarity_score=similarity_score,
                    dependence_score=dependence_score,
                    hits=hits,
                )
            )
        ranked.sort(
            key=lambda item: (
                -item.rank_score,
                item.rq.dissimilarity,
                item.rq.keywords,
            )
        )
    return ranked
