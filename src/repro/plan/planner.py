"""The one route of ``algorithm="auto"`` and its explain record.

``auto`` is Algorithm 3 (Short-List Eager) for every query.  Across the
Top-K range of the paper's Fig. 5, SLE is at or below Partition and
below a cost model choosing per query among all three routes, on p50,
p95 and mean over the wire benchmark's ``cold_large`` pool (DESIGN.md,
"One route"), so there is no per-query decision left to make.  What
remains here is the bookkeeping every route shares:

* :class:`QueryPlanner` holds the per-engine refinement-DP memos and
  counts how many evaluations ran each route;
* :class:`QueryPlan` is the ``explain=True`` record: the requested
  algorithm, the route that answered, its elapsed time, and whether the
  answer came from the result cache.
"""

from __future__ import annotations

from collections import OrderedDict

from ..core.dp import BeamMemo

#: The three Section-VI refinement algorithms an evaluation can run.
FIXED_ROUTES = ("partition", "sle", "stack")
#: The route ``algorithm="auto"`` resolves to.
AUTO_ROUTE = "sle"


class QueryPlan:
    """How one response was produced (the ``explain=True`` record)."""

    __slots__ = (
        "query",
        "k",
        "forced",
        "executed",
        "actual_seconds",
        "cached",
        "index_version",
    )

    def __init__(self, query, k, executed, forced=None, index_version=0):
        self.query = tuple(query)
        self.k = k
        #: The fixed algorithm the caller asked for; ``None`` for auto.
        self.forced = forced
        #: The route that answered ("partition" / "sle" / "stack").
        self.executed = executed
        #: Elapsed seconds of the evaluation that produced the answer.
        self.actual_seconds = None
        #: True when the answer was served from the result cache.
        self.cached = False
        self.index_version = index_version

    def as_dict(self):
        return {
            "query": list(self.query),
            "k": self.k,
            "executed": self.executed,
            "forced": self.forced,
            "actual_ms": (
                round(self.actual_seconds * 1e3, 4)
                if self.actual_seconds is not None else None
            ),
            "cached": self.cached,
            "index_version": self.index_version,
        }

    def describe(self):
        """Human-readable explain block (one string, newline-joined)."""
        actual = (
            "n/a" if self.actual_seconds is None
            else f"{self.actual_seconds * 1e3:.3f} ms"
        )
        return "\n".join((
            "plan: algorithm=%s (%s)" % (
                self.executed, "forced" if self.forced else "auto"
            ),
            "  evaluated in %s%s" % (
                actual, ", served from the result cache" if self.cached else ""
            ),
        ))

    def __repr__(self):
        return (
            f"QueryPlan({'/'.join(self.query)}: {self.executed}"
            f"{' cached' if self.cached else ''})"
        )


class Calibration:
    """Per-operation unit costs from before ``auto`` became one route.

    Inert: nothing in the program reads it, and snapshots no longer
    store one.  It exists only because ``benchmarks/e2e/inputs.py``
    still builds one and assigns it to ``index.calibration`` before
    freezing.
    """

    __slots__ = ("source", "costs")

    def __init__(self, source="default", **costs):
        self.source = source
        self.costs = costs


class QueryPlanner:
    """Per-engine DP memos and route counters."""

    #: Distinct (terms, rules, capacity) DP memo identities kept; past
    #: it the least recently used identity is dropped.
    DP_MEMO_LIMIT = 512

    __slots__ = ("index", "_dp_memos", "routed")

    def __init__(self, index, packed=None):
        # ``packed`` is accepted because benchmarks/e2e/layers.py passes
        # one; nothing reads it.
        self.index = index
        self._dp_memos = OrderedDict()
        #: Evaluations per route over the engine's lifetime.
        self.routed = dict.fromkeys(FIXED_ROUTES, 0)

    def on_index_swap(self, index):
        """Re-point the planner at a hot-swapped index.

        Drops the DP memos (rule sets are mined from the old
        vocabulary); the route counters are monitoring state for the
        engine's lifetime and survive.
        """
        self.index = index
        self._dp_memos.clear()

    def dp_memos(self, terms, rules, capacity):
        """``(probe_memo, beam_memo, witness_memo)`` for one identity.

        The refinement DP is a pure function of
        ``(query, present keywords, rules, limit)`` — posting data never
        enters it — so the memos survive index-version bumps and are
        shared by every route the engine executes for this identity.
        """
        identity = (tuple(terms), rules.fingerprint(), capacity)
        memos = self._dp_memos.get(identity)
        if memos is None:
            memos = ({}, BeamMemo(), {})
            self._dp_memos[identity] = memos
            if len(self._dp_memos) > self.DP_MEMO_LIMIT:
                self._dp_memos.popitem(last=False)
        else:
            self._dp_memos.move_to_end(identity)
        return memos

    def plan(self, terms, rules, k, force=None):
        """The :class:`QueryPlan` for one query.

        ``force`` is a fixed algorithm the caller asked for; without
        one the route is :data:`AUTO_ROUTE`.  No route depends on
        ``rules``; it is accepted so a caller plans with the arguments
        it executes with.
        """
        return QueryPlan(
            terms,
            k,
            force or AUTO_ROUTE,
            forced=force,
            index_version=getattr(self.index, "version", 0),
        )

    def stats(self):
        """Monitoring snapshot for ``XRefine.cache_stats()``."""
        return {
            "routed": dict(self.routed),
            "dp_memos": len(self._dp_memos),
            # Constant since ``auto`` became one route: there is no
            # fallback and no plan cache.  Kept as keys because readers
            # of /stats (the e2e benchmark among them) look them up.
            "fallbacks": 0,
            "plan_cache": None,
        }
