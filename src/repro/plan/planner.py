"""Cost-based adaptive routing of ``algorithm="auto"`` queries.

:class:`QueryPlanner` estimates each refinement algorithm's running
time from :mod:`repro.plan.features` counts weighted by the
:mod:`repro.plan.cost_model` calibration and routes every ``auto``
query to the predicted winner.  The decision is recorded as a
:class:`QueryPlan` (chosen vs. executed algorithm, per-route
estimates, estimated vs. actual seconds, plan-cache provenance) which
the engine attaches to the response for ``explain=True``.

Two properties the rest of the system depends on:

* **Routing never changes answers.**  Partition and SLE are mutually
  byte-identical for every query; stack-refine is chosen only when a
  direct hit is predicted (direct-hit responses are identical across
  all three algorithms), and a misprediction falls back to Partition,
  so the response is byte-identical to every fixed algorithm no matter
  how wrong the cost model is.  The differential oracle enforces this.
* **Plans are cached.**  The :class:`PlanCache` LRU is keyed on
  ``(terms, rules fingerprint, k, index version)`` — the index
  version inside the key makes ``append_partition`` /
  ``remove_partition`` invalidate every cached plan implicitly.
"""

from __future__ import annotations

import statistics
from collections import OrderedDict

from ..perf.packed import PackedListStore
from .cost_model import calibration_for, dp_cost
from .features import extract_features

#: Routes the planner chooses between, in deterministic tie-break order.
FIXED_ROUTES = ("partition", "sle", "stack")
_ROUTE_ORDER = {name: position for position, name in enumerate(FIXED_ROUTES)}


class QueryPlan:
    """One routing decision and its outcome."""

    __slots__ = (
        "query",
        "k",
        "chosen",
        "executed",
        "forced",
        "estimates",
        "estimated_seconds",
        "actual_seconds",
        "fallback",
        "cached",
        "index_version",
        "features",
        "cache_key",
    )

    def __init__(self, query, k, index_version):
        self.query = tuple(query)
        self.k = k
        #: The route the cost model picked ("partition"/"sle"/"stack").
        self.chosen = None
        #: The route that actually produced the response (differs from
        #: ``chosen`` only via the stack→partition fallback).
        self.executed = None
        #: Set when the caller forced a fixed algorithm (explain mode).
        self.forced = None
        #: Per-route estimated seconds (absent routes were ineligible).
        self.estimates = {}
        self.estimated_seconds = None
        self.actual_seconds = None
        #: e.g. ``"stack->partition"`` when the direct-hit bet missed.
        self.fallback = None
        #: True when the decision came from the plan cache.
        self.cached = False
        self.index_version = index_version
        #: Compact feature summary (see ``QueryFeatures.summary``).
        self.features = {}
        #: Plan-cache key (internal; None for forced plans).
        self.cache_key = None

    def as_dict(self):
        return {
            "query": list(self.query),
            "k": self.k,
            "chosen": self.chosen,
            "executed": self.executed,
            "forced": self.forced,
            "estimates_ms": {
                name: round(seconds * 1e3, 4)
                for name, seconds in self.estimates.items()
            },
            "estimated_ms": (
                round(self.estimated_seconds * 1e3, 4)
                if self.estimated_seconds is not None else None
            ),
            "actual_ms": (
                round(self.actual_seconds * 1e3, 4)
                if self.actual_seconds is not None else None
            ),
            "fallback": self.fallback,
            "cached": self.cached,
            "index_version": self.index_version,
            "features": dict(self.features),
        }

    def describe(self):
        """Human-readable explain block (one string, newline-joined)."""
        def fmt_ms(seconds):
            return "n/a" if seconds is None else f"{seconds * 1e3:.3f} ms"

        executed = self.executed or self.chosen
        lines = [
            "plan: algorithm=%s (%s)%s" % (
                executed,
                "forced" if self.forced else "auto",
                " via fallback %s" % self.fallback if self.fallback else "",
            ),
            "  estimated %s, actual %s%s" % (
                fmt_ms(self.estimated_seconds),
                fmt_ms(self.actual_seconds),
                ", plan cache hit" if self.cached else "",
            ),
        ]
        if self.estimates:
            lines.append(
                "  estimates: " + " | ".join(
                    "%s %s" % (name, fmt_ms(self.estimates[name]))
                    for name in sorted(self.estimates)
                )
            )
        if self.features:
            feats = self.features
            lines.append(
                "  features: postings=%s partitions=%s anchor=%r(%s) "
                "rules=%s E[direct]=%s" % (
                    feats.get("total_postings"),
                    feats.get("union_partitions"),
                    feats.get("anchor"),
                    feats.get("anchor_length"),
                    feats.get("rule_count"),
                    feats.get("expected_direct_results"),
                )
            )
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"QueryPlan({'/'.join(self.query)}: {self.executed or self.chosen}"
            f"{' cached' if self.cached else ''})"
        )


class PlanCache:
    """LRU of routing decisions keyed on the full plan identity.

    The index version is part of the key, so partition appends and
    removals (which bump the version) invalidate every entry without a
    sweep; stale-version entries age out of the LRU naturally.
    """

    __slots__ = ("capacity", "_entries", "hits", "misses")

    def __init__(self, capacity=1024):
        self.capacity = capacity
        self._entries = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key, entry):
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = entry
        while len(entries) > self.capacity:
            entries.popitem(last=False)

    def peek(self, key):
        """Entry lookup without touching hit/miss/LRU accounting."""
        return self._entries.get(key)

    def purge_stale(self, current_version):
        """Drop every entry planned against a different index version.

        Plan keys end with the index version, so entries for other
        versions can never *hit* — but until a snapshot hot-swap
        started reusing one engine across index generations they also
        never needed to leave.  Dropping them on the flip keeps the
        LRU from carrying a full generation of dead routing decisions
        (and their learned-drift-scored estimates) into the new
        snapshot's working set.  Returns the number of entries dropped.
        """
        stale = [
            key for key in self._entries if key[-1] != current_version
        ]
        for key in stale:
            del self._entries[key]
        return len(stale)

    def __len__(self):
        return len(self._entries)

    def stats(self):
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
        }


class QueryPlanner:
    """Routes queries to the cheapest algorithm for one index."""

    #: Retained (estimate, actual) ratio samples for misroute analysis.
    RATIO_WINDOW = 128
    #: A specialist route (SLE's anchored probe, stack's single pass)
    #: must be predicted at least this much cheaper than Partition to
    #: win the route.  Partition's runtime is tightly bounded by the
    #: presence-skip probes, while SLE's step-2 whole-list SLCAs and a
    #: mispredicted stack direct hit overshoot their estimates — so
    #: near-ties go to the algorithm with the bounded tail, which is
    #: what a p95 latency target rewards.
    SPECIALIST_MARGIN = 0.85
    #: Stack must additionally be predicted this much cheaper than SLE
    #: to win a direct-hit route.  The stack model has the worst
    #: observed misestimate tail (~4-5x under actual on mid-sized-list
    #: direct hits, which saturates the clamped drift correction), so a
    #: narrow predicted win over SLE is more often model error than a
    #: real one — and SLE's actuals track its estimate closely.
    #: Re-swept after the v3 recalibration (batch-score term, stack
    #: costed from the LCP-run scan): 0.7-0.8 tie for the best routing
    #: accuracy on the pinned bench pool while 0.9-1.0 lose several
    #: points — the stack tail persists, so the margin stays.
    STACK_VS_SLE_MARGIN = 0.7
    #: Learned per-route corrections: the static model's systematic
    #: bias (e.g. SLE's step 2 running ~1.5x its estimate on a given
    #: corpus) shows up as a drift in the actual/estimated ratio, so
    #: routing multiplies each raw estimate by the median of the last
    #: CORRECTION_WINDOW executions' ratios for that route — once at
    #: least CORRECTION_MIN_SAMPLES have been observed, clamped so one
    #: outlier run can never swing routing by more than 4x.
    #:
    #: Samples are bucketed by the direct-hit prediction: a route's
    #: drift on direct-hit queries (early termination, probe-dominated
    #: tails) is systematically different from its drift on genuine
    #: refinements, and folding both into one median let the larger
    #: population steer the smaller one's routing.  The bucket key is
    #: ``"<route>"`` for non-direct plans and ``"<route>:direct"``
    #: otherwise.
    CORRECTION_WINDOW = 32
    CORRECTION_MIN_SAMPLES = 4
    CORRECTION_CLAMP = (0.25, 4.0)
    #: Distinct (terms, rules, capacity) DP memo identities kept.
    DP_MEMO_LIMIT = 512

    __slots__ = (
        "index",
        "packed",
        "_calibration",
        "cache",
        "_partition_counts",
        "_counts_version",
        "_dp_memos",
        "routed",
        "fallbacks",
        "planned",
        "cost_ratios",
        "_route_ratios",
    )

    def __init__(self, index, packed=None, calibration=None):
        self.index = index
        #: PackedListStore — the engine passes its own so decoded
        #: columns are shared with the SLCA path; version-coherent by
        #: identity.
        self.packed = packed if packed is not None else PackedListStore(index)
        self._calibration = calibration
        self.cache = PlanCache()
        self._partition_counts = {}
        self._counts_version = None
        self._dp_memos = {}
        self.routed = {name: 0 for name in FIXED_ROUTES}
        self.fallbacks = 0
        self.planned = 0
        #: Recent (executed, actual/estimated) samples, newest last.
        self.cost_ratios = []
        #: Per-(route, direct-hit bucket) actual/raw-estimate ratios
        #: feeding _corrected(); see the CORRECTION_* class docs.
        self._route_ratios = {
            key: []
            for name in FIXED_ROUTES
            for key in (name, name + ":direct")
        }

    # ------------------------------------------------------------------
    # Snapshot hot-swap
    # ------------------------------------------------------------------
    def on_index_swap(self, index, packed=None):
        """Re-point the planner at a hot-swapped index.

        Everything derived from the *previous* corpus is dropped:

        * per-version plan-cache entries (they could never hit again,
          but they would otherwise survive the reload and occupy the
          LRU — the bug this method exists to fix);
        * the learned per-route drift corrections and ratio samples —
          they encode the old corpus's systematic cost-model bias, and
          applying them to the new snapshot mis-routes the first
          queries until the medians wash out;
        * the partition-count memo, the DP memos (rule sets are mined
          from the old vocabulary) and the calibration, which is
          re-read from the new snapshot (or re-measured) on first use.

        Routing *counters* (``planned``/``routed``/``fallbacks``) are
        monitoring state for the whole engine lifetime and survive.
        """
        self.index = index
        self.packed = packed if packed is not None else PackedListStore(index)
        self._calibration = None
        self.cache.purge_stale(getattr(index, "version", 0))
        self._partition_counts.clear()
        self._counts_version = None
        self._dp_memos.clear()
        self.cost_ratios.clear()
        for samples in self._route_ratios.values():
            samples.clear()

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------
    @property
    def calibration(self):
        calibration = self._calibration
        if calibration is None:
            calibration = calibration_for(self.index)
            self._calibration = calibration
        return calibration

    def partition_count(self, keyword):
        """Distinct-partition count of one keyword's list, memoized."""
        version = getattr(self.index, "version", 0)
        if version != self._counts_version:
            self._partition_counts.clear()
            self._counts_version = version
        count = self._partition_counts.get(keyword)
        if count is None:
            count = self.packed.get(keyword).partition_count()
            self._partition_counts[keyword] = count
        return count

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
            if len(self._dp_memos) >= self.DP_MEMO_LIMIT:
                self._dp_memos.clear()
            memos = ({}, {}, {})
            self._dp_memos[identity] = memos
        return memos

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def estimate_routes(self, features, k):
        """Per-route estimated seconds; ineligible routes are absent."""
        cal = self.calibration
        beam = max(2 * k, 2)
        query_len = len(features.terms)
        rules = features.rule_count
        dp1 = dp_cost(cal, query_len, rules, 1)
        dp_beam = dp_cost(cal, query_len, rules, beam)
        partitions = features.union_partitions
        # After the 1-beam skip probe stabilizes, only partitions that
        # can still improve the Top-2K run the full beam; 2*beam is the
        # steady-state bound on how many such improvements remain.
        full_beams = min(partitions, 2 * beam)

        # Every route finishes with one batch-ranking pass over
        # the kept candidates (at most the list capacity).
        ranking = cal.batch_score * beam

        partition = (
            cal.scan_posting * features.total_postings
            + partitions * (cal.partition_visit + dp1)
            + full_beams * dp_beam
            + cal.slca_posting * features.total_postings
            + ranking
        )
        if features.direct_hit_predicted and partitions:
            # A direct hit collapses the global bound to dSim = 0 at
            # the first partition holding the whole query, after which
            # the presence-bound probe rejects nearly every remaining
            # partition without DP or SLCA work.  Hit partitions are
            # uniform over the scan order, so on average a 1/(D+1)
            # prefix pays full per-partition cost and the rest pay a
            # probe each; the forward scan still reads every posting.
            prefix = min(
                float(partitions),
                partitions / (features.expected_direct_results + 1.0)
                + 1.0,
            )
            fraction = prefix / partitions
            partition = (
                cal.scan_posting * features.total_postings
                + prefix * (cal.partition_visit + dp1)
                + (partitions - prefix) * cal.probe
                + min(prefix, full_beams) * dp_beam
                + cal.slca_posting * features.total_postings * fraction
                + ranking
            )
        estimates = {"partition": partition}

        if features.anchor is not None:
            probes = max(0, len(features.keyword_space) - 1)
            estimates["sle"] = (
                cal.scan_posting * features.anchor_length
                + features.anchor_partitions
                * (cal.partition_visit + cal.probe * probes + dp1)
                + min(features.anchor_partitions, 2 * beam) * dp_beam
                # Step 2: whole-list SLCA per kept candidate.
                + beam
                * cal.slca_posting
                * features.avg_list_length
                * max(1, query_len - 1)
                + ranking
            )

        if features.direct_hit_predicted:
            # Per-posting cost is two measured terms: the merged-LCP
            # scan itself plus one amortized stack frame push/pop pair
            # (every posting enters the stack once and leaves once).
            estimates["stack"] = (
                (cal.stack_posting + cal.stack_push_pop)
                * features.total_postings
                + dp1 * min(partitions, 16)
                + cal.slca_posting * features.query_postings
                + ranking
            )

        return estimates

    @staticmethod
    def _bucket_key(name, direct_hit):
        """Correction-sample key of one (route, direct-hit) bucket."""
        return name + ":direct" if direct_hit else name

    def _correction_factor(self, key):
        """Median actual/raw-estimate drift of one bucket, or ``None``.

        ``key`` is a bucket key (``"sle"``, ``"stack:direct"``, ...);
        a bare route name reads its non-direct bucket.
        """
        samples = self._route_ratios.get(key)
        if not samples or len(samples) < self.CORRECTION_MIN_SAMPLES:
            return None
        low, high = self.CORRECTION_CLAMP
        return min(max(statistics.median(samples), low), high)

    def _corrected(self, name, estimate, direct_hit=False):
        factor = self._correction_factor(self._bucket_key(name, direct_hit))
        return estimate if factor is None else estimate * factor

    def _choose_serial(self, estimates, direct_hit=False):
        """``(chosen, corrected seconds)`` over the eligible routes."""
        corrected = {
            name: self._corrected(name, estimates[name], direct_hit)
            for name in FIXED_ROUTES
            if name in estimates
        }
        chosen = min(
            corrected,
            key=lambda name: (corrected[name], _ROUTE_ORDER[name]),
        )
        if (
            chosen == "stack"
            and "sle" in corrected
            and corrected["stack"]
            > corrected["sle"] * self.STACK_VS_SLE_MARGIN
        ):
            chosen = "sle"
        if (
            chosen != "partition"
            and corrected[chosen]
            > corrected["partition"] * self.SPECIALIST_MARGIN
        ):
            chosen = "partition"
        return chosen, corrected[chosen]

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _cache_key(self, terms, rules, k):
        return (
            tuple(terms),
            rules.fingerprint(),
            k,
            getattr(self.index, "version", 0),
        )

    def plan(self, terms, rules, k, force=None):
        """Build the :class:`QueryPlan` for one query.

        ``force`` pins the route to a fixed algorithm (used by
        ``explain=True`` on fixed-algorithm searches and by the
        differential oracle to exercise the stack fallback); forced
        plans bypass the plan cache.
        """
        version = getattr(self.index, "version", 0)
        plan = QueryPlan(terms, k, version)
        self.planned += 1

        if force is not None:
            plan.forced = force
            plan.chosen = force
            return plan

        key = self._cache_key(terms, rules, k)
        plan.cache_key = key
        entry = self.cache.get(key)
        if entry is not None:
            plan.cached = True
            plan.chosen = entry["chosen"]
            plan.estimates = entry["estimates"]
            plan.estimated_seconds = entry["estimated_seconds"]
            plan.features = entry["features"]
            return plan

        features = extract_features(
            self.index, terms, rules, self.partition_count
        )
        estimates = self.estimate_routes(features, k)
        chosen, estimated = self._choose_serial(
            estimates, features.direct_hit_predicted
        )
        plan.chosen = chosen
        plan.estimates = estimates
        plan.estimated_seconds = estimated
        plan.features = features.summary()
        self.cache.put(key, {
            "chosen": chosen,
            "estimates": estimates,
            "estimated_seconds": estimated,
            "features": plan.features,
        })
        return plan

    def record(self, plan, response):
        """Fold an execution's outcome back into the planner state."""
        stats = getattr(response, "stats", None)
        if stats is not None:
            plan.actual_seconds = stats.elapsed_seconds
        executed = plan.executed or plan.chosen
        if executed in self.routed:
            self.routed[executed] += 1
        if plan.fallback:
            self.fallbacks += 1
        raw = None
        if plan.estimates:
            raw = plan.estimates.get(executed)
        direct_hit = bool(
            (plan.features or {}).get("direct_hit_predicted")
        )
        if raw and plan.actual_seconds:
            # Ratios are taken against the *raw* estimate so the
            # learned corrections never feed back into themselves.
            ratio = plan.actual_seconds / raw
            self.cost_ratios.append((executed, round(ratio, 3)))
            del self.cost_ratios[: -self.RATIO_WINDOW]
            bucket = self._bucket_key(executed, direct_hit)
            if not plan.fallback and bucket in self._route_ratios:
                samples = self._route_ratios[bucket]
                samples.append(ratio)
                del samples[: -self.CORRECTION_WINDOW]
        if plan.forced is not None:
            return
        entry = (
            self.cache.peek(plan.cache_key)
            if plan.cache_key is not None
            else None
        )
        if entry is not None:
            # Re-score the cached route with the latest corrections so
            # identities planned before a drift was learned migrate to
            # the corrected winner without re-extracting features.
            chosen, estimated = self._choose_serial(
                entry["estimates"],
                bool(entry["features"].get("direct_hit_predicted")),
            )
            entry["chosen"] = chosen
            entry["estimated_seconds"] = estimated

    def stats(self):
        """Monitoring snapshot for ``XRefine.cache_stats()``."""
        calibration = self._calibration
        return {
            "planned": self.planned,
            "routed": dict(self.routed),
            "fallbacks": self.fallbacks,
            "plan_cache": self.cache.stats(),
            "cost_ratios": list(self.cost_ratios[-8:]),
            "corrections": {
                key: (
                    round(factor, 3) if factor is not None else None
                )
                for key in self._route_ratios
                for factor in (self._correction_factor(key),)
            },
            "calibration": (
                calibration.as_dict() if calibration is not None else None
            ),
        }
