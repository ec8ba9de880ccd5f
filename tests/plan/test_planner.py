"""Routing, plan-cache, and misroute-tracking tests for the planner.

The regime tests build :class:`QueryFeatures` by hand so each cost
regime is forced deterministically (no dependence on corpus timing):
a tiny shortest list must route to SLE, many sparse partitions with an
expensive SLE step 2 must route to Partition, and a dense query with a
predicted direct hit must route to stack-refine.
"""

import pytest

from repro.core.engine import XRefine
from repro.index import append_partition, build_document_index, remove_partition
from repro.lexicon.rules import RuleSet
from repro.plan.cost_model import DEFAULT_CALIBRATION
from repro.plan.features import QueryFeatures
from repro.plan.planner import PlanCache, QueryPlanner
from repro.xmltree.build import build_tree


def make_features(
    terms=("alpha", "beta"),
    keyword_space=None,
    total_postings=100,
    query_postings=None,
    anchor="alpha",
    anchor_length=10,
    anchor_partitions=4,
    union_partitions=8,
    rule_count=2,
    avg_list_length=50.0,
    direct_hit=False,
):
    features = QueryFeatures()
    features.terms = tuple(terms)
    features.keyword_space = (
        tuple(keyword_space) if keyword_space is not None else tuple(terms)
    )
    features.list_lengths = {}
    features.total_postings = total_postings
    features.query_postings = (
        total_postings if query_postings is None else query_postings
    )
    features.all_terms_present = True
    features.anchor = anchor
    features.anchor_length = anchor_length
    features.anchor_partitions = anchor_partitions
    features.union_partitions = union_partitions
    features.rule_count = rule_count
    features.avg_list_length = avg_list_length
    features.expected_direct_results = 2.0 if direct_hit else 0.0
    features.direct_hit_predicted = direct_hit
    return features


@pytest.fixture()
def planner():
    class FakeIndex:
        version = 0
        calibration = DEFAULT_CALIBRATION

    return QueryPlanner(FakeIndex())


def chosen_route(planner, features, k=1):
    estimates = planner.estimate_routes(features, k)
    return min(estimates, key=lambda name: estimates[name]), estimates


class TestCostRegimes:
    def test_tiny_shortest_list_routes_to_sle(self, planner):
        features = make_features(
            terms=("alpha", "beta", "gamma"),
            keyword_space=("alpha", "beta", "gamma", "delta"),
            total_postings=10_000,
            anchor="delta",
            anchor_length=5,
            anchor_partitions=3,
            union_partitions=500,
            avg_list_length=50.0,
        )
        route, estimates = chosen_route(planner, features)
        assert route == "sle"
        assert estimates["sle"] < estimates["partition"]

    def test_many_sparse_partitions_route_to_partition(self, planner):
        # No usefully short list, and SLE's back-loaded whole-list
        # SLCA (step 2) is expensive: Partition's single merged scan
        # with the per-partition skip bound wins.
        features = make_features(
            terms=("alpha", "beta"),
            total_postings=200,
            anchor="alpha",
            anchor_length=90,
            anchor_partitions=8,
            union_partitions=8,
            avg_list_length=5_000.0,
        )
        route, estimates = chosen_route(planner, features)
        assert route == "partition"
        assert estimates["partition"] < estimates["sle"]

    def test_rule_heavy_direct_hit_routes_to_stack(self, planner):
        # Stack-refine's single document-order pass pays a per-posting
        # premium but no per-partition DP, so it wins a predicted
        # direct hit when the rule pool makes each DP invocation dear,
        # the partitions are many, and the original query's lists are a
        # small slice of the rule-expanded keyword space (the SLCA term
        # stack pays covers only the original lists).
        features = make_features(
            terms=("alpha", "beta"),
            keyword_space=("alpha", "beta", "gamma", "delta", "epsilon"),
            total_postings=3_000,
            query_postings=500,
            anchor="alpha",
            anchor_length=2_000,
            anchor_partitions=250,
            union_partitions=300,
            rule_count=8,
            direct_hit=True,
        )
        route, estimates = chosen_route(planner, features)
        assert route == "stack"
        assert estimates["stack"] < estimates["partition"]
        assert estimates["stack"] < estimates["sle"]

    def test_stack_ineligible_without_predicted_direct_hit(self, planner):
        features = make_features(direct_hit=False)
        estimates = planner.estimate_routes(features, k=1)
        assert "stack" not in estimates


class TestStackSleMargin:
    """Stack must beat SLE by STACK_VS_SLE_MARGIN to win the route.

    The stack model has the worst misestimate tail of the three routes
    (~4-5x under actual on mid-sized-list direct hits, which saturates
    the clamped drift correction), so a narrow predicted win over SLE
    is treated as model error and the route goes to SLE instead.
    """

    def test_narrow_stack_win_reroutes_to_sle(self, planner):
        chosen, estimated = planner._choose_serial(
            {"partition": 1.0, "sle": 0.5, "stack": 0.4}
        )
        assert chosen == "sle"
        assert estimated == 0.5

    def test_decisive_stack_win_keeps_stack(self, planner):
        chosen, estimated = planner._choose_serial(
            {"partition": 1.0, "sle": 0.5, "stack": 0.3}
        )
        assert chosen == "stack"
        assert estimated == 0.3

    def test_guard_inert_when_sle_ineligible(self, planner):
        # Without SLE in the mix only the partition specialist margin
        # applies: a near-tie stack prediction still goes to partition.
        chosen, _ = planner._choose_serial({"partition": 1.0, "stack": 0.9})
        assert chosen == "partition"


class TestPlanRouting:
    def test_plan_routes_to_the_cheapest_estimate(self, planner, monkeypatch):
        features = make_features(
            terms=("alpha", "beta", "gamma"),
            keyword_space=("alpha", "beta", "gamma", "delta"),
            total_postings=10_000,
            anchor="delta",
            anchor_length=5,
            anchor_partitions=3,
            union_partitions=500,
        )
        monkeypatch.setattr(
            "repro.plan.planner.extract_features",
            lambda *args, **kwargs: features,
        )
        plan = planner.plan(("alpha", "beta", "gamma"), RuleSet(), k=1)
        assert plan.chosen == "sle"
        assert plan.estimated_seconds == plan.estimates["sle"]
        assert not plan.cached

    def test_second_plan_is_a_cache_hit(self, planner, monkeypatch):
        monkeypatch.setattr(
            "repro.plan.planner.extract_features",
            lambda *args, **kwargs: make_features(),
        )
        rules = RuleSet()
        first = planner.plan(("alpha", "beta"), rules, k=1)
        second = planner.plan(("alpha", "beta"), rules, k=1)
        assert not first.cached
        assert second.cached
        assert second.chosen == first.chosen
        assert planner.cache.hits == 1

    def test_forced_plan_bypasses_the_cache(self, planner, monkeypatch):
        monkeypatch.setattr(
            "repro.plan.planner.extract_features",
            lambda *args, **kwargs: make_features(),
        )
        rules = RuleSet()
        planner.plan(("alpha", "beta"), rules, k=1)
        forced = planner.plan(("alpha", "beta"), rules, k=1, force="stack")
        assert forced.forced == "stack"
        assert forced.chosen == "stack"
        assert not forced.cached

    def test_learned_drift_rescores_the_cached_route(
        self, planner, monkeypatch
    ):
        # Default features route to SLE on raw estimates (~0.7x the
        # Partition estimate).  Executions consistently running 2x the
        # raw estimate teach the planner SLE's drift on this corpus;
        # once CORRECTION_MIN_SAMPLES are in, record() re-scores the
        # cached entry and the same identity routes to Partition —
        # without any new feature extraction.
        monkeypatch.setattr(
            "repro.plan.planner.extract_features",
            lambda *args, **kwargs: make_features(),
        )
        rules = RuleSet()
        first = planner.plan(("alpha", "beta"), rules, k=1)
        assert first.chosen == "sle"

        class FakeResponse:
            needs_refinement = False
            candidates = []

        for _ in range(planner.CORRECTION_MIN_SAMPLES):
            plan = planner.plan(("alpha", "beta"), rules, k=1)

            class FakeStats:
                elapsed_seconds = plan.estimates["sle"] * 2.0

            response = FakeResponse()
            response.stats = FakeStats()
            plan.executed = "sle"
            planner.record(plan, response)

        rerouted = planner.plan(("alpha", "beta"), rules, k=1)
        assert rerouted.cached
        assert rerouted.chosen == "partition"
        assert planner.stats()["corrections"]["sle"] == pytest.approx(
            2.0, abs=0.01
        )
        assert planner.stats()["corrections"]["partition"] is None

    def test_misroute_ratio_is_logged(self, planner, monkeypatch):
        monkeypatch.setattr(
            "repro.plan.planner.extract_features",
            lambda *args, **kwargs: make_features(),
        )
        plan = planner.plan(("alpha", "beta"), RuleSet(), k=1)

        class FakeStats:
            elapsed_seconds = plan.estimated_seconds * 2.0

        class FakeResponse:
            needs_refinement = False
            candidates = []
            stats = FakeStats()

        plan.executed = plan.chosen
        planner.record(plan, FakeResponse())
        assert planner.cost_ratios
        executed, ratio = planner.cost_ratios[-1]
        assert executed == plan.chosen
        assert ratio == pytest.approx(2.0, abs=0.001)
        assert planner.stats()["cost_ratios"]


class TestBucketedCorrections:
    """Drift corrections are learned per (route, direct-hit) bucket."""

    def test_direct_hit_drift_lands_in_its_own_bucket(
        self, planner, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.plan.planner.extract_features",
            lambda *args, **kwargs: make_features(direct_hit=True),
        )
        plan = planner.plan(("alpha", "beta"), RuleSet(), k=1)

        class FakeStats:
            elapsed_seconds = plan.estimates[plan.chosen] * 2.0

        class FakeResponse:
            needs_refinement = False
            candidates = []
            stats = FakeStats()

        plan.executed = plan.chosen
        planner.record(plan, FakeResponse())
        assert planner._route_ratios[plan.chosen + ":direct"]
        assert not planner._route_ratios[plan.chosen]

    def test_choose_serial_consults_the_right_bucket(self, planner):
        # Teach the planner that SLE drifts 3x — but only on
        # direct-hit queries.
        for _ in range(planner.CORRECTION_MIN_SAMPLES):
            planner._route_ratios["sle:direct"].append(3.0)
        estimates = {"partition": 1.0, "sle": 0.6}
        assert planner._choose_serial(dict(estimates))[0] == "sle"
        assert (
            planner._choose_serial(dict(estimates), direct_hit=True)[0]
            == "partition"
        )

    def test_stats_reports_both_buckets(self, planner):
        corrections = planner.stats()["corrections"]
        assert "sle" in corrections
        assert "sle:direct" in corrections

    def test_stack_estimate_scales_with_push_pop_cost(self):
        from repro.plan.cost_model import _FIELDS, Calibration

        values = {
            name: getattr(DEFAULT_CALIBRATION, name) for name in _FIELDS
        }
        cheap = Calibration("test", **values)
        values["stack_push_pop"] = values["stack_push_pop"] * 10
        pricey = Calibration("test", **values)
        features = make_features(direct_hit=True, total_postings=10_000)

        def stack_estimate(calibration):
            class FakeIndex:
                version = 0

            FakeIndex.calibration = calibration
            estimates = QueryPlanner(FakeIndex()).estimate_routes(features, 1)
            assert "stack" in estimates
            return estimates["stack"]

        assert stack_estimate(pricey) > stack_estimate(cheap)


class TestPlanCacheInvalidation:
    @pytest.fixture()
    def engine(self):
        tree = build_tree(
            (
                "bib",
                None,
                [
                    (
                        "paper",
                        None,
                        [("title", "xml database systems"), ("year", "2003")],
                    ),
                    (
                        "paper",
                        None,
                        [("title", "database query refinement"), ("year", "2004")],
                    ),
                ],
            )
        )
        return XRefine(build_document_index(tree))

    def test_append_partition_invalidates_cached_plans(self, engine):
        engine.search("databse xml", algorithm="auto")
        terms = ("databse", "xml")
        rules = engine.mine_rules(terms)
        assert engine.planner.plan(terms, rules, k=1).cached

        append_partition(
            engine.index,
            ("paper", None, [("title", "xml stream systems")]),
        )
        # The version is part of the key: the old entry is unreachable.
        assert not engine.planner.plan(terms, rules, k=1).cached

    def test_remove_partition_invalidates_cached_plans(self, engine):
        engine.search("databse xml", algorithm="auto")
        terms = ("databse", "xml")
        rules = engine.mine_rules(terms)
        assert engine.planner.plan(terms, rules, k=1).cached

        remove_partition(
            engine.index, engine.index.tree.partitions()[0].dewey
        )
        assert not engine.planner.plan(terms, rules, k=1).cached

    def test_partition_count_memo_tracks_the_version(self, engine):
        before = engine.planner.partition_count("database")
        append_partition(
            engine.index,
            ("paper", None, [("title", "database engines")]),
        )
        after = engine.planner.partition_count("database")
        assert after == before + 1


class TestPlanCacheLRU:
    def test_capacity_is_enforced(self):
        cache = PlanCache(capacity=2)
        cache.put("a", {"chosen": "partition"})
        cache.put("b", {"chosen": "sle"})
        cache.put("c", {"chosen": "partition"})
        assert len(cache) == 2
        assert cache.peek("a") is None

    def test_get_refreshes_recency(self):
        cache = PlanCache(capacity=2)
        cache.put("a", {})
        cache.put("b", {})
        cache.get("a")
        cache.put("c", {})
        assert cache.peek("a") is not None
        assert cache.peek("b") is None

    def test_peek_does_not_touch_accounting(self):
        cache = PlanCache()
        cache.put("a", {})
        cache.peek("a")
        cache.peek("missing")
        assert cache.hits == 0
        assert cache.misses == 0
