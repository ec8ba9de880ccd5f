"""The route a plan names, and when an explained response is ``cached``.

``auto`` is one route (SLE) whatever the posting lists look like; a
forced plan names what was forced.  The plan an explained response
carries says ``cached`` exactly when the result cache answered, and an
index-version bump (a partition appended or removed) turns the next
explained request back into an evaluation.
"""

import pytest

from repro.core.engine import XRefine
from repro.index import append_partition, build_document_index, remove_partition
from repro.verify.oracle import response_fingerprint
from repro.xmltree.build import build_tree


def paper(title):
    return ("paper", None, [("title", title), ("year", "2004")])


@pytest.fixture()
def engine():
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


class TestCostRegimes:
    def test_tiny_shortest_list_routes_to_sle(self):
        # One very short list among long ones: the regime Algorithm 3
        # was designed for, and the route auto takes for every query.
        papers = [paper(f"alpha beta gamma study {i}") for i in range(60)]
        papers.append(paper("alpha beta gamma delta"))
        index = build_document_index(build_tree(("bib", None, papers)))
        engine = XRefine(index, cache_size=0)
        terms = ("alpha", "beta", "gamma", "delta")
        assert len(index.inverted_list("delta")) * 10 < len(
            index.inverted_list("alpha")
        )

        plan = engine.planner.plan(terms, engine.mine_rules(terms), k=1)
        assert plan.executed == "sle"
        assert plan.forced is None
        response = engine.search(terms, k=1, explain=True)
        assert response.plan.executed == "sle"
        assert response_fingerprint(response) == response_fingerprint(
            engine.search(terms, k=1, algorithm="partition")
        )


class TestPlanRouting:
    def test_second_plan_is_a_cache_hit(self, engine):
        first = engine.search("databse xml", explain=True)
        second = engine.search("databse xml", explain=True)
        assert not first.plan.cached
        assert second.plan.cached
        assert second.plan.executed == first.plan.executed == "sle"
        assert engine.cache_stats()["results"]["hits"] == 1
        assert engine.cache_stats()["planner"]["routed"]["sle"] == 1

    def test_forced_plan_bypasses_the_cache(self, engine):
        engine.search("databse xml", algorithm="auto")
        forced = engine.search("databse xml", algorithm="stack", explain=True)
        assert forced.plan.forced == "stack"
        assert forced.plan.executed == "stack"
        assert not forced.plan.cached
        routed = engine.cache_stats()["planner"]["routed"]
        assert routed == {"partition": 0, "sle": 1, "stack": 1}

        terms = ("databse", "xml")
        plan = engine.planner.plan(
            terms, engine.mine_rules(terms), k=1, force="stack"
        )
        assert (plan.forced, plan.executed, plan.cached) == (
            "stack", "stack", False
        )


class TestPlanCacheInvalidation:
    def explained(self, engine):
        return engine.search("databse xml", algorithm="auto", explain=True)

    def test_append_partition_invalidates_cached_plans(self, engine):
        self.explained(engine)
        assert self.explained(engine).plan.cached

        append_partition(engine.index, paper("xml stream systems"))
        # The version is part of the key: the old entry is unreachable.
        after = self.explained(engine)
        assert not after.plan.cached
        assert after.plan.index_version == engine.index.version
        assert response_fingerprint(after) == response_fingerprint(
            XRefine(engine.index, cache_size=0).search("databse xml")
        )

    def test_remove_partition_invalidates_cached_plans(self, engine):
        self.explained(engine)
        assert self.explained(engine).plan.cached

        remove_partition(
            engine.index, engine.index.tree.partitions()[0].dewey
        )
        after = self.explained(engine)
        assert not after.plan.cached
        assert after.plan.index_version == engine.index.version
        assert response_fingerprint(after) == response_fingerprint(
            XRefine(engine.index, cache_size=0).search("databse xml")
        )
