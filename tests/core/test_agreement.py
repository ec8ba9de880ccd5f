"""Cross-algorithm agreement and the one-scan guarantees.

Theorems 1 and 2 promise (a) the optimal refined query in terms of
``dSim`` with a meaningful result, and (b) a single scan of every
inverted list.  These tests check both properties over generated
workloads: the three algorithms must agree on the optimal
dissimilarity, and cursor accounting must show no posting consumed
twice.
"""

import pytest

from repro.core import partition_refine, short_list_eager, stack_refine
from repro.core.common import QueryContext
from repro.lexicon import RuleMiner
from repro.workload import ALL_KINDS, WorkloadGenerator


@pytest.fixture(scope="module")
def workload(dblp_index):
    generator = WorkloadGenerator(dblp_index, seed=77)
    queries = []
    for kind in ALL_KINDS:
        for _ in range(2):
            queries.append(generator.refinable_query(kinds=[kind]))
    queries.append(generator.clean_query())
    return queries


@pytest.fixture(scope="module")
def miner(dblp_index):
    return RuleMiner(dblp_index.inverted.keywords())


class TestOptimalAgreement:
    def test_all_algorithms_agree_on_optimal_dsim(
        self, dblp_index, workload, miner
    ):
        for pool_query in workload:
            rules = miner.mine(pool_query.query)
            responses = {
                "stack": stack_refine(dblp_index, pool_query.query, rules),
                "partition": partition_refine(
                    dblp_index, pool_query.query, rules, None, 1
                ),
                "sle": short_list_eager(
                    dblp_index, pool_query.query, rules, None, 1
                ),
            }
            flags = {n: r.needs_refinement for n, r in responses.items()}
            assert len(set(flags.values())) == 1, (pool_query, flags)
            if not pool_query.refinable:
                assert not responses["partition"].needs_refinement
                continue
            # Algorithm 1 returns the dSim-optimal RQ; Algorithms 2/3
            # order their Top-K by the full ranking model, but their
            # candidate pool must contain a candidate at the same
            # optimal dissimilarity (Theorems 1 and 2).
            dsims = {}
            for name, response in responses.items():
                assert response.needs_refinement, (pool_query, name)
                if response.candidates:
                    dsims[name] = min(
                        c.rq.dissimilarity for c in response.candidates
                    )
            if dsims:
                assert len(set(dsims.values())) == 1, (pool_query, dsims)

    def test_original_results_agree(self, dblp_index, workload, miner):
        clean = [q for q in workload if not q.refinable]
        for pool_query in clean:
            rules = miner.mine(pool_query.query)
            results = {
                "stack": stack_refine(dblp_index, pool_query.query, rules),
                "partition": partition_refine(
                    dblp_index, pool_query.query, rules, None, 1
                ),
                "sle": short_list_eager(
                    dblp_index, pool_query.query, rules, None, 1
                ),
            }
            sets = {
                name: set(map(str, r.original_results))
                for name, r in results.items()
            }
            assert sets["stack"] == sets["partition"] == sets["sle"]


class TestOneScan:
    """Theorem 1/2: each list position is consumed at most once."""

    def _cursor_totals(self, index, query, rules, algorithm):
        # The algorithms account for their own list reads; assert on
        # the ScanStats they report.
        if algorithm == "stack":
            return stack_refine(index, query, rules)
        if algorithm == "partition":
            return partition_refine(index, query, rules, None, 2)
        return short_list_eager(index, query, rules, None, 2)

    @pytest.mark.parametrize("algorithm", ["stack", "partition"])
    def test_scanned_bounded_by_total_postings(
        self, dblp_index, workload, miner, algorithm
    ):
        for pool_query in workload:
            rules = miner.mine(pool_query.query)
            context = QueryContext(dblp_index, pool_query.query, rules)
            total_postings = sum(
                len(lst) for lst in context.lists.values()
            )
            response = self._cursor_totals(
                dblp_index, pool_query.query, rules, algorithm
            )
            assert response.stats.postings_scanned <= total_postings, (
                algorithm,
                pool_query,
            )

    def test_sle_never_rewinds(self, dblp_index, workload, miner):
        """SLE scans no list end to end and examines a document
        partition at most once."""
        for pool_query in workload:
            rules = miner.mine(pool_query.query)
            stats = short_list_eager(
                dblp_index, pool_query.query, rules, None, 2
            ).stats
            assert stats.postings_scanned == 0
            assert stats.partitions_visited <= dblp_index.partition_count()


class TestRefinementGuarantee:
    def test_every_returned_rq_has_meaningful_results(
        self, dblp_index, workload, miner
    ):
        for pool_query in workload:
            if not pool_query.refinable:
                continue
            rules = miner.mine(pool_query.query)
            response = partition_refine(
                dblp_index, pool_query.query, rules, None, 3
            )
            for refinement in response.refinements:
                assert refinement.slcas, refinement
                for dewey in refinement.slcas:
                    node = dblp_index.tree.get(dewey)
                    assert node is not None
                    text = node.subtree_text().lower() + " " + " ".join(
                        n.tag for n in dblp_index.tree.iter_subtree(dewey)
                    )
                    for keyword in refinement.rq.keywords:
                        assert keyword in text, (refinement, keyword)

    def test_intent_recovered_often(self, dblp_index, workload, miner):
        """The ground-truth intent should usually rank in the Top-3."""
        refinable = [q for q in workload if q.refinable]
        hits = 0
        for pool_query in refinable:
            rules = miner.mine(pool_query.query)
            response = partition_refine(
                dblp_index, pool_query.query, rules, None, 3
            )
            keys = [r.rq.key for r in response.refinements]
            if frozenset(pool_query.intent) in keys:
                hits += 1
        assert hits >= len(refinable) * 0.5, (hits, len(refinable))
