"""Fig. 4 — Top-1 refinement time per sample query, hot cache.

The paper times stack-refine, SLE and Partition against the plain
SLCA baselines (stack-slca, scan-slca on the *original* query) for the
sample queries of Tables III–V plus the four mixed queries QX1–QX4.
Expected shape: Partition fastest of the three refiners on almost all
queries; stack-refine slowest; the two plain-SLCA baselines cheapest
(they answer the unrefined query, often with little work).
"""

from __future__ import annotations

import pytest

from repro.core import partition_refine, short_list_eager, stack_refine
from repro.eval import format_table, print_report, time_call
from repro.slca import scan_eager_slca, stack_slca
from repro.workload import MERGE, OVERCONSTRAIN, SPLIT, TYPO


def _sample_queries(workload):
    """One sample pool per refinement operation + mixed QX queries."""
    samples = []
    for label, kinds in [
        ("QD", [OVERCONSTRAIN]),   # deletion set (Table III)
        ("QM", [SPLIT]),           # merging set (Table IV; fix = merge)
        ("QS", [MERGE]),           # split set (Table V; fix = split)
        ("QT", [TYPO]),            # substitution set (Table VI)
    ]:
        for i in range(3):
            samples.append(
                (f"{label}{i + 1}", workload.refinable_query(kinds=kinds))
            )
    for i, kinds in enumerate(
        ([TYPO, SPLIT], [MERGE, OVERCONSTRAIN], [SPLIT, TYPO],
         [TYPO, OVERCONSTRAIN]),
        start=1,
    ):
        samples.append((f"QX{i}", workload.refinable_query(kinds=kinds)))
    return samples


@pytest.fixture(scope="module")
def samples(dblp_workload):
    return _sample_queries(dblp_workload)


def test_fig4_report(dblp_index, dblp_miner, samples):
    """Regenerates the Fig. 4 bar groups as a table (seconds, median)."""
    rows = []
    slower_than_partition = 0
    comparisons = 0
    for label, pool_query in samples:
        rules = dblp_miner.mine(pool_query.query)
        # The baselines' input, like the refiners' rules, is prepared
        # outside the timed call; every sample is a plain function
        # call, none a result-cache hit.
        label_lists = [
            dblp_index.inverted_list(term).labels()
            for term in pool_query.query
        ]
        timings = {
            "stack-refine": time_call(
                lambda: stack_refine(dblp_index, pool_query.query, rules),
                repeat=3,
            ).median,
            "SLE": time_call(
                lambda: short_list_eager(
                    dblp_index, pool_query.query, rules, None, 1
                ),
                repeat=3,
            ).median,
            "Partition": time_call(
                lambda: partition_refine(
                    dblp_index, pool_query.query, rules, None, 1
                ),
                repeat=3,
            ).median,
            "stack-slca": time_call(
                lambda: stack_slca(label_lists), repeat=3
            ).median,
            "scan-slca": time_call(
                lambda: scan_eager_slca(label_lists), repeat=3
            ).median,
        }
        rows.append(
            [
                label,
                " ".join(pool_query.query)[:34],
                timings["stack-refine"] * 1000,
                timings["SLE"] * 1000,
                timings["Partition"] * 1000,
                timings["stack-slca"] * 1000,
                timings["scan-slca"] * 1000,
            ]
        )
        comparisons += 1
        if timings["stack-refine"] >= timings["Partition"]:
            slower_than_partition += 1
    print_report(
        format_table(
            ["id", "query", "stack-refine ms", "SLE ms", "Partition ms",
             "stack-slca ms", "scan-slca ms"],
            rows,
            title="Fig. 4 - Top-1 refinement time per sample query",
        )
    )
    # Shape check: Partition beats stack-refine on almost all queries.
    assert slower_than_partition >= comparisons * 0.7


def test_fig4_counted_shape(dblp_index, dblp_miner, samples):
    """Fig. 4's shape in work, not time: stack-refine calls
    ``getOptimalRQ`` once per popped witness-bearing node, Partition
    at most twice per partition it visits (a probe, then the beam), so
    stack-refine does more DP work on every sample query."""
    for label, pool_query in samples:
        rules = dblp_miner.mine(pool_query.query)
        stack = stack_refine(dblp_index, pool_query.query, rules)
        partition = partition_refine(
            dblp_index, pool_query.query, rules, None, 1
        )
        assert (
            stack.stats.dp_invocations > partition.stats.dp_invocations
        ), (label, stack.stats.dp_invocations,
            partition.stats.dp_invocations)


@pytest.mark.parametrize("algorithm", ["stack", "sle", "partition"])
def test_fig4_benchmark(benchmark, dblp_index, dblp_miner, samples, algorithm):
    """pytest-benchmark micro-timings for one representative query."""
    _, pool_query = samples[0]
    rules = dblp_miner.mine(pool_query.query)
    runners = {
        "stack": lambda: stack_refine(dblp_index, pool_query.query, rules),
        "sle": lambda: short_list_eager(
            dblp_index, pool_query.query, rules, None, 1
        ),
        "partition": lambda: partition_refine(
            dblp_index, pool_query.query, rules, None, 1
        ),
    }
    response = benchmark.pedantic(
        runners[algorithm], rounds=3, iterations=1, warmup_rounds=1
    )
    assert response.needs_refinement
