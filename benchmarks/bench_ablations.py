"""Ablations of the design choices DESIGN.md calls out.

Not a paper table — these benches isolate the knobs the paper mentions
in prose so their effect is measurable:

* Partition's skip optimization (Section VI-B optimization 2);
* SLE's smart keyword-choice (Section VI-C discussion);
* the Guideline-4 decay factor rho (the paper: "rho = 0.8 is a good
  choice as evident by our empirical study");
* Formula 4's summation domain (literal ``RQ (triangle) Q`` vs the
  consistent reading over RQ's keywords — see
  repro/core/ranking/similarity.py).
"""

from __future__ import annotations

from benchmarks._common import scaled
from repro.core import RankingModel, partition_refine, short_list_eager
from repro.eval import (
    JudgePanel,
    Stopwatch,
    average_cg,
    format_table,
    print_report,
)


def _batch(workload, miner, count):
    batch = []
    for _ in range(count):
        pool_query = workload.refinable_query()
        batch.append((pool_query, miner.mine(pool_query.query)))
    return batch


def _top_k(response):
    return [(r.rq.key, r.dissimilarity) for r in response.refinements]


def test_partition_skip_optimization(dblp_index, dblp_miner, dblp_workload):
    """Skip bound on vs off: the same Top-K, partitions skipped only
    with the bound on.

    The bound (Section VI-B, optimisation 2) skips a partition whose
    best RQ cannot enter the full Top-K list.  It saves that
    partition's DP beam, never an SLCA, so SLCA invocations are equal
    either way; and ``dp_invocations`` counts the 1-beam probes the
    bound makes, so it is not lower with the bound on either.  What the
    bound must do is skip partitions, and change no answer.
    """
    batch = _batch(dblp_workload, dblp_miner, scaled(10))
    rows = []
    total_on = total_off = 0.0
    slca_on = slca_off = 0
    skipped_on = skipped_off = 0
    for pool_query, rules in batch:
        with Stopwatch() as sw_on:
            on = partition_refine(
                dblp_index, pool_query.query, rules, None, 1,
                skip_optimization=True,
            )
        with Stopwatch() as sw_off:
            off = partition_refine(
                dblp_index, pool_query.query, rules, None, 1,
                skip_optimization=False,
            )
        total_on += sw_on.elapsed
        total_off += sw_off.elapsed
        slca_on += on.stats.slca_invocations
        slca_off += off.stats.slca_invocations
        skipped_on += on.stats.partitions_skipped
        skipped_off += off.stats.partitions_skipped
        assert _top_k(on) == _top_k(off), pool_query.query
    rows.append(["skip on", total_on / len(batch) * 1000, slca_on,
                 skipped_on])
    rows.append(["skip off", total_off / len(batch) * 1000, slca_off,
                 skipped_off])
    print_report(
        format_table(
            ["variant", "avg ms", "SLCA invocations", "partitions skipped"],
            rows,
            title="Ablation - Partition skip optimization",
        )
    )
    assert skipped_on > 0
    assert skipped_off == 0


def test_sle_smart_choice(dblp_index, dblp_miner, dblp_workload):
    """Smart keyword order vs plain shortest-list: answers agree."""
    batch = _batch(dblp_workload, dblp_miner, scaled(10))
    rows = []
    probes = {"smart": 0, "plain": 0}
    times = {"smart": 0.0, "plain": 0.0}
    for pool_query, rules in batch:
        results = {}
        for name, smart in (("smart", True), ("plain", False)):
            with Stopwatch() as stopwatch:
                response = short_list_eager(
                    dblp_index, pool_query.query, rules, None, 2,
                    smart_choice=smart,
                )
            times[name] += stopwatch.elapsed
            probes[name] += response.stats.probes
            results[name] = response
        if results["smart"].candidates and results["plain"].candidates:
            assert min(
                c.dissimilarity for c in results["smart"].candidates
            ) == min(c.dissimilarity for c in results["plain"].candidates)
    for name in ("smart", "plain"):
        rows.append([name, times[name] / len(batch) * 1000, probes[name]])
    print_report(
        format_table(
            ["keyword choice", "avg ms", "random-access probes"],
            rows,
            title="Ablation - SLE smart keyword choice",
        )
    )


def test_decay_factor_sweep(dblp_index, dblp_miner, dblp_workload):
    """rho sweep: 0.8 should be at or near the CG@1 optimum."""
    batch = _batch(dblp_workload, dblp_miner, scaled(20))
    panel = JudgePanel(n=6, seed=101)
    rows = []
    cg1 = {}
    for rho in (0.3, 0.5, 0.8, 0.95):
        model = RankingModel(decay=rho)
        gains = []
        for pool_query, rules in batch:
            response = partition_refine(
                dblp_index, pool_query.query, rules, model, 4
            )
            if not response.refinements:
                continue
            gains.append(
                panel.gain_vector(
                    response.refinements,
                    pool_query.intent,
                    pool_query.intent_results,
                )
            )
        value = average_cg(gains, 1)
        cg1[rho] = value
        rows.append([rho, value, average_cg(gains, 4)])
    print_report(
        format_table(
            ["rho", "CG[1]", "CG[4]"],
            rows,
            title="Ablation - Guideline-4 decay factor (paper picks 0.8)",
        )
    )
    assert cg1[0.8] >= max(cg1.values()) * 0.9


def test_formula4_domain(dblp_index, dblp_miner, dblp_workload):
    """Literal RQ-triangle-Q domain vs the consistent RQ domain."""
    batch = _batch(dblp_workload, dblp_miner, scaled(20))
    panel = JudgePanel(n=6, seed=101)
    rows = []
    cg1 = {}
    for domain in ("rq", "sym_diff"):
        model = RankingModel(g2_domain=domain)
        gains = []
        for pool_query, rules in batch:
            response = partition_refine(
                dblp_index, pool_query.query, rules, model, 4
            )
            if not response.refinements:
                continue
            gains.append(
                panel.gain_vector(
                    response.refinements,
                    pool_query.intent,
                    pool_query.intent_results,
                )
            )
        cg1[domain] = average_cg(gains, 1)
        rows.append([domain, cg1[domain], average_cg(gains, 4)])
    print_report(
        format_table(
            ["Formula-4 domain", "CG[1]", "CG[4]"],
            rows,
            title="Ablation - Guideline-2 summation domain",
        )
    )
    # The consistent reading should not lose to the literal one.
    assert cg1["rq"] >= cg1["sym_diff"] * 0.9
