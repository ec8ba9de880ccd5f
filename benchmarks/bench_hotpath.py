"""Batch-scoring cost gate: ns per candidate of the ranking kernels.

Scores the DP beam's Top-2K candidates of a small refinable/clean query
pool through the batch Formula 2-9 kernels and fails when one
candidate costs more than ``SCORING_NS_PER_CANDIDATE_LIMIT``.  It
exists for the ``pure-python-kernels`` CI job: a per-node Python loop
returning to the scorer under ``REPRO_NO_COMPILED_KERNELS=1`` is the
one hot-path regression no ``BENCHMARK.json`` workload can see, because
every daemon the wire benchmark (``benchmarks/e2e/run.py``) boots runs
the compiled backend.  Every latency, throughput, start-up and RSS
number of the serving stack is measured and bounded there, not here.

Self-contained: the limit is absolute and there is no committed
baseline to compare with.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # 300 authors
    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke    # CI-sized
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro import XRefine, build_document_index  # noqa: E402
from repro.datasets import generate_dblp  # noqa: E402
from repro.workload import WorkloadGenerator  # noqa: E402

#: Per-candidate ceiling for the batch ranking kernels: one candidate's
#: full Formula 2-9 score — similarity plus dependence over every
#: search-for type, through a *fresh* lookup table each pass, so store
#: misses are priced in — must stay under this.  Set ~3x above the
#: measured dev-host cost (~16 us/candidate, miss-dominated at the
#: bench's beam sizes) to absorb CI-fleet speed spread while still
#: catching a per-node Python loop sneaking back into the scorer.
SCORING_NS_PER_CANDIDATE_LIMIT = 50_000


def build_query_pool(index, unique, seed):
    """``unique`` generated queries, roughly 60% needing refinement."""
    generator = WorkloadGenerator(index, seed=seed)
    pool = []
    for position in range(unique):
        if position % 5 < 3:
            pool.append(list(generator.refinable_query().query))
        else:
            pool.append(list(generator.clean_query().query))
    return pool


def bench_scoring(index, pool, k):
    """Per-candidate cost of the batch ranking + admission kernels.

    Replays the hot path's final phase over the real corpus: for every
    pool query, the DP beam's Top-2K candidates are scored by the batch
    Formula 2-9 kernels (``batch_similarity`` + ``batch_dependence``)
    through a *fresh* :class:`ScoreTable` each pass — so the numbers
    price the statistics-store misses, not just memo hits — and swept
    by the vectorized admission kernel against a full
    ``RQSortedList``.  Normalized per candidate and gated against
    ``SCORING_NS_PER_CANDIDATE_LIMIT``.
    """
    from repro.core.candidates import RQSortedList
    from repro.core.common import QueryContext
    from repro.core.dp import get_top_optimal_rqs
    from repro.core.ranking.model import full_model
    from repro.index.tokenize_text import query_terms
    from repro.kernels import (
        ScoreTable,
        admission_sweep,
        batch_dependence,
        batch_similarity,
        prepare_beam,
    )

    engine = XRefine(index, cache_size=0)
    model = full_model()
    jobs = []
    candidates_total = 0
    for query in pool:
        terms = query_terms(query)
        rules = engine.mine_rules(terms)
        context = QueryContext(index, terms, rules)
        present = {
            keyword
            for keyword in context.keyword_space
            if len(context.lists[keyword]) > 0
        }
        if not present:
            continue
        candidates = get_top_optimal_rqs(
            context.query, present, rules, max(2 * k, 2)
        )
        if not candidates:
            continue
        jobs.append((context, candidates))
        candidates_total += len(candidates)

    def run_batch_score():
        for context, candidates in jobs:
            table = ScoreTable(0)  # fresh: store misses are priced in
            for rq in candidates:
                batch_similarity(
                    table, index, model, rq, context.query,
                    context.search_for,
                )
                batch_dependence(
                    table, index, model, rq, context.search_for
                )

    def run_admission_sweep():
        for context, candidates in jobs:
            prepared = prepare_beam(candidates)
            sorted_list = RQSortedList(capacity=max(2 * k, 2))
            for rq in candidates:
                sorted_list.insert(rq)
            admission_sweep(prepared, sorted_list, context.query_key())

    section = {
        "queries": len(jobs),
        "candidates_per_pass": candidates_total,
        "limit_ns_per_candidate": SCORING_NS_PER_CANDIDATE_LIMIT,
        "primitives": {},
    }
    print("  scoring (batch ranking kernels):")
    for name, action in (
        ("batch_score", run_batch_score),
        ("admission_sweep", run_admission_sweep),
    ):
        action()  # warmup: keyword-importance / co-occurrence stores
        best = min(_timed_pass(action) for _ in range(3))
        entry = {
            "total_ms": best * 1000,
            "ns_per_candidate": (
                best * 1e9 / candidates_total if candidates_total else 0.0
            ),
        }
        section["primitives"][name] = entry
        print(
            f"    {name:<24} {entry['total_ms']:8.2f} ms/pass"
            f"   {entry['ns_per_candidate']:8.1f} ns/candidate"
        )
    section["ns_per_candidate"] = (
        section["primitives"]["batch_score"]["ns_per_candidate"]
    )
    print(
        f"    gate: batch_score {section['ns_per_candidate']:.0f} "
        f"ns/candidate (limit {SCORING_NS_PER_CANDIDATE_LIMIT})"
    )
    return section


def _timed_pass(action):
    began = time.perf_counter()
    action()
    return time.perf_counter() - began


def run(args):
    print(
        f"corpus: dblp authors={args.authors}; "
        f"pool: {args.unique} unique queries"
    )
    index = build_document_index(
        generate_dblp(num_authors=args.authors, seed=7)
    )
    pool = build_query_pool(index, args.unique, args.seed)
    scoring = bench_scoring(index, pool, args.k)
    if scoring["ns_per_candidate"] > SCORING_NS_PER_CANDIDATE_LIMIT:
        print(
            f"FAIL: batch scoring costs "
            f"{scoring['ns_per_candidate']:.0f} ns/candidate, over "
            f"the {SCORING_NS_PER_CANDIDATE_LIMIT} ns limit",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: batch scoring {scoring['ns_per_candidate']:.0f} "
        f"ns/candidate holds the {SCORING_NS_PER_CANDIDATE_LIMIT} ns limit"
    )
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], allow_abbrev=False
    )
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (small corpus and pool)")
    parser.add_argument("--authors", type=int, default=None,
                        help="DBLP corpus size (default 300; smoke 50)")
    parser.add_argument("--unique", type=int, default=None,
                        help="unique queries in the pool (default 25; smoke 8)")
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--seed", type=int, default=23)
    args = parser.parse_args(argv)
    if args.authors is None:
        args.authors = 50 if args.smoke else 300
    if args.unique is None:
        args.unique = 8 if args.smoke else 25
    for name in ("authors", "unique", "k"):
        if getattr(args, name) < 1:
            parser.error(f"--{name} must be >= 1")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
