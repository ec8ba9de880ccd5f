"""Hot-path cost gates: the ranking model per candidate, the DP per row.

Scores the DP beam's Top-2K candidates of a small refinable/clean query
pool through the ranking model's Formula 2-9 scores — the one
implementation ``/search`` runs — and fails when one candidate costs
more than ``SCORING_NS_PER_CANDIDATE_LIMIT``.  It exists for the
``pure-python-kernels`` CI job: a scoring slowdown under
``REPRO_NO_COMPILED_KERNELS=1`` — scoring that stops reading its
statistics through the score memo, say — is a hot-path regression no
``BENCHMARK.json`` workload can see, because every daemon the wire
benchmark (``benchmarks/e2e/run.py``) boots runs the compiled backend.
Every latency, throughput, start-up and RSS number of the serving
stack is measured and bounded there, not here.

It also prices one DP row — the Top-2K beam and the 1-beam probe of one
presence mask, Section V's ``getOptimalRQ`` as short-list step 1 runs
it — over the pool's presence masks, under the running backend.  Under
the compiled backend a row past ``DP_ROW_US_LIMIT`` fails the run: the
compiled DP costs about 2 us a row and the Python one about 45, so
queries whose rules silently fall back to the Python DP show here.

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

#: Per-candidate ceiling for the ranking model: one candidate's full
#: Formula 2-9 score — similarity plus dependence over every
#: search-for type, through a *fresh* score memo per query, so store
#: misses are priced in — must stay under this.  Set ~3x above the
#: measured dev-host cost (~16 us/candidate, miss-dominated at the
#: bench's beam sizes) to absorb CI-fleet speed spread while still
#: catching scoring that bypasses the memo.
SCORING_NS_PER_CANDIDATE_LIMIT = 50_000


#: Ceiling on one DP row under the compiled backend, in us.  A row
#: measured 1.2-2.5 us on a shared 2-vCPU host (4.6 with a test suite
#: running beside it) — two calls into the library, each mostly the
#: crossing (~1 us; a row the round kernel computes pays none) —
#: against 44-51 us for the Python DP, so the ceiling sits well above
#: the one and well below the other.
DP_ROW_US_LIMIT = 10.0
#: Presence masks a query contributes at most: every subset of its
#: first eight lanes.
DP_ROW_MASK_BITS = 8


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
    """Per-candidate cost of the ranking model + admission kernel.

    Replays the hot path's final phase over the real corpus: for every
    pool query, the DP beam's Top-2K candidates are scored by the
    model's ``similarity_score`` + ``dependence_score`` through a
    *fresh* :class:`~repro.core.ranking.memo.ScoreMemo` per query — so
    the numbers price the statistics-store misses, not just memo hits
    — and swept by the vectorized admission kernel against a full
    ``RQSortedList``.  Normalized per candidate and gated against
    ``SCORING_NS_PER_CANDIDATE_LIMIT``.
    """
    from repro.core.candidates import RQSortedList
    from repro.core.common import QueryContext
    from repro.core.dp import get_top_optimal_rqs
    from repro.core.ranking.memo import ScoreMemo
    from repro.core.ranking.model import full_model
    from repro.index.tokenize_text import query_terms
    from repro.kernels import admission_sweep, prepare_beam

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

    def run_score():
        for context, candidates in jobs:
            memo = ScoreMemo(index)  # fresh: store misses are priced in
            for rq in candidates:
                model.similarity_score(
                    index, rq, context.query, context.search_for, memo
                )
                model.dependence_score(
                    index, rq, context.search_for, memo
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
    print("  scoring (ranking model + admission kernel):")
    for name, action in (
        ("score", run_score),
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
        section["primitives"]["score"]["ns_per_candidate"]
    )
    print(
        f"    gate: score {section['ns_per_candidate']:.0f} "
        f"ns/candidate (limit {SCORING_NS_PER_CANDIDATE_LIMIT})"
    )
    return section


def bench_dp_rows(index, pool, k):
    """us per DP row over the pool's presence masks.

    A row is what short-list step 1 keeps per presence mask: the Top-2K
    beam and the 1-beam probe.  Under the compiled backend a query whose
    rules the compiled DP can run (a :class:`~repro.kernels.RuleTable`)
    is timed through ``repro_dp_top`` over preallocated buffers; any
    other query — every one under the pure-Python backend — through
    :func:`~repro.core.dp.get_top_optimal_rqs`, as the route runs it.
    """
    from repro.core.common import QueryContext
    from repro.core.dp import get_top_optimal_rqs
    from repro.index.tokenize_text import query_terms
    from repro.kernels import RuleTable, backend

    lib = backend.compiled
    engine = XRefine(index, cache_size=0)
    capacity = max(2 * k, 2)
    jobs = []
    rows = 0
    for query in pool:
        terms = query_terms(query)
        rules = engine.mine_rules(terms)
        context = QueryContext(index, terms, rules)
        lanes = tuple(sorted(set(context.keyword_space)))
        masks = range(1 << min(len(lanes), DP_ROW_MASK_BITS))
        table = RuleTable.build(context.query, rules, lanes) if lib else None
        if table is None:
            presents = [
                {word for lane, word in enumerate(lanes) if mask >> lane & 1}
                for mask in masks
            ]
            jobs.append((context.query, rules, presents))
        else:
            jobs.append((table, masks))
        rows += len(masks)

    def run_rows():
        for job in jobs:
            if len(job) == 3:
                query, rules, presents = job
                for present in presents:
                    get_top_optimal_rqs(query, present, rules, capacity)
                    get_top_optimal_rqs(query, present, rules, 1)
                continue
            table, masks = job
            top = lib.lib.repro_dp_top
            handle = table.handle(lib)
            _, out = table.outputs(lib, capacity)
            for mask in masks:
                top(handle, mask, capacity, *out)
                top(handle, mask, 1, *out)

    run_rows()  # warm-up
    best = min(_timed_pass(run_rows) for _ in range(3))
    us_per_row = best * 1e6 / rows if rows else 0.0
    compiled = sum(1 for job in jobs if len(job) == 2)
    print(
        f"  DP rows ({backend.backend_name()}): {rows} rows over "
        f"{len(jobs)} queries ({compiled} through the compiled DP), "
        f"{best * 1000:.2f} ms/pass, {us_per_row:.2f} us/row"
        + (f" (limit {DP_ROW_US_LIMIT})" if lib else "")
    )
    return {"rows": rows, "us_per_row": us_per_row, "gated": lib is not None}


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
    dp_rows = bench_dp_rows(index, pool, args.k)
    failed = 0
    if scoring["ns_per_candidate"] > SCORING_NS_PER_CANDIDATE_LIMIT:
        print(
            f"FAIL: scoring costs "
            f"{scoring['ns_per_candidate']:.0f} ns/candidate, over "
            f"the {SCORING_NS_PER_CANDIDATE_LIMIT} ns limit",
            file=sys.stderr,
        )
        failed = 1
    else:
        print(
            f"OK: scoring {scoring['ns_per_candidate']:.0f} ns/candidate "
            f"holds the {SCORING_NS_PER_CANDIDATE_LIMIT} ns limit"
        )
    if dp_rows["gated"] and dp_rows["us_per_row"] > DP_ROW_US_LIMIT:
        print(
            f"FAIL: a DP row costs {dp_rows['us_per_row']:.2f} us under the "
            f"compiled backend, over the {DP_ROW_US_LIMIT} us limit",
            file=sys.stderr,
        )
        failed = 1
    elif dp_rows["gated"]:
        print(
            f"OK: a DP row costs {dp_rows['us_per_row']:.2f} us, within "
            f"the {DP_ROW_US_LIMIT} us limit"
        )
    return failed


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
