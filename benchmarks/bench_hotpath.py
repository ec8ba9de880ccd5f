"""Hot-path serving benchmark: cold vs. warm vs. batch.

Serves a skewed, repetitive query log (Zipf-weighted repeats of a small
unique pool — the shape of real keyword traffic) through three
configurations of the same engine, plus a planner comparison:

* **cold** — result caching disabled; every request pays the full
  inverted-list scan + DP + ranking cost;
* **warm** — the default engine; the first pass populates the LRU
  result cache, the second pass is served from it;
* **batch** — ``XRefine.search_many`` over the whole log on a fresh
  engine (chunked so per-request latency percentiles exist; the LRU
  carries deduplication across chunks, so the executed work is the
  same as one whole-log call);
* **planner** — ``algorithm="auto"`` against every fixed algorithm on
  the same cache-disabled log, bucketed into refinement-needing vs
  direct-hit requests.  Reports p50/p95/p99 per bucket, the planner's
  routing accuracy (the request-weighted fraction of unique queries
  whose median auto latency lands within 30% + 50 µs of the fastest
  valid fixed algorithm's median for that query — medians because the
  planner routes per query signature, so per-request jitter is noise,
  not routing; 30% because same-work timings differ by up to ~25%
  between engines, so only materially slower routes count as misses),
  and the observed route mix.  On full runs the auto p95
  must stay within 5% + 0.25 ms of the best fixed algorithm in every
  bucket and routing accuracy must reach 80%.

A **kernels** section reports the active scan-kernel backend and the
per-posting cost of each batch primitive (partition-table build, merged
partition view, merged-LCP table, columnar batch SLCA) measured over
the real corpus lists, plus the cold-path p95 headline the kernels are
accountable for.  On full runs the cold p95 must come in under
``KERNEL_COLD_P95_TARGET_MS`` — or, on constrained hosts, at least
``KERNEL_SPEEDUP_FLOOR``x under the pre-kernel baseline
``KERNEL_BASELINE_COLD_P95_MS``.

A **serve** section (see :mod:`bench_serve`) boots the real serving
daemon on a frozen snapshot and hammers it from concurrent HTTP
clients through a steady phase and a snapshot hot-swap churn phase.
The hot-swap SLO is gated on every run: **zero** dropped/failed
requests across the reload cycle; on full runs the churn p99 must also
hold within 2x the steady p99 (plus absolute slack — the same
self-relative envelope ``check_regression.py`` enforces on smoke
runs).

A separate **startup** section measures process-boot cost: time from a
stored artifact to the first answered query for (a) a fresh
``build_document_index`` over the XML and (b) a frozen-snapshot mmap
open (``repro.index.frozen``); plus RSS before/after each path.  On
full runs the frozen path must reach its first answer >= 5x faster
than the build path.

Every section reports p50/p95/p99 per-request latency alongside the
mean.  Writes ``BENCH_hotpath.json`` (repo root by default) so later
PRs have a perf trajectory to compare against, and exits non-zero when
the warm-over-cold speedup drops below the 3x acceptance floor.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # full run
    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke    # CI-sized
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_paging  # noqa: E402
import bench_serve  # noqa: E402

from repro import XRefine, build_document_index  # noqa: E402
from repro.datasets import generate_dblp  # noqa: E402
from repro.index import freeze_index  # noqa: E402
from repro.workload import WorkloadGenerator  # noqa: E402
from repro.xmltree.parser import parse_file  # noqa: E402
from repro.xmltree.serialize import write_file  # noqa: E402

#: Minimum acceptable warm-over-cold speedup on the skewed log.
SPEEDUP_FLOOR = 3.0

#: Full-run kernel gate: the batch scan kernels are accountable for
#: the cold (cache-disabled) p95 headline.  Either the sub-millisecond
#: target holds outright, or — on constrained hosts where fixed
#: per-request overheads (rule mining, ranking, context setup)
#: dominate — the p95 must land at least KERNEL_SPEEDUP_FLOOR x under
#: the pre-kernel full-run baseline.  Both constants were re-measured
#: after the workload generator's set-iteration-order bug was fixed
#: (the pool used to drift between processes, so earlier baselines
#: compared different workloads): 4.26 ms is the pre-kernel commit's
#: full-bench cold p95 on the now-pinned pool, against which the
#: kernels land ~2.8-3.0 ms in bench context (x1.4-1.5); the floor is
#: set below that with headroom for single-CPU host noise.
KERNEL_COLD_P95_TARGET_MS = 1.0
KERNEL_BASELINE_COLD_P95_MS = 4.26
KERNEL_SPEEDUP_FLOOR = 1.3

#: Minimum frozen-open-to-first-answer speedup over a fresh build
#: (acceptance criterion; full runs only).
STARTUP_FROZEN_FLOOR = 5.0

#: Routing accuracy: a query counts as correctly routed when auto's
#: median latency is within this factor (plus the absolute slack) of
#: the fastest valid fixed algorithm's median for that query.  The
#: factor sits above the observed noise floor — identical work timed
#: on two engines in the same process differs by up to ~25% run to
#: run — so a miss means the router picked something *materially*
#: slower, not that the scheduler hiccuped.
ROUTING_TOLERANCE = 1.3
ROUTING_SLACK_SECONDS = 5e-5

#: Full-run planner gates: minimum routing accuracy, and the p95
#: envelope (factor + absolute slack) auto must hold per bucket.
#: Tightened back from 0.40 ms: the stack route's cost is now derived
#: from two *measured* calibration terms (per-posting scan plus the
#: ``stack_push_pop`` frame cost added in cost-model record v2)
#: instead of a hand-tuned constant, and drift corrections are
#: bucketed by ``direct_hit_predicted`` — so the direct-hit stack
#: misroute that used to cost auto ~0.35 ms at the direct bucket's
#: p95 no longer needs headroom in the envelope.
ROUTING_ACCURACY_FLOOR = 0.80
PLANNER_P95_FACTOR = 1.05
#: Retightened 0.25 -> 0.15 with calibration record v3: every serial
#: route's estimate now prices the batch-ranking pass explicitly
#: (``batch_score`` term) and the stack route is costed from the
#: LCP-run merged scan it actually executes, so the estimate error
#: that needed the quarter-millisecond cushion is gone.
PLANNER_P95_SLACK_MS = 0.15

#: Fixed algorithms whose answers are valid per request bucket: stack
#: is Top-1 only, so it only competes on direct-hit requests.
VALID_FIXED = {
    "refine": ("partition", "sle"),
    "direct": ("partition", "sle", "stack"),
}

#: Per-candidate ceiling for the batch ranking kernels (the scoring
#: section): one candidate's full Formula 2-9 score — similarity plus
#: dependence over every search-for type, through a *fresh* lookup
#: table each pass, so store misses are priced in — must stay under
#: this.  Set ~3x above the measured dev-host cost (~16 us/candidate,
#: miss-dominated at the bench's beam sizes) to absorb CI-fleet speed
#: spread while still catching a per-node Python loop sneaking back
#: into the scorer.
SCORING_NS_PER_CANDIDATE_LIMIT = 50_000

#: Sub-batch size used to give the batch section a latency distribution.
BATCH_CHUNK = 16


def build_query_log(index, unique, requests, seed):
    """A skewed log: ``requests`` draws over ``unique`` pool queries.

    Queries are Zipf-weighted (weight 1/rank), the canonical skew of
    production keyword logs; roughly 60% of the pool needs refinement.
    """
    generator = WorkloadGenerator(index, seed=seed)
    pool = []
    for position in range(unique):
        if position % 5 < 3:
            pool.append(list(generator.refinable_query().query))
        else:
            pool.append(list(generator.clean_query().query))
    rng = random.Random(seed + 1)
    weights = [1.0 / rank for rank in range(1, len(pool) + 1)]
    log = rng.choices(pool, weights=weights, k=requests)
    return pool, log


def _percentile(ordered, fraction):
    """Nearest-rank percentile over an ascending-sorted sample."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def latency_summary(latencies):
    """Mean + p50/p95/p99 (milliseconds) over per-request seconds."""
    ordered = sorted(latencies)
    total = sum(latencies)
    return {
        "total_seconds": total,
        "per_request_ms": total / len(latencies) * 1000,
        "p50_ms": _percentile(ordered, 0.50) * 1000,
        "p95_ms": _percentile(ordered, 0.95) * 1000,
        "p99_ms": _percentile(ordered, 0.99) * 1000,
    }


def serve(engine, log, k, algorithm):
    """One pass over the log; returns per-request seconds."""
    latencies = []
    for query in log:
        started = time.perf_counter()
        engine.search(query, k=k, algorithm=algorithm)
        latencies.append(time.perf_counter() - started)
    return latencies


def serve_batched(engine, log, k, algorithm):
    """search_many in BATCH_CHUNK slices; returns amortized latencies."""
    latencies = []
    for start in range(0, len(log), BATCH_CHUNK):
        chunk = log[start:start + BATCH_CHUNK]
        began = time.perf_counter()
        engine.search_many(chunk, k=k, algorithm=algorithm)
        elapsed = time.perf_counter() - began
        latencies.extend([elapsed / len(chunk)] * len(chunk))
    return latencies


def _rss_kb():
    """Resident set size in KiB, or None off-Linux."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def bench_startup(tree, index, query, args):
    """Artifact-to-first-answer timings for every startup path.

    RSS deltas are same-process and sequential, so they are indicative
    rather than isolated; the ordering (build first, mmap open last)
    biases *against* the frozen path, never for it.
    """
    workdir = tempfile.mkdtemp(prefix="bench_startup_")
    section = {}
    try:
        xml_path = os.path.join(workdir, "corpus.xml")
        frozen_path = os.path.join(workdir, "corpus.frz")
        write_file(tree, xml_path)

        began = time.perf_counter()
        freeze_index(index, frozen_path)
        section["freeze_seconds"] = time.perf_counter() - began
        section["frozen_bytes"] = os.path.getsize(frozen_path)

        def first_answer(label, opener):
            rss_before = _rss_kb()
            began = time.perf_counter()
            engine = opener()
            engine.search(query, k=args.k, algorithm=args.algorithm)
            elapsed = time.perf_counter() - began
            rss_after = _rss_kb()
            entry = {
                "seconds_to_first_answer": elapsed,
                "rss_before_kb": rss_before,
                "rss_after_kb": rss_after,
            }
            if rss_before is not None and rss_after is not None:
                entry["rss_delta_kb"] = rss_after - rss_before
            print(
                f"  startup {label:<20} {elapsed * 1000:9.1f} ms to first "
                f"answer   rss +{entry.get('rss_delta_kb', '?')} KiB"
            )
            return entry

        section["build"] = first_answer(
            "build (XML parse)",
            lambda: XRefine(build_document_index(parse_file(xml_path))),
        )
        section["frozen"] = first_answer(
            "frozen (mmap)", lambda: XRefine.from_frozen(frozen_path)
        )
        build_seconds = section["build"]["seconds_to_first_answer"]
        elapsed = section["frozen"]["seconds_to_first_answer"]
        section["frozen"]["speedup_vs_build"] = (
            build_seconds / elapsed if elapsed else float("inf")
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return section


def timed_section(label, action):
    latencies = action()
    summary = latency_summary(latencies)
    print(
        f"  {label:<28} {summary['total_seconds'] * 1000:9.1f} ms total"
        f"   p50 {summary['p50_ms']:7.2f}  p95 {summary['p95_ms']:7.2f}"
        f"  p99 {summary['p99_ms']:7.2f} ms"
    )
    return summary


def bench_planner(index, pool, log, k):
    """``auto`` vs every fixed algorithm on the cache-disabled log.

    Each algorithm serves the whole log on its own cache-disabled
    engine (one untimed warmup pass first, so the planner's calibration
    and plan cache — and each fixed kernel's memo state — are steady),
    then timed three times; the per-request element-wise minimum of the
    passes is kept, so the comparison measures each algorithm's
    deterministic cost rather than scheduler jitter.  Requests are
    bucketed by whether the query needs refinement, since stack-refine
    is Top-1 only and therefore only a valid competitor on direct hits.
    """
    probe = XRefine(index, cache_size=0)
    bucket_of = {}
    for query in pool:
        response = probe.search(query, k=k, algorithm="partition")
        bucket_of[tuple(query)] = (
            "refine" if response.needs_refinement else "direct"
        )
    request_buckets = [bucket_of[tuple(query)] for query in log]

    latencies = {}
    planner_stats = None
    for algorithm in ("auto", "partition", "sle", "stack"):
        engine = XRefine(index, cache_size=0)
        serve(engine, log, k, algorithm)  # warmup pass
        passes = [serve(engine, log, k, algorithm) for _ in range(3)]
        latencies[algorithm] = [min(best) for best in zip(*passes)]
        if algorithm == "auto":
            planner_stats = engine.cache_stats()["planner"]

    # Routing accuracy is judged per unique query on median latencies
    # (the planner routes per query signature, so every repeat of a
    # query takes the same route; comparing single jittery samples
    # would measure the host scheduler, not the router), then weighted
    # by how often each query appears in the log.
    def query_median(algorithm, positions):
        return statistics.median(
            latencies[algorithm][position] for position in positions
        )

    positions_of = {}
    for position, query in enumerate(log):
        positions_of.setdefault(tuple(query), []).append(position)
    correct = 0
    for signature, positions in positions_of.items():
        fastest_valid = min(
            query_median(algorithm, positions)
            for algorithm in VALID_FIXED[bucket_of[signature]]
        )
        if (
            query_median("auto", positions)
            <= fastest_valid * ROUTING_TOLERANCE + ROUTING_SLACK_SECONDS
        ):
            correct += len(positions)
    routing_accuracy = correct / len(log)

    section = {
        "routing_accuracy": routing_accuracy,
        "overall": {
            algorithm: latency_summary(latencies[algorithm])
            for algorithm in ("auto", "partition", "sle")
        },
        "buckets": {},
        "planner_stats": planner_stats,
    }
    print("  planner sweep (auto vs fixed, per bucket):")
    for bucket in ("refine", "direct"):
        positions = [
            position
            for position, name in enumerate(request_buckets)
            if name == bucket
        ]
        if not positions:
            continue
        competitors = ("auto",) + VALID_FIXED[bucket]
        summaries = {
            algorithm: latency_summary(
                [latencies[algorithm][position] for position in positions]
            )
            for algorithm in competitors
        }
        best_fixed = min(
            VALID_FIXED[bucket],
            key=lambda algorithm: summaries[algorithm]["p95_ms"],
        )
        entry = {
            "requests": len(positions),
            "algorithms": summaries,
            "best_fixed": best_fixed,
            "best_fixed_p95_ms": summaries[best_fixed]["p95_ms"],
            "auto_p95_ms": summaries["auto"]["p95_ms"],
            "auto_vs_best_fixed_p95": (
                summaries["auto"]["p95_ms"]
                / summaries[best_fixed]["p95_ms"]
                if summaries[best_fixed]["p95_ms"]
                else float("inf")
            ),
        }
        section["buckets"][bucket] = entry
        print(
            f"    {bucket:<7} ({len(positions):>3} reqs)  auto p95 "
            f"{entry['auto_p95_ms']:7.2f} ms vs best fixed "
            f"[{best_fixed}] {entry['best_fixed_p95_ms']:7.2f} ms "
            f"(x{entry['auto_vs_best_fixed_p95']:.2f})"
        )
    routed = (planner_stats or {}).get("routed", {})
    print(
        f"    routing accuracy {routing_accuracy:.1%} "
        f"(query medians within x{ROUTING_TOLERANCE} + "
        f"{ROUTING_SLACK_SECONDS * 1e6:.0f} us of the fastest valid "
        f"fixed algorithm); routes {routed}"
    )
    return section


def bench_kernels(index, pool, cold_p95_ms):
    """Per-primitive scan-kernel costs over the real corpus lists.

    Each batch primitive is timed end to end over every pool query's
    inverted lists — partition tables are rebuilt from the raw key
    columns each pass, so the numbers price construction, not cache
    hits — and normalized per posting touched.  The cold p95 headline
    the kernels are accountable for is carried in for the gate.
    """
    from repro.index.tokenize_text import query_terms
    from repro.kernels import (
        ListColumns,
        backend_name,
        columns_for,
        merged_lcp,
        partition_view,
        slca_columns,
    )

    query_columns = []
    postings = 0
    for query in pool:
        lists = [index.inverted_list(term) for term in query_terms(query)]
        columns = [columns_for(entry) for entry in lists if len(entry) > 0]
        if len(columns) < 2:
            continue
        query_columns.append(columns)
        postings += sum(column.size for column in columns)

    primitives = {
        "partition_table_build": lambda: [
            ListColumns(column.keys)
            for columns in query_columns
            for column in columns
        ],
        "partition_view": lambda: [
            partition_view(columns) for columns in query_columns
        ],
        "merged_lcp": lambda: [
            merged_lcp(columns) for columns in query_columns
        ],
        "batch_slca": lambda: [
            slca_columns(columns) for columns in query_columns
        ],
    }
    section = {
        "backend": backend_name(),
        "queries": len(query_columns),
        "postings_per_pass": postings,
        "primitives": {},
        "cold_p95_ms": cold_p95_ms,
        "target_p95_ms": KERNEL_COLD_P95_TARGET_MS,
        "baseline_cold_p95_ms": KERNEL_BASELINE_COLD_P95_MS,
        "speedup_vs_baseline": (
            KERNEL_BASELINE_COLD_P95_MS / cold_p95_ms
            if cold_p95_ms
            else float("inf")
        ),
    }
    print(f"  kernels (backend: {section['backend']}):")
    for name, action in primitives.items():
        action()  # warmup: flat arrays, memo state
        best = min(
            _timed_pass(action) for _ in range(3)
        )
        entry = {
            "total_ms": best * 1000,
            "ns_per_posting": best * 1e9 / postings if postings else 0.0,
        }
        section["primitives"][name] = entry
        print(
            f"    {name:<24} {entry['total_ms']:8.2f} ms/pass"
            f"   {entry['ns_per_posting']:8.1f} ns/posting"
        )
    print(
        f"    cold p95 {cold_p95_ms:.3f} ms "
        f"(x{section['speedup_vs_baseline']:.2f} vs pre-kernel baseline "
        f"{KERNEL_BASELINE_COLD_P95_MS} ms)"
    )
    return section


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
        f"log: {args.requests} requests over {args.unique} unique queries"
    )
    tree = generate_dblp(num_authors=args.authors, seed=7)
    index = build_document_index(tree)
    pool, log = build_query_log(index, args.unique, args.requests, args.seed)

    if args.scoring_only:
        # Focused mode for CI: just the batch-ranking kernel costs and
        # their per-candidate gate, no serving sections.
        scoring = bench_scoring(index, pool, args.k)
        report = {
            "benchmark": "hotpath-scoring",
            "config": {
                "smoke": args.smoke,
                "authors": args.authors,
                "unique_queries": args.unique,
                "k": args.k,
                "seed": args.seed,
            },
            "scoring": scoring,
        }
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"\nwrote {args.output}")
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
            f"ns/candidate holds the {SCORING_NS_PER_CANDIDATE_LIMIT} ns "
            f"limit"
        )
        return 0

    # Startup: stored artifact -> first answered query, per path.
    startup = bench_startup(tree, index, pool[0], args)

    # Cold: result caching off; every request does the full work.
    cold_engine = XRefine(index, cache_size=0)
    cold = timed_section(
        "cold (cache disabled)",
        lambda: serve(cold_engine, log, args.k, args.algorithm),
    )

    # Warm: first pass fills the LRU, second pass is the hot path.
    warm_engine = XRefine(index)
    warm_fill = timed_section(
        "warm fill (first pass)",
        lambda: serve(warm_engine, log, args.k, args.algorithm),
    )
    warm = timed_section(
        "warm serve (second pass)",
        lambda: serve(warm_engine, log, args.k, args.algorithm),
    )

    # Batch: search_many on a fresh engine, in percentile-sized chunks.
    batch_engine = XRefine(index)
    batch = timed_section(
        "batch (search_many)",
        lambda: serve_batched(batch_engine, log, args.k, args.algorithm),
    )

    # Planner: auto vs every fixed algorithm, bucketed refine/direct.
    planner = bench_planner(index, pool, log, args.k)

    # Kernels: batch-primitive costs + the cold p95 they answer for.
    kernels = bench_kernels(index, pool, cold["p95_ms"])

    # Scoring: per-candidate cost of the batch ranking kernels.
    scoring = bench_scoring(index, pool, args.k)

    # Serve: the daemon's hot-swap SLO under sustained client load.
    print("  serve (daemon hot-swap under client load):")
    serving = bench_serve.run_serve_section(args.smoke, k=args.k)

    # Paging: RSS ceiling vs corpus size over blocked snapshots.
    print("  paging (RSS ceiling vs corpus size):")
    paging = bench_paging.run_paging_section(args.smoke, k=args.k)

    requests = len(log)
    cold_ms = cold["per_request_ms"]
    warm_speedup = cold_ms / warm["per_request_ms"]
    fill_speedup = cold_ms / warm_fill["per_request_ms"]
    batch_speedup = cold_ms / batch["per_request_ms"]
    warm["speedup_over_cold"] = warm_speedup
    warm_fill["speedup_over_cold"] = fill_speedup
    batch["speedup_over_cold"] = batch_speedup
    warm["cache"] = warm_engine.cache_stats()
    batch["cache"] = batch_engine.cache_stats()

    report = {
        "benchmark": "hotpath",
        "config": {
            "smoke": args.smoke,
            "authors": args.authors,
            "unique_queries": args.unique,
            "requests": requests,
            "k": args.k,
            "algorithm": args.algorithm,
            "seed": args.seed,
            "corpus_nodes": len(tree),
            "vocabulary": index.inverted.vocabulary_size(),
            "cpu_count": os.cpu_count(),
        },
        "startup": startup,
        "cold": cold,
        "warm_fill": warm_fill,
        "warm": warm,
        "batch": batch,
        "planner": planner,
        "kernels": kernels,
        "scoring": scoring,
        "serve": serving,
        "paging": paging,
    }

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.output}")
    print(
        f"speedups over cold: warm x{warm_speedup:.1f}, "
        f"fill x{fill_speedup:.1f}, batch x{batch_speedup:.1f}"
    )
    print(
        f"startup speedup vs fresh build: "
        f"frozen x{startup['frozen']['speedup_vs_build']:.1f}"
    )

    status = 0
    if scoring["ns_per_candidate"] > SCORING_NS_PER_CANDIDATE_LIMIT:
        # Absolute and size-independent, so it gates smoke runs too.
        print(
            f"FAIL: batch scoring costs "
            f"{scoring['ns_per_candidate']:.0f} ns/candidate, over the "
            f"{SCORING_NS_PER_CANDIDATE_LIMIT} ns limit",
            file=sys.stderr,
        )
        status = 1
    else:
        print(
            f"OK: batch scoring {scoring['ns_per_candidate']:.0f} "
            f"ns/candidate holds the {SCORING_NS_PER_CANDIDATE_LIMIT} ns "
            f"limit"
        )
    if warm_speedup < SPEEDUP_FLOOR:
        print(
            f"FAIL: warm-over-cold speedup x{warm_speedup:.2f} is below "
            f"the x{SPEEDUP_FLOOR:.0f} acceptance floor",
            file=sys.stderr,
        )
        status = 1
    else:
        print(f"OK: warm-over-cold speedup meets the x{SPEEDUP_FLOOR:.0f} floor")
    serve_failed = serving["failed_requests"]
    if serve_failed:
        print(
            f"FAIL: {serve_failed} serving requests failed across the "
            f"daemon hot-swap cycle (budget {bench_serve.FAILURE_BUDGET})",
            file=sys.stderr,
        )
        status = 1
    else:
        print(
            "OK: zero dropped/failed requests across the daemon "
            "hot-swap cycle"
        )
    if not paging["rss_sublinear"]:
        print(
            f"FAIL: paging RSS growth x{paging['rss_growth']:.2f} over a "
            f"x{paging['corpus_growth']:.2f} corpus spread exceeds the "
            f"sub-linear limit x{paging['rss_growth_limit']:.2f}",
            file=sys.stderr,
        )
        status = 1
    else:
        print(
            f"OK: paging RSS growth x{paging['rss_growth']:.2f} stays "
            f"sub-linear over a x{paging['corpus_growth']:.2f} corpus "
            f"spread (limit x{paging['rss_growth_limit']:.2f})"
        )
    if not args.smoke:
        frozen_speedup = startup["frozen"]["speedup_vs_build"]
        if frozen_speedup < STARTUP_FROZEN_FLOOR:
            print(
                f"FAIL: frozen open-to-first-answer speedup "
                f"x{frozen_speedup:.2f} is below the "
                f"x{STARTUP_FROZEN_FLOOR:.0f} acceptance floor",
                file=sys.stderr,
            )
            status = 1
        else:
            print(
                f"OK: frozen startup meets the x{STARTUP_FROZEN_FLOOR:.0f} "
                f"floor (x{frozen_speedup:.1f})"
            )
        cold_p95 = cold["p95_ms"]
        kernel_speedup = kernels["speedup_vs_baseline"]
        if cold_p95 < KERNEL_COLD_P95_TARGET_MS:
            print(
                f"OK: cold p95 {cold_p95:.3f} ms beats the "
                f"{KERNEL_COLD_P95_TARGET_MS} ms kernel target"
            )
        elif kernel_speedup >= KERNEL_SPEEDUP_FLOOR:
            print(
                f"OK: cold p95 {cold_p95:.3f} ms is x{kernel_speedup:.2f} "
                f"under the pre-kernel baseline "
                f"{KERNEL_BASELINE_COLD_P95_MS} ms (constrained-host "
                f"path, floor x{KERNEL_SPEEDUP_FLOOR})"
            )
        else:
            print(
                f"FAIL: cold p95 {cold_p95:.3f} ms misses both the "
                f"{KERNEL_COLD_P95_TARGET_MS} ms kernel target and the "
                f"x{KERNEL_SPEEDUP_FLOOR} floor over the "
                f"{KERNEL_BASELINE_COLD_P95_MS} ms baseline",
                file=sys.stderr,
            )
            status = 1
        serve_limit = (
            serving["steady"]["p99_ms"] * bench_serve.CHURN_P99_FACTOR
            + bench_serve.CHURN_P99_SLACK_MS
        )
        if serving["churn"]["p99_ms"] > serve_limit:
            print(
                f"FAIL: serving churn p99 "
                f"{serving['churn']['p99_ms']:.2f} ms breaks the "
                f"x{bench_serve.CHURN_P99_FACTOR:.1f} steady-state "
                f"envelope ({serve_limit:.2f} ms)",
                file=sys.stderr,
            )
            status = 1
        else:
            print(
                f"OK: serving churn p99 {serving['churn']['p99_ms']:.2f} ms "
                f"holds the x{bench_serve.CHURN_P99_FACTOR:.1f} "
                f"steady-state envelope ({serve_limit:.2f} ms)"
            )
        accuracy = planner["routing_accuracy"]
        if accuracy < ROUTING_ACCURACY_FLOOR:
            print(
                f"FAIL: planner routing accuracy {accuracy:.1%} is below "
                f"the {ROUTING_ACCURACY_FLOOR:.0%} acceptance floor",
                file=sys.stderr,
            )
            status = 1
        else:
            print(
                f"OK: planner routing accuracy {accuracy:.1%} meets the "
                f"{ROUTING_ACCURACY_FLOOR:.0%} floor"
            )
        for bucket, entry in planner["buckets"].items():
            if entry["requests"] < 20:
                # p95 over a handful of requests is a max statistic —
                # noise, not a routing verdict.
                print(
                    f"note: {bucket} bucket has only {entry['requests']} "
                    f"requests, p95 envelope not gated"
                )
                continue
            envelope = (
                entry["best_fixed_p95_ms"] * PLANNER_P95_FACTOR
                + PLANNER_P95_SLACK_MS
            )
            if entry["auto_p95_ms"] > envelope:
                print(
                    f"FAIL: auto p95 {entry['auto_p95_ms']:.2f} ms in the "
                    f"{bucket} bucket exceeds the best fixed algorithm "
                    f"[{entry['best_fixed']}] envelope {envelope:.2f} ms",
                    file=sys.stderr,
                )
                status = 1
            else:
                print(
                    f"OK: auto p95 holds the best-fixed envelope in the "
                    f"{bucket} bucket ({entry['auto_p95_ms']:.2f} <= "
                    f"{envelope:.2f} ms vs [{entry['best_fixed']}])"
                )
    return status


def main(argv=None):
    default_output = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_hotpath.json"
    )
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], allow_abbrev=False
    )
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (small corpus and log)")
    parser.add_argument("--scoring-only", action="store_true",
                        help="run only the batch-ranking scoring section "
                             "and its per-candidate ns gate")
    parser.add_argument("--authors", type=int, default=None,
                        help="DBLP corpus size (default 300; smoke 50)")
    parser.add_argument("--unique", type=int, default=None,
                        help="unique queries in the pool (default 25; smoke 8)")
    parser.add_argument("--requests", type=int, default=None,
                        help="total log requests (default 300; smoke 48)")
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--algorithm", default="auto",
                        choices=("auto", "partition", "sle", "stack"),
                        help="algorithm for the cold/warm/batch sections "
                             "(the planner sweep always runs all four)")
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--output",
                        default=os.path.normpath(default_output))
    args = parser.parse_args(argv)
    if args.authors is None:
        args.authors = 50 if args.smoke else 300
    if args.unique is None:
        args.unique = 8 if args.smoke else 25
    if args.requests is None:
        args.requests = 48 if args.smoke else 300
    for name in ("authors", "unique", "requests", "k"):
        if getattr(args, name) < 1:
            parser.error(f"--{name} must be >= 1")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
