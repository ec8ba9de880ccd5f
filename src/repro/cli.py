"""Command-line interface for XRefine.

Usage (``python -m repro <command> ...``)::

    repro generate dblp -o corpus.xml --authors 300 --seed 7
    repro index corpus.xml -o corpus.frz
    repro compact corpus.d2.dlt -o corpus.frz
    repro search corpus.frz online databse -k 3 --explain
    repro search corpus.frz online databse -k 3 --algorithm partition
    repro slca corpus.frz database 2003
    repro stats corpus.frz
    repro serve corpus.frz --port 8391
    repro bench corpus.frz --profile
    repro verify-diff --seeds 50

Every command that takes a source accepts a frozen snapshot file (from
``repro index``; ``freeze-index`` is a second spelling of it), a delta
chain top (``.dlt``), or a raw ``.xml`` file (indexed on the fly).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .core.engine import ALGORITHMS, XRefine
from .datasets import generate_baseball, generate_dblp
from .errors import ReproError
from .index.frozen import freeze_index
from .index.persist import open_index_source
from .xmltree.serialize import write_file


def _load_engine(source):
    """Engine over a snapshot file, a delta chain top, or raw XML."""
    return XRefine(open_index_source(source))


def _cmd_generate(args, out):
    if args.dataset == "dblp":
        tree = generate_dblp(num_authors=args.authors, seed=args.seed)
    else:
        tree = generate_baseball(seed=args.seed)
    write_file(tree, args.output)
    print(f"wrote {args.output}: {len(tree)} nodes", file=out)
    return 0


def _cmd_index(args, out):
    index = open_index_source(args.source)
    freeze_index(index, args.output)
    size = os.path.getsize(args.output)
    print(
        f"indexed {args.source}: {len(index.tree)} nodes, "
        f"{index.inverted.vocabulary_size()} keywords -> "
        f"{args.output} (frozen snapshot, {size} bytes)",
        file=out,
    )
    return 0


def _cmd_compact(args, out):
    from .index.delta import compact

    layers = compact(args.source, args.output)
    size = os.path.getsize(args.output)
    print(
        f"compacted {args.source}: folded {layers} delta layer(s) -> "
        f"{args.output} ({size} bytes)",
        file=out,
    )
    return 0


def _cmd_search(args, out):
    engine = _load_engine(args.source)
    response = engine.search(
        args.keywords, k=args.k, algorithm=args.algorithm,
        explain=args.explain,
    )
    if args.explain:
        print(response.plan.describe(), file=out)
    if not response.needs_refinement:
        print(
            f"direct hit: {len(response.original_results)} meaningful "
            "result(s); no refinement needed",
            file=out,
        )
        for dewey in response.original_results[: args.k]:
            node = engine.node(dewey)
            print(f"  {node.label()}  {node.subtree_text()[:64]}", file=out)
        return 0
    if not response.refinements:
        print("no refinement with a meaningful result exists", file=out)
        return 1
    print("query needs refinement; suggestions:", file=out)
    for rank, refinement in enumerate(response.refinements, start=1):
        print(
            f"  #{rank} {{{' '.join(refinement.rq.keywords)}}} "
            f"dSim={refinement.rq.dissimilarity} "
            f"results={refinement.result_count} "
            f"rank={refinement.rank_score:.3f}",
            file=out,
        )
        for dewey in refinement.slcas[:2]:
            node = engine.node(dewey)
            print(f"      {node.label()}  {node.subtree_text()[:56]}", file=out)
    return 0


def _cmd_slca(args, out):
    engine = _load_engine(args.source)
    labels = engine.slca_search(args.keywords)
    print(f"{len(labels)} SLCA result(s)", file=out)
    for dewey in labels:
        node = engine.node(dewey)
        print(f"  {node.label()}  {node.subtree_text()[:64]}", file=out)
    return 0


def _cmd_serve(args, out):
    """Run the always-on serving daemon until SIGTERM/SIGINT."""
    from .serve.server import run_server

    def ready(server):
        print(
            f"serving {args.source} on http://{server.host}:{server.port} "
            f"(pid={os.getpid()})",
            file=out,
            flush=True,
        )

    run_server(
        args.source,
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        cache_policy=args.cache_policy,
        subresult_size=args.subresult_size,
        max_inflight=args.max_inflight,
        ready_callback=ready,
    )
    print("daemon stopped", file=out)
    return 0


def _cmd_bench(args, out):
    """Serve a generated workload per algorithm; report latency."""
    import math
    import random
    import time

    from .perf import profiling
    from .workload import WorkloadGenerator

    index = open_index_source(args.source)
    generator = WorkloadGenerator(index, seed=args.seed)
    pool = []
    for position in range(args.queries):
        if position % 5 < 3:
            pool.append(list(generator.refinable_query().query))
        else:
            pool.append(list(generator.clean_query().query))
    rng = random.Random(args.seed + 1)
    weights = [1.0 / rank for rank in range(1, len(pool) + 1)]
    log = rng.choices(pool, weights=weights, k=args.requests)

    def percentile(ordered, fraction):
        rank = max(1, math.ceil(fraction * len(ordered)))
        return ordered[rank - 1]

    algorithms = (args.algorithm,) if args.algorithm else ALGORITHMS
    print(
        f"bench: {len(log)} requests over {len(pool)} unique queries "
        f"(cache disabled, one warmup pass per algorithm)",
        file=out,
    )
    for algorithm in algorithms:
        engine = XRefine(index, cache_size=0)
        for query in log:  # warmup: rules, decoded lists, DP memos
            engine.search(query, k=args.k, algorithm=algorithm)
        latencies = []
        if args.profile:
            profiling.start()
        for query in log:
            began = time.perf_counter()
            engine.search(query, k=args.k, algorithm=algorithm)
            latencies.append(time.perf_counter() - began)
        profile = profiling.stop()
        ordered = sorted(latencies)
        print(
            f"  {algorithm:<10} p50 {percentile(ordered, 0.50) * 1000:7.3f}"
            f"  p95 {percentile(ordered, 0.95) * 1000:7.3f}"
            f"  p99 {percentile(ordered, 0.99) * 1000:7.3f} ms"
            f"   total {sum(latencies) * 1000:8.1f} ms",
            file=out,
        )
        if profile is not None:
            # Exclusive per-phase seconds; everything the markers do
            # not cover (rule mining, context setup, planning) is the
            # remainder against the measured wall time.
            wall = sum(latencies)
            accounted = 0.0
            for name in ("decode", "merge", "admit", "score"):
                seconds = profile.totals.get(name, 0.0)
                accounted += seconds
                share = seconds / wall * 100 if wall else 0.0
                print(
                    f"      {name:<7} {seconds * 1000:8.1f} ms "
                    f"({share:5.1f}%)",
                    file=out,
                )
            other = max(wall - accounted, 0.0)
            share = other / wall * 100 if wall else 0.0
            print(
                f"      other   {other * 1000:8.1f} ms ({share:5.1f}%)",
                file=out,
            )
    return 0


def _cmd_verify_diff(args, out):
    from .verify.runner import verify_diff

    report = verify_diff(
        seeds=args.seeds,
        base_seed=args.base_seed,
        k=args.k,
        queries_per_doc=args.queries,
        shrink=not args.no_shrink,
        fixtures_dir=args.fixtures_dir,
        out=(lambda line: print(line, file=out)) if args.verbose else None,
    )
    print(report.summary(), file=out)
    if not report.ok:
        for divergence in report.divergences[: args.show]:
            print(divergence.describe(), file=out)
        return 1
    return 0


def _cmd_stats(args, out):
    engine = _load_engine(args.source)
    index = engine.index
    print(f"nodes              : {len(index.tree)}", file=out)
    print(f"partitions         : {len(index.tree.partitions())}", file=out)
    print(
        f"vocabulary         : {index.inverted.vocabulary_size()}", file=out
    )
    print(f"node types         : {len(index.statistics)}", file=out)
    longest = sorted(
        (
            (index.inverted.list_length(keyword), keyword)
            for keyword in index.inverted.keywords()
        ),
        reverse=True,
    )[:5]
    print("longest inverted lists:", file=out)
    for length, keyword in longest:
        print(f"  {keyword:<20} {length}", file=out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XRefine: automatic XML keyword query refinement",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="emit a synthetic corpus as XML"
    )
    generate.add_argument("dataset", choices=("dblp", "baseball"))
    generate.add_argument("-o", "--output", required=True)
    generate.add_argument("--authors", type=int, default=200)
    generate.add_argument("--seed", type=int, default=7)
    generate.set_defaults(handler=_cmd_generate)

    index = commands.add_parser(
        "index", aliases=["freeze-index"],
        help="index a document (or re-freeze a snapshot / delta chain) "
        "into a single mmap-served snapshot file",
    )
    index.add_argument("source", help=".xml file, snapshot, or delta chain")
    index.add_argument("-o", "--output", required=True)
    index.set_defaults(handler=_cmd_index)

    compact = commands.add_parser(
        "compact",
        help="fold a delta snapshot chain into one monolithic frozen "
        "snapshot (byte-identical to a fresh refreeze)",
    )
    compact.add_argument(
        "source", help="chain top: a delta file, or a plain snapshot"
    )
    compact.add_argument("-o", "--output", required=True)
    compact.set_defaults(handler=_cmd_compact)

    search = commands.add_parser(
        "search", help="refinement search (the full XRefine loop)"
    )
    search.add_argument("source", help="snapshot, delta chain, or .xml file")
    search.add_argument("keywords", nargs="+")
    search.add_argument("-k", type=int, default=3)
    search.add_argument(
        "--algorithm", choices=ALGORITHMS, default="auto",
        help="'auto' (default) is Algorithm 3 (sle); the fixed "
        "algorithms reproduce the paper's comparison, and answers are "
        "identical for every choice",
    )
    search.add_argument(
        "--explain", action="store_true",
        help="print the QueryPlan (the route that answered, its "
        "elapsed time, whether the result cache served it) before the "
        "results",
    )
    search.set_defaults(handler=_cmd_search)

    slca = commands.add_parser("slca", help="plain SLCA search")
    slca.add_argument("source")
    slca.add_argument("keywords", nargs="+")
    slca.set_defaults(handler=_cmd_slca)

    stats = commands.add_parser("stats", help="corpus/index statistics")
    stats.add_argument("source")
    stats.set_defaults(handler=_cmd_stats)

    serve = commands.add_parser(
        "serve",
        help="always-on serving daemon with zero-downtime snapshot "
        "hot-swap (POST /reload)",
    )
    serve.add_argument("source", help="snapshot, delta chain, or .xml")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8391,
        help="TCP port (0 binds an ephemeral port, printed on startup)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=512,
        help="query-result cache capacity (0 disables)",
    )
    serve.add_argument(
        "--cache-policy", choices=("tinylfu", "lru"), default="tinylfu",
        help="result-cache replacement policy (tinylfu = frequency-"
        "gated admission; lru = plain recency)",
    )
    serve.add_argument(
        "--subresult-size", type=int, default=None, metavar="N",
        help="term-signature sub-result cache capacity "
        "(default scales with --cache-size; 0 disables)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=64,
        help="bound on requests waiting for the query thread (identical "
        "ones included); past it a request gets 429",
    )
    serve.set_defaults(handler=_cmd_serve)

    bench = commands.add_parser(
        "bench",
        help="serve a generated workload per algorithm and report "
        "p50/p95/p99 latency (--profile adds a per-phase breakdown)",
    )
    bench.add_argument("source", help="snapshot, delta chain, or .xml")
    bench.add_argument("--queries", type=int, default=8,
                       help="unique queries in the generated pool")
    bench.add_argument("--requests", type=int, default=48,
                       help="total Zipf-weighted log requests")
    bench.add_argument("--seed", type=int, default=23)
    bench.add_argument("-k", type=int, default=2)
    bench.add_argument(
        "--algorithm", choices=ALGORITHMS, default=None,
        help="bench only this algorithm (default: all four)",
    )
    bench.add_argument(
        "--profile", action="store_true",
        help="emit the per-route phase breakdown (decode / merge / "
        "admit / score, exclusive perf_counter seconds) alongside "
        "the percentiles",
    )
    bench.set_defaults(handler=_cmd_bench)

    verify = commands.add_parser(
        "verify-diff",
        help="differential correctness harness: cross-check every "
        "SLCA/refinement code path over seeded random documents",
    )
    verify.add_argument("--seeds", type=int, default=50)
    verify.add_argument("--base-seed", type=int, default=0)
    verify.add_argument("-k", type=int, default=2)
    verify.add_argument(
        "--queries", type=int, default=4,
        help="queries evaluated per generated document",
    )
    verify.add_argument(
        "--fixtures-dir", default=None,
        help="write shrunken divergence fixtures here "
        "(e.g. tests/verify/fixtures)",
    )
    verify.add_argument(
        "--no-shrink", action="store_true",
        help="report divergences without delta-debugging them",
    )
    verify.add_argument(
        "--show", type=int, default=5,
        help="divergences printed in full on failure",
    )
    verify.add_argument("--verbose", action="store_true")
    verify.set_defaults(handler=_cmd_verify_diff)

    return parser


def main(argv=None, out=None):
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output was piped into a pager/head that closed early; treat
        # as success like standard unix tools do.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
