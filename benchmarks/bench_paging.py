"""Beyond-RAM paging benchmark: RSS ceiling vs. corpus size.

The frozen snapshot layout (format v5: a count and a CRC in every
posting payload, partitioned tree directory, delta chains) exists so a
serving process can answer queries over a corpus much larger than the
memory it is willing to spend — cold postings stay on disk behind the
mmap and only the posting lists a query reads are ever decoded (each
one whole, at its first read).  This benchmark measures whether that
is true:

* For each corpus size in the sweep (multi-million nodes on full runs,
  a 9x spread of smaller sizes on ``--smoke``), the parent process
  generates the corpus, builds the index, and freezes a snapshot.
* The query pool is **fixed across sizes** and **selective**: it is
  derived once from the smallest corpus (every size shares a seed, so
  the smallest corpus's authors — and their planted rare ``<id>``
  tokens — are a prefix of every larger one) and mixes point lookups
  on rare tokens with rare-token pairs and triples.  This is the
  paper's Fig. 6 design (same workload, growing corpus) restricted to
  the selective regime: a production query's working set is what *it*
  touches, not the corpus size.  Serving the same pool over a 9x
  larger corpus must not fault in 9x the memory — that is exactly
  what block-max pruning and the lazy list/tree decode are for.
* A **fresh child process** per size opens the snapshot, serves the
  pool cold (result caching off), and reports how much its **heap**
  (``RssAnon`` of ``/proc/self/status``) grew between just before the
  open and the end of the passes, the growth of its file-backed pages
  (``RssFile``) over the same window, its peak RSS, cold-pass latency
  percentiles, time to first answer, and how many tree partitions the
  queries faulted in.  A child per size is what makes the numbers
  honest — no allocator reuse or page-cache warmth carries over
  between points.
* Two gates.  **Heap growth is sub-linear**: between the smallest and
  the largest point it may grow by at most ``RSS_SUBLINEAR_FACTOR`` of
  the corpus (node-count) growth, both measured as growth beyond 1x —
  a layout that decoded every posting column would grow ~1:1 and fail.
  The file-backed growth is reported and not gated: it is mapped
  snapshot pages the open-time checksum read once, which the kernel
  may drop at will and which at these sizes is simply the file.
  **No tree partition is faulted**, at any size: refinement search
  types its results from the posting columns and never reads the
  document tree.

A child can also be started with ``--rss-cap-mb N``: it then calls
``resource.setrlimit(RLIMIT_AS, ...)`` *before* opening the snapshot,
so the load and the whole query pass must fit under a hard address
-space ceiling — the CI beyond-RAM smoke proves the snapshot layout
serves a corpus under a cap an eager decode of the same corpus could
still fit, but a corpus-proportional heap would eventually break.

Usage::

    PYTHONPATH=src python benchmarks/bench_paging.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_paging.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_paging.py --smoke --rss-cap-mb 1024
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

#: Maximum heap (RssAnon) growth as a fraction of corpus growth (both
#: beyond 1x): growing the corpus Nx may grow the serving child's heap
#: delta by at most 1 + RSS_SUBLINEAR_FACTOR * (N - 1).  At 0.5 a 9x
#: corpus spread allows at most a 5x heap spread; the snapshot layout
#: lands far under, an eager decode lands far over.
RSS_SUBLINEAR_FACTOR = 0.5

#: Unique queries served cold by each child.
QUERY_POOL = 12

#: Timed cold passes per child (each query's first execution is the
#: cold sample; later passes confirm the steady state stays flat).
CHILD_PASSES = 3


def _percentile(ordered, fraction):
    import math

    if not ordered:
        return 0.0
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def _summary_ms(latencies):
    ordered = sorted(latencies)
    return {
        "p50_ms": _percentile(ordered, 0.50) * 1000,
        "p95_ms": _percentile(ordered, 0.95) * 1000,
        "p99_ms": _percentile(ordered, 0.99) * 1000,
    }


def _status_kb(field):
    """A ``/proc/self/status`` memory field in KiB, or None off-Linux."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def _resident_kb():
    """``(RssAnon, RssFile)`` of this process in KiB."""
    resident = _status_kb("RssAnon"), _status_kb("RssFile")
    if None in resident:
        raise RuntimeError(
            "/proc/self/status has no RssAnon / RssFile; the heap gate "
            "needs Linux >= 4.5"
        )
    return resident


def _peak_kb():
    """Peak RSS of *this* process.

    ``VmHWM`` rather than ``getrusage().ru_maxrss``: on Linux the
    task's maxrss survives fork+exec, so a child spawned from a parent
    that just built a multi-million-node index would inherit the
    parent's peak and report corpus-build memory as serving memory.
    """
    peak = _status_kb("VmHWM")
    if peak is not None:
        return peak
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ----------------------------------------------------------------------
# Child: open one snapshot cold, serve the pool, report JSON on stdout
# ----------------------------------------------------------------------
def run_child(snapshot, queries_path, k, rss_cap_mb):
    import resource

    if rss_cap_mb:
        cap = rss_cap_mb * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    with open(queries_path, "r", encoding="utf-8") as handle:
        queries = json.load(handle)

    from repro import XRefine
    from repro.index import open_index_source

    anon_before, file_before = _resident_kb()
    began = time.perf_counter()
    index = open_index_source(snapshot)
    engine = XRefine(index, cache_size=0)
    engine.search(queries[0], k=k)
    first_answer = time.perf_counter() - began

    passes = []
    for _ in range(CHILD_PASSES):
        latencies = []
        for query in queries:
            started = time.perf_counter()
            engine.search(query, k=k)
            latencies.append(time.perf_counter() - started)
        passes.append(latencies)

    anon_after, file_after = _resident_kb()
    report = {
        "first_answer_ms": first_answer * 1000,
        "cold": _summary_ms(passes[0]),
        "steady": _summary_ms(
            [min(pair) for pair in zip(*passes[1:])]
            if len(passes) > 1
            else passes[0]
        ),
        "anon_delta_kb": anon_after - anon_before,
        "file_delta_kb": file_after - file_before,
        "rss_peak_kb": _peak_kb(),
        "partitions_loaded": index.tree.loaded_partition_count(),
        "partitions_total": index.partition_count(),
        "rss_cap_mb": rss_cap_mb or None,
    }
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


# ----------------------------------------------------------------------
# Parent: sweep corpus sizes, one fresh child per point
# ----------------------------------------------------------------------
def _selective_pool(index, seed):
    """The fixed query pool, derived from the *smallest* corpus.

    All queries target the planted rare tokens (point lookups and
    rare-token pairs), so every query's — and every candidate refined
    query's — working set is O(token occurrences), never O(corpus).
    That restriction is the point, not a dodge: a query containing a
    corpus-frequency term has refinements that legitimately match a
    constant fraction of the document, and no layout can serve an
    everything-matches answer without touching everything.  The
    beyond-RAM regime this benchmark certifies is the selective one,
    where the answer is small and the question is whether the engine
    faults in anything *beyond* the answer's working set.
    """
    from repro.datasets.dblp import rare_token
    from repro.datasets.scaling import RARE_TOKEN_PERIOD

    rare = []
    ordinal = 0
    while True:
        token = rare_token(ordinal)
        if not index.has_keyword(token):
            break
        rare.append(token)
        ordinal += RARE_TOKEN_PERIOD
    if len(rare) < 2:
        raise RuntimeError(
            "corpus has no planted rare tokens; was it generated "
            "without rare_token_period?"
        )
    queries = []
    for position in range(QUERY_POOL):
        anchor = rare[position % len(rare)]
        if position % 3 == 0:
            queries.append([anchor])
        elif position % 3 == 1:
            queries.append([anchor, rare[(position * 7 + 1) % len(rare)]])
        else:
            queries.append(
                [
                    anchor,
                    rare[(position * 5 + 3) % len(rare)],
                    rare[(position * 11 + 2) % len(rare)],
                ]
            )
    return queries


def _measure_point(target, workdir, k, seed, rss_cap_mb, queries_path):
    from repro import build_document_index
    from repro.datasets import corpus_for_nodes
    from repro.index import freeze_index

    began = time.perf_counter()
    tree = corpus_for_nodes(target, seed=seed)
    index = build_document_index(tree)
    build_seconds = time.perf_counter() - began

    snapshot = os.path.join(workdir, f"paging_{target}.frz")
    freeze_index(index, snapshot)

    if not os.path.exists(queries_path):
        # First (smallest) point: fix the pool for the whole sweep.
        with open(queries_path, "w", encoding="utf-8") as handle:
            json.dump(_selective_pool(index, seed), handle)

    point = {
        "target_nodes": target,
        "nodes": len(tree),
        "partitions": len(index.partitions()),
        "snapshot_bytes": os.path.getsize(snapshot),
        "build_seconds": build_seconds,
    }
    del index, tree  # parent memory back before the child runs

    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--child", snapshot, queries_path,
        "--k", str(k),
    ]
    if rss_cap_mb:
        command += ["--rss-cap-mb", str(rss_cap_mb)]
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src"
    )
    env["PYTHONPATH"] = os.path.normpath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    result = subprocess.run(
        command, capture_output=True, text=True, env=env, check=False
    )
    if result.returncode != 0:
        raise RuntimeError(
            f"paging child failed for target {target}:\n{result.stderr}"
        )
    point.update(json.loads(result.stdout))
    return point


def run_paging_section(smoke, k=2, seed=29, rss_cap_mb=None,
                       targets=None):
    """Measure the sweep; returns the report section."""
    from repro.datasets import DEFAULT_NODE_TARGETS, SMOKE_NODE_TARGETS

    if targets is None:
        targets = SMOKE_NODE_TARGETS if smoke else DEFAULT_NODE_TARGETS
    workdir = tempfile.mkdtemp(prefix="bench_paging_")
    queries_path = os.path.join(workdir, "paging_queries.json")
    points = []
    try:
        for target in sorted(targets):
            point = _measure_point(
                target, workdir, k, seed, rss_cap_mb, queries_path
            )
            points.append(point)
            print(
                f"    paging {point['nodes']:>9,} nodes  "
                f"snapshot {point['snapshot_bytes'] / 1e6:7.1f} MB  "
                f"heap +{point['anon_delta_kb'] / 1024:5.2f} MB  "
                f"file +{point['file_delta_kb'] / 1024:5.2f} MB  "
                f"cold p95 {point['cold']['p95_ms']:7.2f} ms  "
                f"partitions {point['partitions_loaded']}"
                f"/{point['partitions_total']}"
            )
    finally:
        import shutil

        shutil.rmtree(workdir, ignore_errors=True)

    first, last = points[0], points[-1]
    corpus_growth = last["nodes"] / first["nodes"]
    heap_growth = (
        last["anon_delta_kb"] / first["anon_delta_kb"]
        if first["anon_delta_kb"] > 0
        else float("inf")
    )
    limit = 1.0 + RSS_SUBLINEAR_FACTOR * (corpus_growth - 1.0)
    faulted = [
        point["nodes"] for point in points if point["partitions_loaded"]
    ]
    section = {
        "points": points,
        "corpus_growth": corpus_growth,
        "heap_growth": heap_growth,
        "heap_growth_limit": limit,
        "heap_sublinear": heap_growth <= limit,
        "rss_sublinear_factor": RSS_SUBLINEAR_FACTOR,
        "tree_untouched": not faulted,
        "cold_p95_ms": last["cold"]["p95_ms"],
        "rss_cap_mb": rss_cap_mb or None,
    }
    section["passed"] = section["heap_sublinear"] and not faulted
    print(
        f"    paging heap growth x{heap_growth:.2f} over corpus growth "
        f"x{corpus_growth:.2f} (limit x{limit:.2f}) -> "
        f"{'sub-linear' if section['heap_sublinear'] else 'NOT sub-linear'}"
    )
    if faulted:
        print(
            "    paging FAILED: search faulted tree partitions at "
            f"{faulted} nodes"
        )
    return section


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], allow_abbrev=False
    )
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized sweep (smaller node targets)")
    parser.add_argument("--child", nargs=2,
                        metavar=("SNAPSHOT", "QUERIES"),
                        help="internal: serve one snapshot and report JSON")
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--seed", type=int, default=29)
    parser.add_argument("--rss-cap-mb", type=int, default=None,
                        help="hard RLIMIT_AS ceiling applied in each "
                             "serving child before the snapshot opens")
    parser.add_argument("--output", default=None,
                        help="write the section JSON here as well")
    args = parser.parse_args(argv)

    if args.child:
        return run_child(
            args.child[0], args.child[1], args.k, args.rss_cap_mb
        )

    print("paging sweep (fresh child process per corpus size):")
    section = run_paging_section(
        args.smoke,
        k=args.k,
        seed=args.seed,
        rss_cap_mb=args.rss_cap_mb,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(section, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0 if section["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
