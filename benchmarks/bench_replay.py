"""Sustained throughput under real traffic: million-query log replay.

Synthesizes a realistic query log (Zipf popularity skew, temporal
drift phases, Pareto burst arrival, session reformulation chains —
:func:`repro.workload.synthesize_traffic`) and streams it twice
through engines with the same LRU result cache:

* **no_subresults** — the term-signature sub-result cache disabled;
* **subresults** — the serving default, with the sub-result cache.

Both replays are closed-loop (as fast as the engine answers), after a
rule-mining prime pass over the query universe so the measured phases
price the *serving* stack, not first-contact vocabulary mining.  The
report carries per-phase sustained QPS, p50/p95/p99 latency and cache
hit rates, so drift behaviour — the hot head changes every phase — is
visible per phase, not smeared over the run.

Acceptance gates (enforced by this script's exit status and re-checked
by ``check_regression.py``):

* the sub-result layer pays for itself: sustained QPS with it is above
  QPS without it (ratio > ``QPS_RATIO_FLOOR``), and it answered some
  result-cache misses (sub-result hits > 0);
* the replay-vs-cold oracle
  (:func:`repro.verify.oracle.replay_cold_diff`) finds **zero**
  fingerprint differences between sampled replayed answers and a
  cache-disabled re-evaluation, for both configurations;
* both configurations sampled identical entries, and their recorded
  fingerprints agree pairwise — a cache layer must never change an
  answer, only its cost.

``--serve`` additionally streams a slice of the same traffic through
the real daemon (``repro.serve``) over HTTP and requires zero failed
requests.

Usage::

    PYTHONPATH=src python benchmarks/bench_replay.py            # >=1M entries
    PYTHONPATH=src python benchmarks/bench_replay.py --smoke    # CI-sized

The committed smoke baseline is regenerated with::

    PYTHONPATH=src python benchmarks/bench_replay.py --smoke \
        --output benchmarks/BENCH_replay.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro import XRefine, build_document_index  # noqa: E402
from repro.datasets import generate_dblp  # noqa: E402
from repro.index import freeze_index  # noqa: E402
from repro.serve import BackgroundServer  # noqa: E402
from repro.verify.oracle import replay_cold_diff  # noqa: E402
from repro.workload import replay_traffic, synthesize_traffic  # noqa: E402

#: Sustained QPS with the sub-result cache must be above this multiple
#: of QPS without it on the same traffic.
QPS_RATIO_FLOOR = 1.0

#: Replayed-vs-cold fingerprint differences tolerated.  Zero: the
#: cache stack must never change an answer.
ORACLE_DIVERGENCE_BUDGET = 0

FULL = {
    "authors": 40,
    "corpus_seed": 3,
    "traffic_seed": 11,
    "entries": 1_000_000,
    "unique_queries": 4000,
    "zipf_s": 1.0,
    "phases": 3,
    "noise_share": 0.25,
    "chain_probability": 0.5,
    "capacity": 512,
    "k": 1,
    "oracle_samples": 200,
}

SMOKE = {
    "authors": 30,
    "corpus_seed": 3,
    "traffic_seed": 11,
    "entries": 50_000,
    "unique_queries": 2000,
    "zipf_s": 1.0,
    "phases": 3,
    "noise_share": 0.25,
    "chain_probability": 0.5,
    "capacity": 512,
    "k": 1,
    "oracle_samples": 100,
}


def build_engine(index, config, subresults):
    """The two contestants, identical but for the sub-result cache."""
    return XRefine(
        index,
        cache_size=config["capacity"],
        subresult_size=None if subresults else 0,
    )


def prime_rules(engine, traffic):
    """Mine every unique query's rule set once, off the clock, which
    fills the miner's per-keyword memo.

    First contact with a vocabulary pays rule mining — a cost both
    configurations share and neither cache can help with.  Priming it
    for the whole universe makes the measured phases price the serving
    stack (result cache, sub-result assembly, evaluation), matching a
    daemon that has been up longer than one popularity epoch.
    """
    started = time.perf_counter()
    for query in traffic.universe:
        engine.mine_rules(list(query))
    return time.perf_counter() - started


def phase_rows(report):
    return [
        {
            "name": phase["name"],
            "entries": phase["entries"],
            "qps": round(phase["qps"], 1),
            "hit_rate": round(phase["hit_rate"], 4),
            "p50_ms": round(phase["p50_ms"], 4),
            "p95_ms": round(phase["p95_ms"], 4),
            "p99_ms": round(phase["p99_ms"], 4),
            "subresult_hits": phase["subresult_hits"],
        }
        for phase in report.phases
    ]


def run_config(index, traffic, config, subresults, label):
    engine = build_engine(index, config, subresults)
    prime_seconds = prime_rules(engine, traffic)
    print(f"  [{label}] primed {traffic.unique_queries()} rule sets "
          f"in {prime_seconds:.1f}s; replaying {len(traffic)} entries ...")
    report = replay_traffic(
        engine, traffic, k=config["k"],
        oracle_samples=config["oracle_samples"],
    )
    overall = report.overall
    print(f"  [{label}] sustained {overall['qps']:.0f} qps, "
          f"hit rate {overall['hit_rate']:.3f}")
    section = {
        "prime_seconds": round(prime_seconds, 3),
        "overall": {
            "entries": overall["entries"],
            "seconds": round(overall["seconds"], 3),
            "qps": round(overall["qps"], 1),
            "hit_rate": round(overall["hit_rate"], 4),
            "result_cache": overall["result_cache"],
            "subresults": overall["subresults"],
        },
        "phases": phase_rows(report),
    }
    return section, report


def run_serve_section(index, traffic, config, limit):
    """Stream a slice of the traffic through the real daemon."""
    workdir = tempfile.mkdtemp(prefix="bench_replay_")
    snapshot = os.path.join(workdir, "corpus.frz")
    end = min(limit, len(traffic))
    try:
        freeze_index(index, snapshot)
        with BackgroundServer(
            snapshot, cache_size=config["capacity"]
        ) as daemon:
            failed = 0
            started = time.perf_counter()
            with daemon.client() as client:
                for _session, _ts, query in traffic.entries(0, end):
                    try:
                        client.search(
                            " ".join(query), k=config["k"]
                        )
                    except Exception:  # noqa: BLE001 — counted, gated
                        failed += 1
                elapsed = time.perf_counter() - started
                stats = client.stats()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    engine_stats = stats["engine"]
    result_stats = engine_stats["results"]
    lookups = result_stats["hits"] + result_stats["misses"]
    return {
        "entries": end,
        "failed_requests": failed,
        "seconds": round(elapsed, 3),
        "qps": round(end / elapsed, 1) if elapsed > 0 else 0.0,
        "hit_rate": round(result_stats["hits"] / lookups, 4)
        if lookups else 0.0,
        "evictions": result_stats["evictions"],
        "subresult_hits": engine_stats["subresults"]["hits"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], allow_abbrev=False
    )
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (50k entries)")
    parser.add_argument("--entries", type=int, default=None,
                        help="override the traffic size")
    parser.add_argument("--serve", action="store_true",
                        help="also replay a slice through the daemon")
    parser.add_argument("--serve-entries", type=int, default=10_000,
                        help="entries for the daemon slice")
    parser.add_argument("--output", default=None,
                        help="write the JSON report here")
    args = parser.parse_args(argv)

    config = dict(SMOKE if args.smoke else FULL)
    if args.entries is not None:
        config["entries"] = args.entries

    print(f"corpus: dblp authors={config['authors']} "
          f"seed={config['corpus_seed']}")
    index = build_document_index(
        generate_dblp(
            num_authors=config["authors"], seed=config["corpus_seed"]
        )
    )
    started = time.perf_counter()
    traffic = synthesize_traffic(
        index,
        entries=config["entries"],
        unique_queries=config["unique_queries"],
        zipf_s=config["zipf_s"],
        phases=config["phases"],
        noise_share=config["noise_share"],
        chain_probability=config["chain_probability"],
        seed=config["traffic_seed"],
    )
    print(f"traffic: {traffic!r} synthesized in "
          f"{time.perf_counter() - started:.1f}s")

    plain, plain_report = run_config(
        index, traffic, config, subresults=False, label="no_subresults"
    )
    served, served_report = run_config(
        index, traffic, config, subresults=True, label="subresults"
    )

    qps_ratio = (
        served_report.overall["qps"] / plain_report.overall["qps"]
        if plain_report.overall["qps"] > 0 else 0.0
    )
    sub = served_report.overall["subresults"]
    sub_lookups = sub["hits"] + sub["misses"]

    print("oracle: diffing sampled replayed answers against cold "
          "evaluation ...")
    cold_divergences = []
    for label, report in (
        ("no_subresults", plain_report), ("subresults", served_report)
    ):
        found = replay_cold_diff(index, report.samples)
        cold_divergences.extend((label, d) for d in found)
    # Both configurations sampled the same entry positions of the same
    # traffic, so their recorded fingerprints must agree pairwise.
    cross_config_diffs = sum(
        1
        for a, b in zip(plain_report.samples, served_report.samples)
        if a != b
    )
    oracle = {
        "samples_per_config": len(served_report.samples),
        "cold_divergences": len(cold_divergences),
        "cross_config_diffs": cross_config_diffs,
    }
    for label, divergence in cold_divergences[:5]:
        print(f"  DIVERGENCE [{label}] {divergence.describe()}")

    report = {
        "config": {**config, "smoke": bool(args.smoke)},
        "traffic": {
            "entries": len(traffic),
            "unique_queries": traffic.unique_queries(),
            "phases": len(traffic.phases),
        },
        "no_subresults": plain,
        "subresults": served,
        "comparison": {
            "qps_ratio": round(qps_ratio, 3),
            "hit_rate": round(served_report.overall["hit_rate"], 4),
            "subresult_hits": sub["hits"],
            # The share of result-cache misses answered by assembly.
            "subresult_hit_rate": round(sub["hits"] / sub_lookups, 4)
            if sub_lookups else 0.0,
        },
        "oracle": oracle,
    }

    if args.serve:
        print(f"serve: daemon slice of {args.serve_entries} entries ...")
        report["serve"] = run_serve_section(
            index, traffic, config, args.serve_entries
        )
        print(f"  daemon: {report['serve']['qps']:.0f} qps over HTTP, "
              f"{report['serve']['failed_requests']} failed")

    failures = []
    if qps_ratio <= QPS_RATIO_FLOOR:
        failures.append(
            f"sustained-QPS ratio with / without sub-results "
            f"{qps_ratio:.2f} is not above x{QPS_RATIO_FLOOR}"
        )
    if not sub["hits"]:
        failures.append("the sub-result cache answered no request")
    if len(cold_divergences) > ORACLE_DIVERGENCE_BUDGET:
        failures.append(
            f"{len(cold_divergences)} replayed answers differ from cold "
            "evaluation"
        )
    if cross_config_diffs:
        failures.append(
            f"{cross_config_diffs} sampled answers differ between the "
            "two cache configurations"
        )
    if args.serve and report["serve"]["failed_requests"]:
        failures.append(
            f"{report['serve']['failed_requests']} daemon requests failed"
        )
    report["gates"] = {
        "qps_ratio_floor": QPS_RATIO_FLOOR,
        "passed": not failures,
        "failures": failures,
    }

    print(f"comparison: qps x{qps_ratio:.2f} with sub-results "
          f"(floor x{QPS_RATIO_FLOOR}), {sub['hits']} sub-result hits "
          f"of {sub_lookups} lookups")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.output}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK: the sub-result cache raises sustained QPS, with zero "
              "oracle diffs")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
