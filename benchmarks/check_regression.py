"""Traffic-replay gate: the serving caches' properties under drift.

Gates a traffic-replay report (``bench_replay.py --smoke --output ...``)
against the committed baseline ``benchmarks/BENCH_replay.json``: the
report's own internal gates must have passed (sustained QPS with the
sub-result cache above QPS without it, sub-result hits > 0, zero
replay-vs-cold oracle diffs and zero cross-configuration diffs), and
under every *drift* phase (each phase after the first re-permutes the
popularity ranking) the serving default's result-cache hit rate must
stay within ``--replay-hit-slack`` of the baseline's same phase — the
LRU must follow the drifted head as well as it did when the baseline
was recorded.

These are properties of the cache layers that no ``BENCHMARK.json``
metric states.  Latency, throughput, start-up and RSS of the serving
stack are measured and bounded by ``benchmarks/e2e/run.py`` alone.

The baseline is regenerated with::

    PYTHONPATH=src python benchmarks/bench_replay.py --smoke \
        --output benchmarks/BENCH_replay.json

and must be re-committed whenever the smoke configuration changes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_REPLAY_BASELINE = os.path.join(_HERE, "BENCH_replay.json")


def load_report(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_replay(args):
    """Gate a traffic-replay report against the committed baseline."""
    baseline = load_report(args.replay_baseline)
    current = load_report(args.report)

    for name in ("config", "subresults", "comparison", "oracle", "gates"):
        if name not in baseline or name not in current:
            print(f"malformed replay report: missing {name!r} section",
                  file=sys.stderr)
            return 2
    for key in ("authors", "entries", "unique_queries", "capacity",
                "phases", "noise_share", "zipf_s", "k"):
        if baseline["config"].get(key) != current["config"].get(key):
            print(
                f"replay config mismatch on {key!r}: baseline "
                f"{baseline['config'].get(key)!r} vs current "
                f"{current['config'].get(key)!r} — regenerate the baseline",
                file=sys.stderr,
            )
            return 2

    gates = current["gates"]
    if not gates.get("passed"):
        for failure in gates.get("failures", ()):
            print(f"FAIL (replay internal gate): {failure}",
                  file=sys.stderr)
        return 1
    comparison = current["comparison"]
    print(
        f"replay: qps ratio with / without sub-results "
        f"x{comparison['qps_ratio']:.2f}, hit rate "
        f"{comparison['hit_rate']:.3f}, sub-result hit rate "
        f"{comparison['subresult_hit_rate']:.3f}, oracle diffs "
        f"{current['oracle']['cold_divergences']}"
    )

    # Drift-phase hit-rate floor: every phase after the first serves a
    # re-permuted popularity head, so holding the baseline's hit rate
    # there means the cache followed the drift.
    baseline_phases = baseline["subresults"]["phases"]
    current_phases = current["subresults"]["phases"]
    if len(baseline_phases) != len(current_phases):
        print("replay phase count differs from the baseline — "
              "regenerate it", file=sys.stderr)
        return 2
    for reference_phase, measured_phase in zip(
        baseline_phases[1:], current_phases[1:]
    ):
        floor = reference_phase["hit_rate"] - args.replay_hit_slack
        print(
            f"drift phase {measured_phase['name']}: hit rate "
            f"{measured_phase['hit_rate']:.3f} "
            f"(baseline {reference_phase['hit_rate']:.3f}, "
            f"floor {floor:.3f})"
        )
        if measured_phase["hit_rate"] < floor:
            print(
                f"FAIL: hit rate under drift phase "
                f"{measured_phase['name']} fell below the baseline "
                "floor — the result cache is no longer tracking the "
                "drifted head",
                file=sys.stderr,
            )
            return 1
    print("OK: replay gates passed and drift-phase hit rates hold the "
          "committed baseline")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], allow_abbrev=False
    )
    parser.add_argument("report",
                        help="traffic-replay report to gate "
                             "(bench_replay.py --smoke output)")
    parser.add_argument("--replay-baseline",
                        default=DEFAULT_REPLAY_BASELINE,
                        help="committed replay smoke report to compare "
                             "against")
    parser.add_argument("--replay-hit-slack", type=float, default=0.05,
                        help="absolute hit-rate slack under each drift "
                             "phase vs the replay baseline")
    return check_replay(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
