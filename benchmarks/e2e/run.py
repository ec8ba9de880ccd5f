"""Wire-level end-to-end benchmark of the ``repro.serve`` daemon.

One command prints every named metric with its unit and sample count::

    python3 benchmarks/e2e/run.py                  # 4 workloads + traced runs
    python3 benchmarks/e2e/run.py --quick          # same code paths, ~30 s
    python3 benchmarks/e2e/run.py --repeat 10      # noise of the e2e metrics
    python3 benchmarks/e2e/run.py compare A.json B.json
    python3 benchmarks/e2e/run.py pin              # rewrite the pinned digests

The driver's form runs one workload once and prints one JSON object as
the last line of standard output::

    python3 benchmarks/e2e/run.py --workload cold_small --seed 1 \\
        --seconds 15 --trace 0

See ``README.md`` beside this file for what the numbers mean.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import paths
from registry import (DEFAULT_SECONDS, DEFAULT_SEED, END_TO_END,
                      END_TO_END_NAMES, GATED_WORKLOAD_NAMES,
                      PER_LAYER_NAMES, WORKLOAD_NAMES)

QUICK_SECONDS = 0.5
#: A bound is this many times the worst measured spread (the contract
#: wants every spread below a third of its bound), but at least the
#: floor (share of the median).
BOUND_FACTOR = 3.0
BOUND_FLOOR = 0.05
#: BENCHMARK.json allows no bound above this.
BOUND_CEILING = 0.25


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def _number(value):
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}" if abs(value) < 1000 else f"{value:.1f}"


def print_metrics(title, result, names):
    print(f"\n== {title}: attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    samples = result["samples"]
    for name in names:
        entry = result["metrics"][name]
        count = samples.get(name)
        tail = f"  (n={count})" if count is not None else ""
        print(f"  {name:<32}{_number(entry['value']):>12} "
              f"{entry['unit']:<6}{tail}")


def print_waterfall(workload, result):
    wire = result["detail"]["wire"]
    print(f"\n-- waterfall {workload}: wire p50 {wire['p50_ms']:.3f} ms "
          f"(self time per request in us; share = p50 / wire p50)")
    print(f"  {'layer':<9}{'span':<36}{'p50':>10}{'p95':>10}{'mean':>10}"
          f"{'share':>8}")
    for layer, name, p50, p95, mean, share in result["detail"]["waterfall"]:
        print(f"  {layer:<9}{name:<36}{p50:>10.1f}{p95:>10.1f}{mean:>10.1f}"
              f"{share:>8.1%}")


def print_detail(result):
    detail = result["detail"]
    for name in ("pooled", "p99_ms", "failed_share", "checked", "mismatched",
                 "reloads", "reload_p50_s", "daemon_exit", "cpus"):
        if name in detail:
            print(f"  ({name} = {detail[name]})")
    for error in detail.get("errors", []):
        print(f"  !! {error}")
    digests = detail["digests"]
    for kind in ("corpus", "snapshot_file", "pool"):
        for name, sha in digests.get(kind, {}).items():
            print(f"  sha256 {kind} {name}: {sha}")
    print(f"  sha256 sequence (seed {digests['sequence']['seed']}, "
          f"{digests['sequence']['seconds']} s): "
          f"{digests['sequence']['sha']}")


# ----------------------------------------------------------------------
# Noise and comparison
# ----------------------------------------------------------------------
def spread_row(values):
    """``(median, q1, q3, (q3 - q1) / median)`` of one metric's runs."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def print_noise(runs):
    """``runs``: ``{workload: [{metric: value}, ...]}``."""
    print(f"\n{'workload':<14}{'metric':<16}{'median':>11}{'q1':>11}"
          f"{'q3':>11}{'spread':>9}{'n':>4}")
    for workload, results in runs.items():
        for name in END_TO_END_NAMES:
            values = [result[name] for result in results]
            median, q1, q3, spread = spread_row(values)
            print(f"{workload:<14}{name:<16}{_number(median):>11}"
                  f"{_number(q1):>11}{_number(q3):>11}{spread:>9.1%}"
                  f"{len(values):>4}")


def suggest_bounds(runs):
    """max(BOUND_FACTOR x worst spread over gated workloads, floor), capped."""
    bounds = {}
    for name in END_TO_END_NAMES:
        worst = max(
            spread_row([result[name] for result in results])[3]
            for workload, results in runs.items()
            if workload in GATED_WORKLOAD_NAMES
        )
        bounds[name] = min(
            BOUND_CEILING, max(BOUND_FACTOR * worst, BOUND_FLOOR))
    return bounds


def compare(path_a, path_b):
    """Second set against the first, judged by BENCHMARK.json's bounds."""
    with open(path_a, encoding="utf-8") as handle:
        first = json.load(handle)["runs"]
    with open(path_b, encoding="utf-8") as handle:
        second = json.load(handle)["runs"]
    bounds = {metric["name"]: metric["bound"] for metric in END_TO_END}
    better = {metric["name"]: metric["better"] for metric in END_TO_END}
    print(f"{'workload':<14}{'metric':<16}{'A median':>11}{'B median':>11}"
          f"{'B vs A':>9}{'bound':>8}  verdict")
    worse = 0
    for workload in first:
        if workload not in second:
            continue
        for name in END_TO_END_NAMES:
            a = statistics.median(r[name] for r in first[workload])
            b = statistics.median(r[name] for r in second[workload])
            change = (b - a) / a
            loss = change if better[name] == "lower" else -change
            verdict = "ok"
            if loss > bounds[name]:
                verdict = "WORSE than the bound"
                worse += workload in GATED_WORKLOAD_NAMES
            elif abs(change) > 0.10:
                verdict = "differs by more than a tenth"
            print(f"{workload:<14}{name:<16}{_number(a):>11}{_number(b):>11}"
                  f"{change:>+9.1%}{bounds[name]:>8.0%}  {verdict}")
    return 1 if worse else 0


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def _values(result):
    return {n: entry["value"] for n, entry in result["metrics"].items()}


def driver_mode(args):
    """One workload, once; the last stdout line is the result object."""
    import harness
    import inputs

    spec = inputs.SPECS[args.workload]
    if args.trace:
        result = harness.run_traced(spec, args.seed, args.seconds, args.quick)
        print_metrics(f"{spec.name} per-layer", result, PER_LAYER_NAMES)
        print_waterfall(spec.name, result)
    else:
        result = harness.run_end_to_end(
            spec, args.seed, args.seconds, args.quick)
        print_metrics(f"{spec.name} end-to-end", result, END_TO_END_NAMES)
    print_detail(result)
    print(json.dumps({
        key: result[key]
        for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0


def repeat_mode(args, workloads):
    """N end-to-end runs per workload on consecutive seeds."""
    import harness
    import inputs

    runs = {}
    segments = {}  # per run, what each window segment read (diagnostic)
    failed = 0
    for workload in workloads:
        runs[workload] = []
        segments[workload] = []
        for offset in range(args.repeat):
            result = harness.run_end_to_end(
                inputs.SPECS[workload], args.seed + offset, args.seconds,
                args.quick)
            failed += result["failed"]
            runs[workload].append(_values(result))
            segments[workload].append(result["detail"]["segments"])
            print(f"{workload} seed {args.seed + offset}: "
                  + "  ".join(f"{n}={_number(v)}"
                              for n, v in runs[workload][-1].items()),
                  flush=True)
    print_noise(runs)
    print(f"\nbounds from this set (max({BOUND_FACTOR:g} x worst spread, "
          f"{BOUND_FLOOR:g}), capped at {BOUND_CEILING:g}):")
    for name, bound in suggest_bounds(runs).items():
        print(f"  {name:<16}{bound:.3f}")
    output = args.output or os.path.join(
        paths.OUT, f"repeat_{int(time.time())}.json")
    os.makedirs(os.path.dirname(os.path.abspath(output)), exist_ok=True)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump({"seed": args.seed, "seconds": args.seconds,
                   "runs": runs, "segments": segments}, handle, indent=1)
    print(f"\nwrote {output}")
    return 1 if failed else 0


def full_mode(args, workloads):
    """Every workload end to end, then traced; the human report."""
    import harness
    import inputs

    began = time.perf_counter()
    report = {}
    failed = 0
    for workload in workloads:
        spec = inputs.SPECS[workload]
        plain = harness.run_end_to_end(
            spec, args.seed, args.seconds, args.quick)
        print_metrics(f"{workload} end-to-end", plain, END_TO_END_NAMES)
        print_detail(plain)
        traced = harness.run_traced(spec, args.seed, args.seconds, args.quick)
        print_metrics(f"{workload} per-layer", traced, PER_LAYER_NAMES)
        print_waterfall(workload, traced)
        sys.stdout.flush()
        failed += plain["failed"] + traced["failed"]
        report[workload] = {"end_to_end": plain, "traced": traced}
    os.makedirs(paths.OUT, exist_ok=True)
    output = args.output or os.path.join(paths.OUT, "report.json")
    with open(output, "w", encoding="utf-8") as handle:
        json.dump({"seed": args.seed, "seconds": args.seconds,
                   "quick": args.quick, "workloads": report}, handle,
                  indent=1)
    print(f"\nwrote {output}; total {time.perf_counter() - began:.1f} s; "
          f"failed operations {failed}")
    return 1 if failed else 0


def pin_mode(args):
    """Regenerate expected_digests.json for the default seed and window."""
    import inputs

    pinned = {"corpus": {}, "pool": {}, "sequence": {}}
    trees = {}
    for spec in inputs.SPECS.values():
        for corpus in (spec.corpus, spec.corpus_b):
            if corpus and corpus not in trees:
                trees[corpus] = inputs.make_tree(corpus)
                pinned["corpus"][corpus] = inputs.corpus_sha(trees[corpus])
    indexes = {}
    for spec in inputs.SPECS.values():
        if spec.corpus not in indexes:
            from repro import build_document_index
            indexes[spec.corpus] = build_document_index(trees[spec.corpus])
        sequence = inputs.build_sequence(
            spec, indexes[spec.corpus], DEFAULT_SEED, DEFAULT_SECONDS)
        if not spec.traffic:
            pinned["pool"][spec.corpus] = inputs.json_sha(sequence.queries)
        pinned["sequence"][spec.name] = {
            "seed": DEFAULT_SEED, "seconds": DEFAULT_SECONDS,
            "sha": inputs.sequence_sha(sequence),
        }
    with open(paths.EXPECTED_DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(json.dumps(pinned, indent=1, sort_keys=True))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("command", nargs="?", choices=("compare", "pin"))
    parser.add_argument("files", nargs="*", help="compare: A.json B.json")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver form: 0 end-to-end, 1 per-layer")
    parser.add_argument("--quick", action="store_true",
                        help="tiny windows and a shrunk large corpus")
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="N end-to-end runs per workload; print noise")
    parser.add_argument("--output", help="where to write the JSON report")
    args = parser.parse_args(argv)
    if args.command == "compare" and len(args.files) != 2:
        parser.error("compare takes exactly two result files")
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    if args.seconds == int(args.seconds):
        args.seconds = int(args.seconds)  # the pinned digests key on it
    return args


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.command == "compare":
        return compare(*args.files)
    paths.prepare()
    import harness
    import inputs

    try:
        if args.command == "pin":
            return pin_mode(args)
        workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
        if args.repeat:
            return repeat_mode(args, workloads)
        if args.workload and args.trace is not None:
            return driver_mode(args)
        return full_mode(args, workloads)
    except inputs.InputDrift as drift:
        print(f"benchmark: {drift}", file=sys.stderr)
        return 3
    except harness.RunFailed as failure:
        print(f"benchmark: {failure}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
