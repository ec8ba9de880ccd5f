"""Capture script for ``partition_counters_golden.json`` (Partition's ScanStats).

Partition (Algorithm 2) reports the counters its three Section VI-B
optimisations are observed by: partitions visited and skipped, one DP
call per partition, the partition-local SLCA computations.  This
script records them — every ``ScanStats`` field but
``elapsed_seconds``, plus the answer — with the skip bound on and off,
for ``capture_sle_counters``'s corpus and workload.  Each query runs
through the engine's normalisation, its auto-mined rules and the DP
memos of its identity, as ``algorithm="partition"`` does.  Re-run it
only at a commit whose counters are the intended contract::

    PYTHONPATH=src python -m tests.core.capture_partition_counters

The eager index and its frozen snapshot are both measured; each has its
own entry.
"""

from __future__ import annotations

import json
import os
import tempfile

from repro import XRefine
from repro.core import partition_refine

from .capture_sle_counters import (
    RECIPE, answer_digest, build_index, load_frozen, workload,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "partition_counters_golden.json",
)

#: ``skip_optimization`` values measured, in capture order.
SKIPS = (True, False)


def measure(index, queries):
    """``[(query, k, skip, counters, digest), ...]`` under Partition."""
    engine = XRefine(index, cache_size=0)
    rows = []
    for query in queries:
        terms = engine.normalize(query)
        rules = engine.mine_rules(terms)
        for k in RECIPE["ks"]:
            memos = index.derived.dp_memos(terms, rules, max(2 * k, 2))
            for skip in SKIPS:
                response = partition_refine(
                    index, terms, rules=rules, model=engine.model, k=k,
                    skip_optimization=skip, dp_memos=memos[:2],
                )
                counters = response.stats.as_dict()
                del counters["elapsed_seconds"]
                rows.append(
                    (query, k, skip, counters, answer_digest(response))
                )
    return rows


def main():
    index = build_index()
    queries = workload(index)
    eager = measure(index, queries)
    with tempfile.TemporaryDirectory() as directory:
        frozen = measure(load_frozen(index, directory), queries)
    cases = []
    for (query, k, skip, counters, digest), (*_, f_counters, f_digest) in zip(
        eager, frozen
    ):
        assert digest == f_digest, (query, k, skip)
        cases.append({
            "query": query, "k": k, "skip_optimization": skip,
            "answer": digest, "eager": counters, "frozen": f_counters,
        })
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        # One case per line keeps the fixture diffable.
        handle.write('{"recipe": %s,\n"cases": [\n' % json.dumps(RECIPE))
        handle.write(",\n".join(json.dumps(case) for case in cases))
        handle.write("\n]}\n")
    print(f"wrote {len(cases)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
