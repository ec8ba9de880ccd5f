"""Capture script for ``stack_counters_golden.json`` (fixed-``stack`` ScanStats).

Stack-refine (Algorithm 1) is the paper's basic solution: one merged
scan over the extended keyword set's lists, one ``getOptimalRQ`` call
per popped witness-bearing node.  Its counters — postings scanned, DP
invocations, the exact SLCA passes of the finish — are the work
Fig. 4's counted shape is stated in, so they are pinned like SLE's.  The recipe
(corpus, workload) is ``capture_sle_counters``'s; stack answers Top-1
whatever ``k`` is asked, so one ``k`` is recorded.  Re-run it only at
a commit whose counters are the intended contract::

    PYTHONPATH=src python -m tests.core.capture_stack_counters

The eager index and its frozen snapshot are both measured and must
agree on every counter and on the answer.
"""

from __future__ import annotations

import json
import os
import tempfile

from repro import XRefine

from .capture_sle_counters import (
    RECIPE, answer_digest, build_index, load_frozen, workload,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "stack_counters_golden.json"
)

#: The ``k`` every query is asked with; stack-refine is Top-1.
K = 1


def measure(index, queries):
    """``[(query, counters, digest), ...]`` under fixed ``stack``."""
    engine = XRefine(index, cache_size=0)
    rows = []
    for query in queries:
        response = engine.search(query, k=K, algorithm="stack")
        counters = response.stats.as_dict()
        del counters["elapsed_seconds"]
        rows.append((query, counters, answer_digest(response)))
    return rows


def main():
    index = build_index()
    queries = workload(index)
    eager = measure(index, queries)
    with tempfile.TemporaryDirectory() as directory:
        frozen = measure(load_frozen(index, directory), queries)
    assert frozen == eager, "frozen and eager views disagree"
    cases = [
        {"query": query, "k": K, "answer": digest, "counters": counters}
        for query, counters, digest in eager
    ]
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        # One case per line keeps the fixture diffable.
        handle.write('{"recipe": %s,\n"cases": [\n' % json.dumps(RECIPE))
        handle.write(",\n".join(json.dumps(case) for case in cases))
        handle.write("\n]}\n")
    print(f"wrote {len(cases)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
