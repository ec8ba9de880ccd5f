"""Capture script for ``sle_counters_golden.json`` (fixed-``sle`` ScanStats).

The counters SLE reports are part of its contract: the wire ``stats``
block and the e2e benchmark's per-layer table read them, and since
``algorithm="auto"`` is SLE they are every default request's.  This script records them for a seeded
corpus and workload; ``test_sle_counters.py`` replays the same recipe
and compares.  Re-run it only at a commit whose counters are the
intended contract::

    PYTHONPATH=src python tests/core/capture_sle_counters.py

Two views of the same corpus are captured: the eager index built from
the tree and its frozen snapshot loaded back.  On the frozen view only
the counters that did not depend on which probe ran are kept — the
golden file was captured when a snapshot's posting lists were cut into
blocks whose headers a probe could read without decoding the list; see
the test module.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from repro import XRefine
from repro.datasets import generate_dblp
from repro.index import build_document_index, freeze_index, load_frozen_index
from repro.workload import WorkloadGenerator

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "sle_counters_golden.json"
)

#: ``block_size`` records how the ``frozen`` entries were captured; unread.
RECIPE = {
    "num_authors": 240, "corpus_seed": 17, "workload_seed": 41,
    "refinable": 36, "clean": 24, "ks": [1, 2, 5], "block_size": 16,
}

#: Counters that do not depend on which probe (header-first or batch)
#: examined a partition.
PROBE_INDEPENDENT = (
    "partitions_visited", "dp_invocations", "slca_invocations",
)


def build_index():
    return build_document_index(generate_dblp(
        num_authors=RECIPE["num_authors"], seed=RECIPE["corpus_seed"]
    ))


def load_frozen(index, directory):
    """``index`` frozen and loaded back."""
    path = os.path.join(directory, "counters.frz")
    freeze_index(index, path)
    return load_frozen_index(path)


def workload(index):
    generator = WorkloadGenerator(index, seed=RECIPE["workload_seed"])
    return [
        list(entry.query) for entry in generator.pool(
            refinable=RECIPE["refinable"], clean=RECIPE["clean"]
        )
    ]


def answer_digest(response):
    """What the caller sees, minus float scores (hash-seed sensitive)."""
    surface = [
        list(response.query),
        response.needs_refinement,
        [str(label) for label in response.original_results],
        [
            [list(r.rq.keywords), r.rq.dissimilarity,
             [str(label) for label in r.slcas]]
            for r in response.refinements
        ],
    ]
    encoded = json.dumps(surface, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:16]


def measure(index, queries):
    """``[(query, k, counters, digest), ...]`` under fixed ``sle``."""
    engine = XRefine(index, cache_size=0)
    rows = []
    for query in queries:
        for k in RECIPE["ks"]:
            response = engine.search(query, k=k, algorithm="sle")
            counters = response.stats.as_dict()
            del counters["elapsed_seconds"]
            rows.append((query, k, counters, answer_digest(response)))
    return rows


def main():
    index = build_index()
    queries = workload(index)
    eager = measure(index, queries)
    with tempfile.TemporaryDirectory() as directory:
        frozen = measure(load_frozen(index, directory), queries)
    cases = []
    for (query, k, counters, digest), (_, _, f_counters, f_digest) in zip(
        eager, frozen
    ):
        assert digest == f_digest, (query, k)
        cases.append({
            "query": query, "k": k, "answer": digest, "eager": counters,
            "frozen": {name: f_counters[name] for name in PROBE_INDEPENDENT},
        })
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        # One case per line keeps the fixture diffable.
        handle.write('{"recipe": %s,\n"cases": [\n' % json.dumps(RECIPE))
        handle.write(",\n".join(json.dumps(case) for case in cases))
        handle.write("\n]}\n")
    print(f"wrote {len(cases)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
