"""Capture script for ``mined_rules_golden.json`` (the mined ``RuleSet``s).

Which rules a query is refined with decides every answer it gets, so
the rule miner's output is pinned rule for rule — ``lhs``, ``rhs``,
operation and ``ds``, in mining order, which the refinement DP depends
on at equal cost.  The query sets are the wire benchmark's
(``benchmarks/e2e/inputs.py``), rebuilt here from the same generators:

* ``small_pool`` / ``large_pool`` — the 200-query pool of each corpus
  (``WorkloadGenerator(index, seed=23)``: three refinable queries in
  every five, two clean);
* ``replay_universe`` — the 2,000 distinct queries ``replay_mixed``
  draws its traffic log from, on the small corpus.

``test_mined_rules_golden.py`` replays the recipe and compares.  Re-run
this only at a commit whose mined rules are the intended contract::

    PYTHONPATH=src python tests/lexicon/capture_mined_rules.py
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.datasets import generate_dblp
from repro.datasets.scaling import corpus_for_nodes
from repro.index import build_document_index
from repro.index.tokenize_text import query_terms
from repro.lexicon import RuleMiner
from repro.workload import WorkloadGenerator, synthesize_traffic

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "mined_rules_golden.json"
)

#: The e2e benchmark's corpus, pool and traffic recipes.
RECIPE = {
    "small": {"num_authors": 300, "seed": 7},
    "large": {"nodes": 60_000, "seed": 29},
    "pool_seed": 23, "pool_size": 200,
    "traffic_seed": 23, "universe": 2000,
}

#: Query set -> the corpus it is mined against.
SETS = {
    "small_pool": "small",
    "large_pool": "large",
    "replay_universe": "small",
}


def build_index(corpus):
    if corpus == "small":
        tree = generate_dblp(
            num_authors=RECIPE["small"]["num_authors"],
            seed=RECIPE["small"]["seed"],
        )
    else:
        tree = corpus_for_nodes(
            RECIPE["large"]["nodes"], seed=RECIPE["large"]["seed"]
        )
    return build_document_index(tree)


def pool(index):
    generator = WorkloadGenerator(index, seed=RECIPE["pool_seed"])
    return [
        list((generator.refinable_query() if position % 5 < 3
              else generator.clean_query()).query)
        for position in range(RECIPE["pool_size"])
    ]


def replay_universe(index):
    # The universe is drawn before any log entry, so a one-entry log
    # has the same universe as the benchmark's long one.
    traffic = synthesize_traffic(
        index, entries=1, unique_queries=RECIPE["universe"], phases=1,
        noise_share=0.25, chain_probability=0.5,
        seed=RECIPE["traffic_seed"],
    )
    return [list(query) for query in traffic.universe]


def queries_for(name, index):
    return replay_universe(index) if name == "replay_universe" else pool(index)


def queries_sha(queries):
    """The e2e benchmark's ``json_sha`` of a query list."""
    return hashlib.sha256(
        json.dumps(queries, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def mine(miner, queries):
    """``[[terms, deletion_cost, [[lhs, rhs, op, ds], ...]], ...]``."""
    cases = []
    for query in queries:
        terms = list(query_terms(query))
        rules = miner.mine(terms)
        cases.append([terms, rules.deletion_cost, [
            [list(rule.lhs), list(rule.rhs), rule.operation, rule.ds]
            for rule in rules
        ]])
    return cases


def capture():
    """``{set name: {"queries_sha": ..., "cases": [...]}}``."""
    indexes = {}
    captured = {}
    for name, corpus in SETS.items():
        if corpus not in indexes:
            indexes[corpus] = build_index(corpus)
        index = indexes[corpus]
        queries = queries_for(name, index)
        miner = RuleMiner(index.inverted.keywords())
        captured[name] = {
            "queries_sha": queries_sha(queries),
            "cases": mine(miner, queries),
        }
    return captured


def main():
    captured = capture()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        # One query per line keeps the fixture diffable.
        handle.write('{"recipe": %s,\n"sets": {' % json.dumps(RECIPE))
        for position, (name, entry) in enumerate(captured.items()):
            handle.write(",\n" if position else "\n")
            handle.write('%s: {"queries_sha": %s, "cases": [\n' % (
                json.dumps(name), json.dumps(entry["queries_sha"])))
            handle.write(",\n".join(
                json.dumps(case, separators=(",", ":"))
                for case in entry["cases"]))
            handle.write("\n]}")
        handle.write("\n}}\n")
    total = sum(len(entry["cases"]) for entry in captured.values())
    print(f"wrote {total} rule sets to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
