"""Batch dirty-query cleaning with effectiveness scoring.

Runs a pool of corrupted queries (each with the clean intent it was
derived from) through XRefine and measures how often the automatic
refinement would have saved the user the second try — the end-to-end
value proposition of the paper.  Also demonstrates the evaluation
toolkit: the judge panel, cumulated gain, and per-operation breakdown.

Run with::

    python examples/dirty_query_cleaning.py
"""

from __future__ import annotations

from collections import defaultdict

from repro import XRefine
from repro.datasets import generate_dblp
from repro.eval import JudgePanel, average_cg
from repro.index import build_document_index
from repro.workload import WorkloadGenerator


def main():
    print("building corpus + workload...")
    tree = generate_dblp(num_authors=300, seed=7)
    index = build_document_index(tree)
    engine = XRefine(index)
    workload = WorkloadGenerator(index, seed=4242)
    pool = workload.pool(refinable=40, clean=10)
    panel = JudgePanel(n=6, seed=77)

    saved_at_1 = 0
    saved_at_3 = 0
    refinable_total = 0
    gain_vectors = []
    by_kind = defaultdict(lambda: [0, 0])  # kind -> [saved@3, total]

    for pool_query in pool:
        response = engine.search(pool_query.query, k=4)
        if not pool_query.refinable:
            assert not response.needs_refinement
            continue
        refinable_total += 1
        keys = [r.rq.key for r in response.refinements]
        intent_key = frozenset(pool_query.intent)
        if keys and keys[0] == intent_key:
            saved_at_1 += 1
        if intent_key in keys[:3]:
            saved_at_3 += 1
        for kind in pool_query.kinds:
            by_kind[kind][1] += 1
            if intent_key in keys[:3]:
                by_kind[kind][0] += 1
        gain_vectors.append(
            panel.gain_vector(
                response.refinements,
                pool_query.intent,
                pool_query.intent_results,
            )
        )

    print(f"\nreplayed {refinable_total} failing queries:")
    print(
        f"  intent recovered at rank 1: "
        f"{saved_at_1}/{refinable_total} "
        f"({saved_at_1 / refinable_total:.0%})"
    )
    print(
        f"  intent recovered in top 3 : "
        f"{saved_at_3}/{refinable_total} "
        f"({saved_at_3 / refinable_total:.0%})"
    )
    print("\nper error class (recovered@3 / total):")
    for kind, (saved, total) in sorted(by_kind.items()):
        print(f"  {kind:>14}: {saved}/{total}")
    print("\njudge-panel cumulated gain over the batch:")
    for cutoff in (1, 2, 3, 4):
        print(f"  CG[{cutoff}] = {average_cg(gain_vectors, cutoff):.3f}")


if __name__ == "__main__":
    main()
