"""Bibliographic search over a DBLP-scale synthetic corpus.

The paper's flagship workload: keyword search over a large
bibliography where queries routinely fail because the user's
vocabulary ("publication") differs from the data's ("inproceedings"),
years are fat-fingered, or compound terms are split.  This example:

1. generates a synthetic DBLP corpus and builds the full index;
2. runs a mixed batch of clean and dirty scholar queries, printing the
   Top-3 refinements with their matching publications;
3. demonstrates the Top-K knob and the scan statistics (one-scan
   evaluation, DP invocations, partition pruning).

Run with::

    python examples/bibliographic_search.py
"""

from __future__ import annotations

from repro import XRefine
from repro.datasets import generate_dblp
from repro.index import build_document_index

QUERIES = [
    # (query, why it is interesting)
    ("database query optimization", "likely direct hit"),
    ("databse query", "misspelled 'database'"),
    ("machinelearning kernel", "glued compound"),
    ("key word search engine", "mistakenly split compound"),
    ("xml publication 2005", "synonym mismatch ('publication')"),
    ("skyline computation smith 1993", "over-constrained"),
]


def describe_result(engine, dewey):
    node = engine.node(dewey)
    return f"{node.label()}  {node.subtree_text()[:56]}"


def main():
    print("generating synthetic DBLP corpus...")
    tree = generate_dblp(num_authors=400, seed=7)
    print(f"  {len(tree)} nodes, {len(tree.partitions())} author partitions")
    index = build_document_index(tree)
    engine = XRefine(index)
    print(f"  vocabulary: {index.inverted.vocabulary_size()} keywords\n")

    for query, why in QUERIES:
        print(f"query: {query!r}   ({why})")
        response = engine.search(query, k=3)
        print(
            f"  search-for candidates: "
            f"{[c.node_type[-1] for c in response.search_for]}"
        )
        if not response.needs_refinement:
            print(f"  direct hit: {len(response.original_results)} results")
            for dewey in response.original_results[:2]:
                print(f"    {describe_result(engine, dewey)}")
        else:
            for rank, refinement in enumerate(response.refinements, 1):
                print(
                    f"  #{rank} {{{' '.join(refinement.rq.keywords)}}}"
                    f" dSim={refinement.rq.dissimilarity}"
                    f" results={refinement.result_count}"
                )
                for dewey in refinement.slcas[:1]:
                    print(f"      {describe_result(engine, dewey)}")
        stats = response.stats
        print(
            f"  stats: {stats.postings_scanned} postings scanned, "
            f"{stats.dp_invocations} DP calls, "
            f"{stats.partitions_visited} partitions visited, "
            f"{stats.partitions_skipped} pruned, "
            f"{stats.elapsed_seconds * 1000:.1f} ms"
        )
        print()

    # Compare the three fixed algorithms (and the default) on one
    # dirty query.  "auto" is Algorithm 3 and returns the same answer;
    # explain=True names the route, and says when the result cache
    # answered (auto shares its entry with sle).
    query = "informaton retrieval relevance"
    print(f"algorithm comparison on {query!r}:")
    for algorithm in ("stack", "sle", "partition", "auto"):
        response = engine.search(
            query, k=1, algorithm=algorithm, explain=True
        )
        best = response.best
        label = " ".join(best.rq.keywords) if best else "(none)"
        plan = response.plan
        routed = f" (route {plan.executed}{', cached' if plan.cached else ''})"
        print(
            f"  {algorithm:>9}: best={{{label}}} "
            f"in {response.stats.elapsed_seconds * 1000:.1f} ms{routed}"
        )


if __name__ == "__main__":
    main()
