"""Index lifecycle: freeze to disk, reopen, update, persist the change.

Shows the operational side of the engine: build once, freeze the full
index into one snapshot file, reopen it (an mmap, nothing re-parsed or
decoded up front), absorb new entities and retire old ones without a
rebuild, persist exactly that session's changes as a delta on the
snapshot, and fold the chain back into one file.

Run with::

    python examples/index_maintenance.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro import XRefine
from repro.datasets import generate_dblp
from repro.index import (
    append_partition,
    build_document_index,
    compact,
    freeze_index,
    load_frozen_index,
    load_index_chain,
    remove_partition,
    save_delta,
)


def show_query(engine, query):
    response = engine.search(query, k=1)
    if response.needs_refinement:
        best = response.best
        if best is None:
            print(f"  {query!r}: no refinement exists")
        else:
            print(
                f"  {query!r}: refined to {{{' '.join(best.rq.keywords)}}} "
                f"({best.result_count} results)"
            )
    else:
        print(f"  {query!r}: {len(response.original_results)} direct results")


def main():
    print("building corpus + index...")
    tree = generate_dblp(num_authors=250, seed=7)
    started = time.perf_counter()
    index = build_document_index(tree)
    build_seconds = time.perf_counter() - started
    print(
        f"  {len(tree)} nodes, {index.inverted.vocabulary_size()} keywords "
        f"in {build_seconds:.2f}s"
    )

    with tempfile.TemporaryDirectory() as workdir:
        base = Path(workdir) / "corpus.frz"
        delta = Path(workdir) / "corpus.d1.dlt"
        compacted = Path(workdir) / "corpus.v2.frz"

        print(f"\nfreezing index to {base.name} ...")
        freeze_index(index, base)
        print(f"  {base.name:<16} {base.stat().st_size:>9} bytes")

        print("\nreopening without re-parsing...")
        started = time.perf_counter()
        reopened = load_frozen_index(base)
        print(f"  opened in {time.perf_counter() - started:.3f}s")
        engine = XRefine(reopened)
        show_query(engine, "database query")
        show_query(engine, "tardigrade genomics")  # not in corpus yet

        print("\nappending a new author (no rebuild)...")
        append_partition(
            reopened,
            (
                "author",
                None,
                [
                    ("name", "grace hopper"),
                    (
                        "publications",
                        None,
                        [
                            (
                                "inproceedings",
                                None,
                                [
                                    ("title", "tardigrade genomics database"),
                                    ("booktitle", "sigmod"),
                                    ("year", "2007"),
                                ],
                            )
                        ],
                    ),
                ],
            ),
        )
        engine = XRefine(reopened)  # refresh the rule miner's vocabulary
        show_query(engine, "tardigrade genomics")
        show_query(engine, "tardigrade genomic")  # stemming refinement
        # Evaluations per route; every default search ran SLE.
        planner = engine.cache_stats()["planner"]
        print(
            f"  planner: routed {planner['routed']}, "
            f"{planner['dp_memos']} DP memo identities"
        )

        print("\nremoving the first author...")
        first = reopened.tree.partitions()[0]
        removed_name = next(
            (c.text for c in first.children if c.tag == "name"), "?"
        )
        remove_partition(reopened, first.dewey)
        print(f"  removed author {removed_name!r}")
        engine = XRefine(reopened)
        show_query(engine, removed_name.split()[0])

        print("\npersisting the session's changes as a delta...")
        save_delta(reopened, delta, base)
        print(f"  {delta.name:<16} {delta.stat().st_size:>9} bytes")
        chained = load_index_chain(delta)
        print(
            f"  chain top: {len(chained.tree)} nodes, "
            f"{chained.inverted.vocabulary_size()} keywords"
        )
        assert chained.has_keyword("tardigrade")

        print("\ncompacting the chain into one snapshot...")
        layers = compact(delta, compacted)
        final = load_frozen_index(compacted)
        print(
            f"  folded {layers} delta layer(s) -> {compacted.name} "
            f"({compacted.stat().st_size} bytes, {len(final.tree)} nodes)"
        )
        assert final.has_keyword("tardigrade")


if __name__ == "__main__":
    main()
