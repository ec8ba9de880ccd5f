"""Capture script for ``build_stats_golden.json`` (what the builder makes).

:func:`repro.index.build_document_index` produces the frequency table
(``f_k^T`` and ``tf(k, T)`` per keyword and type), the per-type
statistics (``N_T``, ``G_T``, term total) and the inverted lists.  This
script reduces each of the three to one sha256 over its rows, for two
corpora, so a rewrite of the build pass can be held to the exact output
of the one before it.  Re-run it only at a commit whose build output is
the intended contract::

    PYTHONPATH=src python -m tests.index.capture_build_stats
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.datasets import generate_dblp
from repro.datasets.scaling import corpus_for_nodes
from repro.index import build_document_index

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "build_stats_golden.json"
)

#: How each corpus is made; the golden file records it, and the test
#: refuses a file captured from another recipe.
RECIPE = {
    "small": "generate_dblp(num_authors=300, seed=7)",
    "large": "corpus_for_nodes(12_000, seed=29)",
}


def make_tree(corpus):
    if corpus == "small":
        return generate_dblp(num_authors=300, seed=7)
    return corpus_for_nodes(12_000, seed=29)


def _digest(rows):
    """sha256 of JSON rows, one per line, in the order given."""
    sha = hashlib.sha256()
    for row in rows:
        sha.update(json.dumps(row).encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def measure(index):
    """``{name: {"rows": n, "sha256": hex}}`` for one built index.

    * ``frequency`` — sorted ``(keyword, type, f_k^T, tf)`` rows;
    * ``statistics`` — sorted ``(type, N_T, G_T, term total)`` rows;
    * ``lists`` — the interned type table, then per keyword (sorted)
      its decoded ``(flat, offs, tids, counts)`` arrays.  The type ids
      are pinned with the table they index.
    """
    keywords = index.inverted.keywords()
    frequency = sorted(
        (keyword, "/".join(node_type), df, tf)
        for keyword in keywords
        for node_type, df, tf in index.frequency.types_for(keyword)
    )
    statistics = sorted(
        ("/".join(node_type), entry.node_count, entry.distinct_keywords,
         entry.total_terms)
        for node_type, entry in index.statistics.items()
    )
    lists = [["/".join(node_type)
              for node_type in index.inverted.node_type_table]]
    for keyword in keywords:
        flat, offs, tids, counts = index.inverted.get(keyword).arrays()[:4]
        lists.append([keyword, flat.tolist(), offs.tolist(), tids.tolist(),
                      counts.tolist()])
    return {
        name: {"rows": len(rows), "sha256": _digest(rows)}
        for name, rows in (("frequency", frequency),
                           ("statistics", statistics), ("lists", lists))
    }


def main():
    corpora = {
        corpus: measure(build_document_index(make_tree(corpus)))
        for corpus in RECIPE
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump({"recipe": RECIPE, "corpora": corpora}, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(corpora)} corpora to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
