"""Retained-memory census: what the engine still holds after the pool.

The memory counterpart of the timing waterfall.  Each corpus is built
and frozen, then, under ``tracemalloc``, the snapshot is opened, an
engine is built over it (result caches off, as in ``cold_large``) and
the wire benchmark's pool — 200 queries of
``WorkloadGenerator(seed=23)``, 60 % needing refinement — is answered
once.  What is still allocated afterwards is printed by allocation
site (``file:line``), largest first.

Two sites are gated, on every run:

* ``index/cooccur.py`` retains nothing beyond its count memo (the
  dict, its keys, any count past the small-int cache) and the Formula-7
  confidences it computed, which the score memo keeps;
* ``InvertedList.ancestor_keys`` retains nothing: ``f_{ki,kj}^T`` is a
  merge over the posting columns, and no ancestor set outlives it.

Corpora: ``small`` (DBLP, 300 authors, seed 7) and ``large``
(``corpus_for_nodes(60_000, seed=29)``; 12,000 nodes with ``--smoke``,
its size under the wire benchmark's ``--quick``) — the wire benchmark's
recipes.

Usage::

    PYTHONPATH=src python benchmarks/bench_memory.py           # small, large
    PYTHONPATH=src python benchmarks/bench_memory.py --smoke   # large: 12k
    PYTHONPATH=src python benchmarks/bench_memory.py --corpus large --top 30
"""

from __future__ import annotations

import argparse
import gc
import inspect
import os
import sys
import tempfile
import tracemalloc

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)

from repro import XRefine, build_document_index  # noqa: E402
from repro.datasets import generate_dblp  # noqa: E402
from repro.datasets.scaling import corpus_for_nodes  # noqa: E402
from repro.index import cooccur, freeze_index, load_frozen_index  # noqa: E402
from repro.index.inverted import InvertedList  # noqa: E402
from repro.kernels import backend_name  # noqa: E402
from repro.workload import WorkloadGenerator  # noqa: E402

POOL_SEED = 23
POOL_SIZE = 200


def make_tree(corpus, quick):
    if corpus == "small":
        return generate_dblp(num_authors=300, seed=7)
    return corpus_for_nodes(12_000 if quick else 60_000, seed=29)


def build_pool(index, size=POOL_SIZE):
    generator = WorkloadGenerator(index, seed=POOL_SEED)
    return [
        list((generator.refinable_query() if position % 5 < 3
              else generator.clean_query()).query)
        for position in range(size)
    ]


def cooccur_memo_bytes(index):
    """The bytes ``index/cooccur.py`` is meant to leave behind."""
    counts = index.cooccurrence._counts
    memo = sys.getsizeof(counts) + sum(
        sys.getsizeof(key) + (sys.getsizeof(value) if value > 256 else 0)
        for key, value in counts.items()
    )
    pair = index.score_memo.pair if index.score_memo is not None else {}
    return memo + sum(map(sys.getsizeof, pair.values()))


def census(corpus, quick, workdir):
    """``(rows, gate)`` for one corpus: retained bytes and blocks per
    site, largest first, and the two gated figures."""
    tree = make_tree(corpus, quick)
    built = build_document_index(tree)
    pool = build_pool(built)
    path = os.path.join(workdir, f"{corpus}.frz")
    freeze_index(built, path)
    del built, tree

    gc.collect()
    tracemalloc.start()
    try:
        index = load_frozen_index(path)
        engine = XRefine(index, cache_size=0)
        for query in pool:
            engine.search(query, k=2)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()

    cooccur_file = inspect.getsourcefile(cooccur)
    lines, first = inspect.getsourcelines(InvertedList.ancestor_keys)
    ancestor_site = (inspect.getsourcefile(InvertedList),
                     range(first, first + len(lines)))
    cooccur_bytes = ancestor_bytes = 0
    for trace in snapshot.traces:
        frame = trace.traceback[0]
        if frame.filename == cooccur_file:
            cooccur_bytes += trace.size
        elif (frame.filename == ancestor_site[0]
              and frame.lineno in ancestor_site[1]):
            ancestor_bytes += trace.size
    gate = {
        "cooccur_bytes": cooccur_bytes,
        "cooccur_memo_bytes": cooccur_memo_bytes(index),
        "ancestor_keys_bytes": ancestor_bytes,
    }
    rows = [
        (_site(stat.traceback[0]), stat.size, stat.count)
        for stat in snapshot.statistics("lineno")
    ]
    index.frozen_snapshot.close()
    return rows, gate


def _site(frame):
    """``file:line``, the file relative to ``src/`` or site-packages."""
    filename = os.path.abspath(frame.filename)
    roots = (os.path.abspath(SRC) + os.sep, f"{os.sep}site-packages{os.sep}")
    for root in roots:
        if root in filename:
            filename = filename.split(root, 1)[1]
            break
    return f"{filename}:{frame.lineno}"


def report(corpus, rows, gate, top):
    total = sum(size for _, size, _ in rows)
    print(f"{corpus}: {total / 2**20:.2f} MB retained in "
          f"{sum(count for _, _, count in rows):,} blocks")
    print(f"  {'site':<44} {'KB':>9} {'blocks':>8}")
    for site, size, count in rows[:top]:
        print(f"  {site:<44} {size / 1024:9.1f} {count:8,}")
    excess = gate["cooccur_bytes"] - gate["cooccur_memo_bytes"]
    print(f"  index/cooccur.py: {gate['cooccur_bytes'] / 1024:.1f} KB "
          f"retained, its count memo and confidences "
          f"{gate['cooccur_memo_bytes'] / 1024:.1f} KB")
    print(f"  InvertedList.ancestor_keys: "
          f"{gate['ancestor_keys_bytes'] / 1024:.1f} KB retained")
    failures = []
    if excess > 0:
        failures.append(
            f"{corpus}: index/cooccur.py retains {excess} B beyond its "
            "count memo"
        )
    if gate["ancestor_keys_bytes"]:
        failures.append(
            f"{corpus}: InvertedList.ancestor_keys retains "
            f"{gate['ancestor_keys_bytes']} B"
        )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], allow_abbrev=False
    )
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized: the large corpus at its --quick "
                             "size, 12,000 nodes")
    parser.add_argument("--corpus", nargs="+", choices=("small", "large"),
                        default=["small", "large"])
    parser.add_argument("--top", type=int, default=15,
                        help="allocation sites printed per corpus")
    args = parser.parse_args(argv)
    print(f"kernels: {backend_name()}; pool: {POOL_SIZE} queries, "
          f"seed {POOL_SEED}")
    failures = []
    with tempfile.TemporaryDirectory() as workdir:
        for corpus in args.corpus:
            rows, gate = census(corpus, args.smoke, workdir)
            failures += report(corpus, rows, gate, args.top)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK: the co-occurrence table retains only its counts")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
