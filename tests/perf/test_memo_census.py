"""Every memo keyed by request input stays within its bound.

A search engine meets words it has never seen: typos and
out-of-vocabulary terms are normal input.  The census runs N searches,
each one fixed vocabulary word plus one new absent keyword, over a
frozen snapshot, and counts the entries of every memo a request can
key: the index's list cache and frequency memo, the co-occurrence
counts, the score memo, the miner's per-keyword memo, the DP memos,
the search-for memo, and the result and sub-result caches.  Each must
be within its bound, and N = 1,000 and N = 5,000 must leave the same
sizes: a memo that grows with the traffic rather than the snapshot
shows as a difference.  Nothing here is timed.

The same module checks the co-occurrence table by allocation site:
after the pool the wire benchmark serves (200 queries of
``WorkloadGenerator(seed=23)`` over the small corpus), tracemalloc
finds nothing retained by ``InvertedList.ancestor_keys``, and nothing
retained by ``index/cooccur.py`` beyond its count memo and the
confidences the score memo keeps.
"""

from __future__ import annotations

import gc
import inspect
import sys
import tracemalloc

import pytest

import repro.lexicon.mining as mining_module
from repro import XRefine, build_document_index
from repro.datasets import generate_dblp
from repro.index import freeze_index, load_frozen_index
from repro.index.inverted import InvertedList
from repro.workload import WorkloadGenerator

#: The small corpus and pool of the wire benchmark's ``small`` workloads.
SMALL_AUTHORS = 300
SMALL_SEED = 7
POOL_SEED = 23
POOL_SIZE = 200

#: The miner's per-keyword memo's default bound (2,048) exceeds the
#: smaller N, so the census lowers its module constant: both runs then
#: fill it.
KEYWORD_RULES_BOUND = 512
FIXED_WORD = "xml"


@pytest.fixture(scope="module")
def small_index():
    return build_document_index(
        generate_dblp(num_authors=SMALL_AUTHORS, seed=SMALL_SEED)
    )


@pytest.fixture(scope="module")
def snapshot(small_index, tmp_path_factory):
    path = tmp_path_factory.mktemp("census") / "small.frz"
    freeze_index(small_index, path)
    return path


def _absent(n):
    """The n-th new keyword: near no vocabulary word, so it mines no
    rule and brings no new vocabulary word into the query."""
    return f"qx{n:06d}zj"


def census(snapshot, searches):
    """Each request-keyed memo's ``(size, bound)`` after ``searches``."""
    index = load_frozen_index(snapshot)
    engine = XRefine(index)
    vocabulary = index.inverted.keywords()
    assert FIXED_WORD in vocabulary
    for n in range(searches):
        word = _absent(n)
        assert word not in index.inverted
        engine.search([FIXED_WORD, word], k=2)
    words = len(vocabulary)
    types = len(index.inverted.node_type_table)
    memo = index.score_memo
    memos = index.derived.stats()
    sizes = {
        "inverted lists": (len(index.inverted._cache), words),
        "frequency memo": (len(index.frequency._memo), words),
        "co-occurrence counts": (
            len(index.cooccurrence), words * words * types
        ),
        "score memo tf": (len(memo.tf), words * types),
        "score memo G_T": (len(memo.g), types),
        "score memo importance": (len(memo.importance), words * types),
        "score memo pair": (len(memo.pair), words * words * types),
        **{
            name: (memos[key]["size"], memos[key]["limit"])
            for name, key in (
                ("keyword rules memo", "keyword_rules"),
                ("DP memos", "dp"),
                ("search-for memo", "search_for"),
                ("search-for need columns", "need"),
            )
        },
        "result cache": (
            len(engine.result_cache), engine.result_cache.maxsize
        ),
        "sub-result cache": (
            len(engine.subresult_cache), engine.subresult_cache.maxsize
        ),
    }
    return sizes


def test_memos_are_bounded_by_the_snapshot(snapshot, monkeypatch):
    monkeypatch.setattr(
        mining_module, "KEYWORD_MEMO_LIMIT", KEYWORD_RULES_BOUND
    )
    few = census(snapshot, 1_000)
    many = census(snapshot, 5_000)
    assert [
        many[name][1] for name in (
            "keyword rules memo", "DP memos",
            "search-for memo", "search-for need columns",
        )
    ] == [KEYWORD_RULES_BOUND, 512, 1024, 1024]
    for name, (size, bound) in many.items():
        assert size <= bound, (name, size, bound)
    assert {name: size for name, (size, _) in few.items()} == {
        name: size for name, (size, _) in many.items()
    }


def test_absent_keyword_leaves_no_entry(snapshot):
    index = load_frozen_index(snapshot)
    engine = XRefine(index)
    engine.search([FIXED_WORD, "qzxjqzxj"], k=2)
    assert "qzxjqzxj" not in index.inverted._cache
    assert "qzxjqzxj" not in index.frequency._memo
    assert index.frequency.xml_df("qzxjqzxj", ("dblp",)) == 0
    assert index.frequency.types_for("qzxjqzxj") == []
    assert "qzxjqzxj" not in index.frequency._memo
    # Before and after the vocabulary is known, the same shared list.
    fresh = load_frozen_index(snapshot).inverted
    absent = fresh.get("qzxjqzxj")
    assert len(absent) == 0 and fresh.get("qzxjqzxj") is absent
    fresh.keywords()
    assert fresh.get("qzxjqzxj") is absent
    assert fresh._cache == {}


def _memo_bytes(index):
    """What the co-occurrence table is meant to leave behind: its count
    memo (the dict, its keys, any count too large to be a shared small
    int) and the Formula-7 confidences it computed, which the score
    memo keeps."""
    counts = index.cooccurrence._counts
    memo = sys.getsizeof(counts) + sum(
        sys.getsizeof(key) + (sys.getsizeof(value) if value > 256 else 0)
        for key, value in counts.items()
    )
    return memo + sum(map(sys.getsizeof, index.score_memo.pair.values()))


def test_cooccurrence_retains_only_its_counts(small_index, snapshot):
    generator = WorkloadGenerator(small_index, seed=POOL_SEED)
    pool = [
        list((generator.refinable_query() if position % 5 < 3
              else generator.clean_query()).query)
        for position in range(POOL_SIZE)
    ]
    lines, first = inspect.getsourcelines(InvertedList.ancestor_keys)
    ancestor_lines = range(first, first + len(lines))
    cooccur_file = inspect.getsourcefile(type(small_index.cooccurrence))
    inverted_file = inspect.getsourcefile(InvertedList)

    gc.collect()
    tracemalloc.start()
    try:
        index = load_frozen_index(snapshot)
        engine = XRefine(index, cache_size=0)
        for query in pool:
            engine.search(query, k=2)
        gc.collect()
        traces = tracemalloc.take_snapshot().traces
    finally:
        tracemalloc.stop()
    cooccur_bytes = 0
    for trace in traces:
        frame = trace.traceback[0]
        if frame.filename == cooccur_file:
            cooccur_bytes += trace.size
        assert not (
            frame.filename == inverted_file
            and frame.lineno in ancestor_lines
        ), trace
    table = index.cooccurrence
    assert len(table) > 0  # the pool did score pairs
    assert cooccur_bytes <= _memo_bytes(index)
