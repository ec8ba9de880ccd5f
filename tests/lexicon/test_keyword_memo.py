"""The miner's per-keyword memo changes no mined rule set.

A miner keeps each keyword's own rules (split, spelling, synonym,
acronym expansion, stemming) and mines only the rules that read a
keyword's neighbours (merging, acronym contraction) per query.  Whatever
a miner has mined before — and whatever its memo has evicted since — its
rule set for a query must equal a fresh miner's, rule for rule and in
order: the fingerprint keys the refinement DP's memos.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lexicon import RuleMiner
from repro.lexicon.mining import KEYWORD_MEMO_LIMIT
from repro.perf import LRUMemo

VOCAB = [
    "online", "on", "line", "database", "machine", "learning",
    "inproceedings", "article", "world", "wide", "web", "www", "keyword",
    "key", "word", "matching", "match", "skyline", "computation",
    "efficient", "search", "sql", "structured", "query", "language",
]

#: Query keywords: vocabulary words, typos of them, merge and split
#: pieces, acronyms and their expansions, stems and synonyms.
KEYWORDS = VOCAB + [
    "machin", "mchine", "eficient", "serch", "databse", "keywrd",
    "publication", "paper", "matches", "matched", "searching", "qzxq",
    "onl", "ine", "skylines", "olap", "nlp",
]

#: Adjacent runs that merge or contract into a vocabulary word.
RUNS = [
    ["on", "line"], ["key", "word"], ["world", "wide", "web"],
    ["wide", "web"], ["structured", "query", "language"],
]

queries = st.lists(
    st.one_of(st.sampled_from(KEYWORDS).map(lambda k: [k]),
              st.sampled_from(RUNS)),
    min_size=1, max_size=4,
).map(lambda chunks: [keyword for chunk in chunks for keyword in chunk])


def _fresh(query):
    return RuleMiner(VOCAB).mine(query).fingerprint()


@pytest.fixture(scope="module")
def warm():
    """One miner shared by every example, so its memo is warm with
    what earlier examples mined."""
    return RuleMiner(VOCAB)


@settings(max_examples=200, deadline=None)
@given(query=queries, before=st.lists(queries, max_size=4))
def test_warm_memo_mines_what_a_fresh_miner_mines(warm, query, before):
    # Mine other queries first: the query's keywords in other orders
    # and neighbourhoods, each alone, and unrelated queries.
    for other in [*before, query[::-1], *([keyword] for keyword in query)]:
        warm.mine(other)
    fresh = _fresh(query)
    assert warm.mine(query).fingerprint() == fresh
    # A second mining takes every keyword's own rules from the memo.
    assert warm.mine(query).fingerprint() == fresh


@settings(max_examples=100, deadline=None)
@given(st.lists(queries, min_size=1, max_size=6))
def test_evicting_memo_mines_what_a_fresh_miner_mines(sequence):
    miner = RuleMiner(VOCAB)
    miner.keyword_rules = LRUMemo(2)  # evicts on almost every query
    for query in sequence:
        assert miner.mine(query).fingerprint() == _fresh(query)
    assert len(miner.keyword_rules) <= 2


def test_memo_is_bounded_and_counted():
    miner = RuleMiner(VOCAB)
    assert miner.keyword_rules.limit == KEYWORD_MEMO_LIMIT
    miner.mine(["world", "wide", "web", "world"])
    assert miner.keyword_rules.stats() == {
        "size": 3, "limit": KEYWORD_MEMO_LIMIT,
        "hits": 1, "misses": 3, "evictions": 0,
    }
    miner.mine(["web", "machin"])
    assert miner.keyword_rules.stats()["hits"] == 2
    assert miner.keyword_rules.stats()["misses"] == 4


def test_updated_miner_starts_with_an_empty_memo():
    miner = RuleMiner(VOCAB)
    miner.mine(["machin", "learning", "on", "line"])
    assert len(miner.keyword_rules) == 4
    grown = VOCAB + ["maching", "searchin"]
    updated = miner.updated(grown)
    assert updated.keyword_rules is not miner.keyword_rules
    assert updated.keyword_rules.stats() == {
        "size": 0, "limit": KEYWORD_MEMO_LIMIT,
        "hits": 0, "misses": 0, "evictions": 0,
    }
    # The new vocabulary gives "machin" another spelling candidate;
    # rules carried over from the old miner would miss it.
    for query in (["machin", "learning"], ["searchin", "on", "line"]):
        assert updated.mine(query).fingerprint() == (
            RuleMiner(grown).mine(query).fingerprint()
        )
    assert updated.mine(["machin"]).fingerprint() != (
        miner.mine(["machin"]).fingerprint()
    )


class _YieldingMemo(LRUMemo):
    """An LRU that lets other threads run between a lookup's read and
    its reorder — the window in which an unguarded eviction raises."""

    __slots__ = ()

    def move_to_end(self, key, last=True):
        time.sleep(0)
        super().move_to_end(key, last)


def test_threads_mining_through_one_miner():
    # Few keywords against a memo of three: most lookups hit, and most
    # stores evict a key another thread may be reading.
    pool = ["machin", "on", "line", "www", "match", "serch"]
    workload = [[a, b] for a in pool for b in pool] * 8
    expected = {tuple(query): _fresh(query) for query in workload}
    miner = RuleMiner(VOCAB)
    miner.keyword_rules = _YieldingMemo(3)
    failures = []

    def mine(queries):
        try:
            for query in queries:
                if miner.mine(query).fingerprint() != expected[tuple(query)]:
                    failures.append(query)
        except Exception as error:  # recorded for the assertion below
            failures.append(error)

    # More threads than cores, each in its own order.
    orders = [workload[shift:] + workload[:shift] for shift in (0, 7, 19)]
    orders.append(workload[::-1])
    threads = [threading.Thread(target=mine, args=(order,)) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    # Every lookup counted once: a lost update would break the sum.
    stats = miner.keyword_rules.stats()
    assert stats["hits"] + stats["misses"] == sum(
        len(query) for order in orders for query in order
    )
    assert stats["hits"] > 0 and stats["evictions"] > 0
