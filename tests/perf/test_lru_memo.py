"""The one bounded LRU behind the keyword-rules, DP, search-for and
need memos.

A hit makes its key the most recent and a put past the limit evicts
the least recent key, so a hot key survives any number of new ones
used between its hits.  The counters are exact: one hit or one miss
per ``get``, one eviction per key pushed out.
"""

from __future__ import annotations

from repro import XRefine, build_document_index
from repro.datasets import generate_dblp
from repro.index import append_partition
from repro.index.derived import DP_LIMIT, DerivedState
from repro.lexicon import RuleMiner, RuleSet
from repro.lexicon.mining import KEYWORD_MEMO_LIMIT
from repro.perf import LRUMemo
from repro.perf.stats_cache import DEFAULT_CAPACITY


def test_hot_key_survives_a_full_limit_of_new_keys():
    memo = LRUMemo(4)
    memo.store("hot", "value")
    for position in range(4):
        memo.store(position, "new")
        # The hot key is used between every two new ones.
        assert memo.lookup("hot") == "value"
    assert memo.stats() == {
        "size": 4, "limit": 4, "hits": 4, "misses": 0, "evictions": 1,
    }
    # The one eviction was key 0, the least recent.
    assert memo.lookup(0) is None
    assert [memo.lookup(position) for position in (1, 2, 3)] == ["new"] * 3


def test_least_recent_goes_first_with_exact_counters():
    memo = LRUMemo(3)
    for key in "abc":
        assert memo.lookup(key) is None
        memo.store(key, key.upper())
    assert memo.lookup("a") == "A"  # order now b, c, a
    memo.store("d", "D")  # evicts b
    assert memo.lookup("b") is None
    memo.store("e", "E")  # evicts c
    assert memo.lookup("c") is None
    assert [memo.lookup(key) for key in "ade"] == ["A", "D", "E"]
    assert memo.stats() == {
        "size": 3, "limit": 3, "hits": 4, "misses": 5, "evictions": 2,
    }


def test_a_lowered_limit_evicts_on_the_next_put():
    memo = LRUMemo(4)
    for key in range(4):
        memo.store(key, key + 1)
    memo.limit = 2
    memo.store(4, 5)
    assert len(memo) == 2 and memo.stats()["evictions"] == 3
    assert [memo.lookup(key) for key in (3, 4)] == [4, 5]


def test_dp_memos_keep_their_hot_identity():
    derived = DerivedState(index=None)
    hot = derived.dp_memos(("hot",), RuleSet(), 2)
    for position in range(DP_LIMIT):
        derived.dp_memos((f"t{position}",), RuleSet(), 2)
        assert derived.dp_memos(("hot",), RuleSet(), 2) is hot
    assert derived.stats()["dp"] == {
        "size": DP_LIMIT, "limit": DP_LIMIT, "hits": DP_LIMIT,
        "misses": DP_LIMIT + 1, "evictions": 1,
    }


def test_dp_memos_evict_the_least_recent_identity():
    derived = DerivedState(index=None)
    first = derived.dp_memos(("t0",), RuleSet(), 2)
    for position in range(1, 3 * DP_LIMIT):
        newest = derived.dp_memos((f"t{position}",), RuleSet(), 2)
        assert len(derived.dp) <= DP_LIMIT
    assert derived.stats()["dp"]["evictions"] == 2 * DP_LIMIT
    # Identity 0 was evicted: asking again builds fresh memos, and
    # evicts the least recent identity, not the newest.
    assert derived.dp_memos(("t0",), RuleSet(), 2) is not first
    assert derived.dp_memos((f"t{3 * DP_LIMIT - 1}",), RuleSet(), 2) is newest


def test_every_traffic_keyed_memo_is_the_one_class():
    derived = DerivedState(index=None)
    memos = {
        "dp": derived.dp,
        "search_for": derived.search_for.entries,
        "need": derived.search_for.needs,
    }
    assert all(type(memo) is LRUMemo for memo in memos.values())
    assert {name: memo.limit for name, memo in memos.items()} == {
        "dp": DP_LIMIT,
        "search_for": DEFAULT_CAPACITY, "need": DEFAULT_CAPACITY,
    }
    # The miner's per-keyword memo, reported before any miner exists
    # (this holder has no index to build one from) as an empty one.
    assert type(RuleMiner(()).keyword_rules) is LRUMemo
    stats = derived.stats()
    assert set(stats) == set(memos) | {"keyword_rules"}
    assert stats["keyword_rules"] == {
        "size": 0, "limit": KEYWORD_MEMO_LIMIT,
        "hits": 0, "misses": 0, "evictions": 0,
    }


def test_updates_keep_the_dp_memos_and_swaps_do_not():
    index = build_document_index(generate_dblp(num_authors=20, seed=7))
    engine = XRefine(index)
    engine.search("databse systems")
    dp = index.derived.dp
    miner = engine.miner
    append_partition(index, ("author", None, [("name", "ada")]))
    # The update's holder keeps the DP memos and updates the miner.
    assert index.derived.dp is dp
    assert engine.miner is not miner
    other = build_document_index(generate_dblp(num_authors=25, seed=8))
    engine.swap_index(other)
    assert other.derived.dp is not dp
