"""The bounded LRU behind every traffic-keyed memo.

The miner's per-keyword memo, the refinement-DP memos, the search-for
memo and its need columns are keyed by what requests bring, so each is
bounded the same way and counts the same way: ``/stats`` can tell a
re-mining miss from a DP miss.  The class takes no lock: a memo two
threads can reach is guarded by its owner.
"""

from __future__ import annotations

from collections import OrderedDict


class LRUMemo(OrderedDict):
    """At most ``limit`` entries: a hit becomes the most recent, and a
    store past the limit evicts the least recent.  Values are never
    ``None``, which :meth:`lookup` returns for a miss."""

    __slots__ = ("limit", "hits", "misses", "evictions")

    def __init__(self, limit):
        super().__init__()
        self.limit = limit
        self.hits = self.misses = self.evictions = 0

    def lookup(self, key):
        value = OrderedDict.get(self, key)
        if value is None:
            self.misses += 1
            return None
        self.move_to_end(key)
        self.hits += 1
        return value

    def store(self, key, value):
        self[key] = value
        self.move_to_end(key)
        while len(self) > self.limit:
            self.popitem(last=False)
            self.evictions += 1

    def stats(self):
        return {
            "size": len(self),
            "limit": self.limit,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
