"""Property test: the result cache is a plain LRU with version stamps.

Hypothesis drives random interleavings of ``put`` / ``get`` / ``peek``
/ ``purge_other_versions`` over :class:`QueryResultCache` and over a
model built from a bare :class:`~collections.OrderedDict` — most recent
last, a stale stamp dropped on read, the least recent entry evicted
past capacity.  Every answer and every counter must match the model's
exactly: the cache neither serves a superseded or stale value nor
drops one the LRU would have kept.
"""

from __future__ import annotations

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import QueryResultCache

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.integers(0, 11),      # key
            st.integers(0, 999),     # value
            st.integers(0, 2),       # version
        ),
        st.tuples(
            st.sampled_from(["get", "peek"]),
            st.integers(0, 11),
            st.integers(0, 2),
        ),
        st.tuples(st.just("purge"), st.integers(0, 2)),
    ),
    min_size=1,
    max_size=200,
)


class ModelLRU:
    """The reference: an ``OrderedDict`` of key -> (version, value)."""

    def __init__(self, maxsize):
        self.maxsize = maxsize
        self.entries = OrderedDict()
        self.hits = self.misses = self.invalidations = self.evictions = 0

    def put(self, key, value, version):
        self.entries[key] = (version, value)
        self.entries.move_to_end(key)
        if len(self.entries) > self.maxsize:
            self.entries.popitem(last=False)
            self.evictions += 1

    def get(self, key, version):
        entry = self.entries.get(key)
        if entry is not None and entry[0] != version:
            del self.entries[key]
            self.invalidations += 1
            entry = None
        if entry is None:
            self.misses += 1
            return None
        self.entries.move_to_end(key)
        self.hits += 1
        return entry[1]

    def peek(self, key, version):
        entry = self.entries.get(key)
        return entry[1] if entry is not None and entry[0] == version else None

    def purge(self, survivor):
        stale = [k for k, (v, _) in self.entries.items() if v != survivor]
        for key in stale:
            del self.entries[key]
        self.invalidations += len(stale)
        return len(stale)


@settings(max_examples=150, deadline=None)
@given(ops=operations, maxsize=st.integers(1, 8))
def test_interleavings_never_serve_stale(ops, maxsize):
    cache = QueryResultCache(maxsize=maxsize)
    model = ModelLRU(maxsize)
    for op in ops:
        if op[0] == "put":
            _, key, value, version = op
            cache.put(key, value, version)
            model.put(key, value, version)
        elif op[0] == "purge":
            assert cache.purge_other_versions(op[1]) == model.purge(op[1])
        else:
            _, key, version = op
            served = getattr(cache, op[0])(key, version)
            assert served == getattr(model, op[0])(key, version)
        assert list(cache._entries.items()) == list(model.entries.items())
    assert cache.stats() == {
        "size": len(model.entries),
        "maxsize": maxsize,
        "hits": model.hits,
        "misses": model.misses,
        "invalidations": model.invalidations,
        "evictions": model.evictions,
    }
