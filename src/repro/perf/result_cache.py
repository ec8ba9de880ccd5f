"""Invalidating LRU result cache, versioned against the index.

Real keyword workloads are heavily skewed: a handful of queries make up
most of the traffic.  :class:`QueryResultCache` keeps the complete
answer of recently served queries keyed by the *normalized* query plus
every parameter that can change the answer (``k``, algorithm, ranking
weights), so a repeated query costs one dict lookup instead of a full
inverted-list scan, DP beam and ranking pass.  Replacement is plain
LRU: a hit becomes the most recent entry, and a store past capacity
evicts the least recent.  (A frequency-gated admission policy, a
Count-Min sketch in front of a segmented main region, was measured
against it on the drifting ``replay_mixed`` traffic and bought about
one point of hit rate for a slower hit path; DESIGN.md has the
numbers.)

Staleness is handled by versioning, not by callback plumbing: every
entry records the :class:`~repro.index.builder.DocumentIndex` version
it was computed against, and the index-maintenance entry points
(:func:`repro.index.update.append_partition` /
:func:`repro.index.update.remove_partition`) bump that version.  A hit
whose recorded version no longer matches is discarded on read, so a
cached answer can never outlive the index state it was derived from.

Snapshot hot-swaps (:meth:`repro.XRefine.swap_index`) add a second
hazard that version stamps alone cannot close: a reader that has
already observed the *old* index version can race the swap and pull an
old-generation entry whose stamp still matches the version it read.
Every cache operation therefore runs under :attr:`lock` (an
:class:`~threading.RLock`), and the swap performs its index flip and
:meth:`purge_other_versions` **while holding the same lock** — the
stamp check-and-return is atomic with respect to the flip, so once the
swap completes no entry from the previous generation is reachable even
for a caller still holding the pre-swap version number.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

#: Default number of distinct (query, parameters) answers retained.
DEFAULT_CAPACITY = 512


class QueryResultCache:
    """Version-checked LRU cache.

    Parameters
    ----------
    maxsize:
        Maximum number of entries; ``0`` disables the cache entirely
        (every :meth:`get` misses, :meth:`put` is a no-op).
    """

    __slots__ = (
        "maxsize", "hits", "misses", "invalidations", "evictions", "lock",
        "_entries",
    )

    def __init__(self, maxsize=DEFAULT_CAPACITY):
        if maxsize < 0:
            raise ValueError(f"cache size must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: Entries dropped to make room (capacity pressure).
        self.evictions = 0
        #: Guards every operation; reentrant so callers may compose a
        #: version read + lookup (or an index flip + purge) atomically
        #: with ``with cache.lock:`` around the individual calls.
        self.lock = threading.RLock()
        # key -> (version, value), least recent first.
        self._entries = OrderedDict()

    @property
    def enabled(self):
        return self.maxsize > 0

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    # ------------------------------------------------------------------
    def _fresh(self, key, version):
        """The value stored for ``key`` at ``version``, or ``None``.

        Counts neither a hit nor a miss.  An entry computed against a
        different index version is evicted (it is unreachable for good
        — versions never repeat within one engine, including across
        snapshot swaps).  Call under :attr:`lock`.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry[0] != version:
            del self._entries[key]
            self.invalidations += 1
            return None
        return entry[1]

    def get(self, key, version):
        """The cached value for ``key`` at ``version``, or ``None``."""
        with self.lock:
            value = self._fresh(key, version)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def peek(self, key, version):
        """The value :meth:`get` would return, without the bookkeeping.

        Counts nothing, bumps no recency and discards nothing — for
        callers that must look at the value before they decide whether
        this lookup is theirs to count (the daemon's loop-side probe
        hands a miss to the query thread, whose :meth:`get` is then the
        request's one counted lookup).
        """
        with self.lock:
            entry = self._entries.get(key)
            if entry is None or entry[0] != version:
                return None
            return entry[1]

    def put(self, key, value, version):
        """Store ``value`` for ``key`` as the most recent entry.

        ``version`` must be the index version the value was *computed
        against* (captured before evaluation began), not the version at
        store time — an evaluation that raced a swap then stores a
        stamp that can never be served, instead of poisoning the new
        generation with an old-index answer.
        """
        if not self.maxsize:
            return
        with self.lock:
            entries = self._entries
            entries[key] = (version, value)
            entries.move_to_end(key)
            while len(entries) > self.maxsize:
                entries.popitem(last=False)
                self.evictions += 1

    def purge_other_versions(self, version):
        """Drop every entry whose stamp differs from ``version``.

        Called by :meth:`repro.XRefine.swap_index` under :attr:`lock`
        while it flips the engine's index, so a concurrent reader can
        never interleave between the flip and the purge.  Returns the
        number of entries dropped.
        """
        with self.lock:
            stale = [
                key
                for key, (cached_version, _) in self._entries.items()
                if cached_version != version
            ]
            for key in stale:
                del self._entries[key]
            self.invalidations += len(stale)
            return len(stale)

    def clear(self):
        """Drop every entry (explicit invalidation)."""
        with self.lock:
            self.invalidations += len(self._entries)
            self._entries.clear()

    def stats(self):
        """Counters for monitoring / the benchmark report."""
        with self.lock:
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
            }

    def __repr__(self):
        return (
            f"{type(self).__name__}(size={len(self._entries)}/"
            f"{self.maxsize}, hits={self.hits}, misses={self.misses})"
        )
