"""Invalidating result cache with frequency-aware (W-TinyLFU) admission.

Real keyword workloads are heavily skewed: a handful of queries make up
most of the traffic.  :class:`QueryResultCache` keeps the complete
answer of recently served queries keyed by the *normalized* query plus
every parameter that can change the answer (``k``, algorithm, ranking
weights), so a repeated query costs one dict lookup instead of a full
inverted-list scan, DP beam and ranking pass.

Two replacement policies are available:

``policy="tinylfu"`` (default)
    A W-TinyLFU-style design [Einziger et al., 2017].  New entries
    land in a small LRU *window* (~1% of capacity).  When the window
    overflows, its LRU entry becomes an admission *candidate* for the
    segmented-LRU main region: it is admitted only while the main
    region has free space, or when the Count-Min frequency sketch
    (:class:`~repro.perf.freq_sketch.CountMinSketch`, fed one
    increment per lookup) estimates the candidate to be requested more
    often than the main region's next victim.  One-hit wonders — burst
    noise, one-off session reformulations — therefore die in the tiny
    window instead of flushing the popular head out of the main
    region, which is what makes this policy beat plain LRU under
    Zipf-with-noise traffic (see ``benchmarks/bench_replay.py``).  The
    main region is a segmented LRU: entries enter *probation* (~20%)
    and are promoted to *protected* (~80%) on re-reference, the
    protected LRU demoting back to probation to make room.  Periodic
    sketch halving keeps admission live after traffic drift.

``policy="lru"``
    The plain LRU the engine shipped with — the experimental baseline
    the replay benchmark compares against, and the right choice when
    the working set fits in the cache anyway.

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

from .freq_sketch import CountMinSketch

#: Default number of distinct (query, parameters) answers retained.
DEFAULT_CAPACITY = 512

#: Supported replacement policies.
POLICIES = ("tinylfu", "lru")

#: Window share of the total capacity under ``tinylfu`` (~1%).
_WINDOW_SHARE = 100
#: Protected share of the main region under ``tinylfu`` (4/5 = 80%).
_PROTECTED_NUM, _PROTECTED_DEN = 4, 5


class QueryResultCache:
    """Version-checked result cache with pluggable admission policy.

    Parameters
    ----------
    maxsize:
        Maximum number of entries; ``0`` disables the cache entirely
        (every :meth:`get` misses, :meth:`put` is a no-op).
    policy:
        ``"tinylfu"`` (default) or ``"lru"``; see the module docstring.
    """

    __slots__ = (
        "maxsize", "policy",
        "hits", "misses", "invalidations", "evictions",
        "admission_rejects", "lock",
        "_window", "_probation", "_protected",
        "_window_cap", "_main_cap", "_protected_cap", "_sketch",
    )

    def __init__(self, maxsize=DEFAULT_CAPACITY, policy="tinylfu"):
        if maxsize < 0:
            raise ValueError(f"cache size must be >= 0, got {maxsize}")
        if policy not in POLICIES:
            raise ValueError(
                f"unknown cache policy {policy!r}; expected one of {POLICIES}"
            )
        self.maxsize = maxsize
        self.policy = policy
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: Entries dropped to make room (capacity pressure), including
        #: main-region victims displaced by an admitted candidate.
        self.evictions = 0
        #: Window candidates the frequency gate refused to admit into
        #: the main region (always 0 under ``policy="lru"``).
        self.admission_rejects = 0
        #: Guards every operation; reentrant so callers may compose a
        #: version read + lookup (or an index flip + purge) atomically
        #: with ``with cache.lock:`` around the individual calls.
        self.lock = threading.RLock()
        # Segments hold key -> (version, value).  "lru"
        # uses only the window, with the full capacity.
        self._window = OrderedDict()
        self._probation = OrderedDict()
        self._protected = OrderedDict()
        if policy == "tinylfu" and maxsize > 0:
            self._window_cap = max(1, maxsize // _WINDOW_SHARE)
            self._main_cap = maxsize - self._window_cap
            self._protected_cap = (
                self._main_cap * _PROTECTED_NUM
            ) // _PROTECTED_DEN
            self._sketch = CountMinSketch(maxsize)
        else:
            self._window_cap = maxsize
            self._main_cap = 0
            self._protected_cap = 0
            self._sketch = None

    @property
    def enabled(self):
        return self.maxsize > 0

    def __len__(self):
        return len(self._window) + len(self._probation) + len(self._protected)

    def __contains__(self, key):
        return (
            key in self._window
            or key in self._probation
            or key in self._protected
        )

    # ------------------------------------------------------------------
    def _find(self, key):
        """The segment holding ``key`` plus its entry, or ``(None, None)``."""
        entry = self._window.get(key)
        if entry is not None:
            return self._window, entry
        entry = self._probation.get(key)
        if entry is not None:
            return self._probation, entry
        entry = self._protected.get(key)
        if entry is not None:
            return self._protected, entry
        return None, None

    def get(self, key, version):
        """The cached value for ``key`` at ``version``, or ``None``.

        An entry computed against a different index version is evicted
        (it is unreachable for good — versions never repeat within one
        engine, including across snapshot swaps).
        Every lookup — hit or miss — feeds the frequency sketch, so a
        repeatedly requested key builds up the admission credit that
        eventually lets it displace a main-region victim.
        """
        with self.lock:
            if self._sketch is not None:
                self._sketch.increment(key)
            segment, entry = self._find(key)
            if entry is None:
                self.misses += 1
                return None
            cached_version, value = entry
            if cached_version != version:
                del segment[key]
                self.invalidations += 1
                self.misses += 1
                return None
            self._touch(segment, key, entry)
            self.hits += 1
            return value

    def peek(self, key, version):
        """The value :meth:`get` would return, without the bookkeeping.

        Counts nothing, feeds no sketch, bumps no recency and discards
        nothing — for callers that must look at the value before they
        decide whether this lookup is theirs to count (the daemon's
        loop-side probe hands a miss to the query thread, whose
        :meth:`get` is then the request's one counted lookup).
        """
        with self.lock:
            _, entry = self._find(key)
            if entry is None:
                return None
            cached_version, value = entry
            if cached_version != version:
                return None
            return value

    def _touch(self, segment, key, entry):
        """Record a reference: LRU bump + segmented-LRU promotion."""
        if segment is self._probation and self._protected_cap > 0:
            # Re-referenced on probation: promote, demoting the
            # protected LRU back to probation MRU when full.
            del segment[key]
            self._protected[key] = entry
            while len(self._protected) > self._protected_cap:
                demoted_key, demoted = self._protected.popitem(last=False)
                self._probation[demoted_key] = demoted
        else:
            segment.move_to_end(key)

    def put(self, key, value, version):
        """Store ``value`` for ``key``, applying the admission policy.

        ``version`` must be the index version the value was *computed
        against* (captured before evaluation began), not the version at
        store time — an evaluation that raced a swap then stores a
        stamp that can never be served, instead of poisoning the new
        generation with an old-index answer.
        """
        if not self.maxsize:
            return
        with self.lock:
            entry = (version, value)
            segment, existing = self._find(key)
            if existing is not None:
                segment[key] = entry
                self._touch(segment, key, entry)
                return
            self._window[key] = entry
            while len(self._window) > self._window_cap:
                candidate_key, candidate = self._window.popitem(last=False)
                self._admit(candidate_key, candidate)

    def _admit(self, key, entry):
        """Window overflow: frequency-gated admission to the main region."""
        if self._main_cap == 0:
            # Pure-LRU degenerate shape (tiny maxsize): window IS the
            # cache, overflow is a plain eviction.
            self.evictions += 1
            return
        if len(self._probation) + len(self._protected) < self._main_cap:
            self._probation[key] = entry
            return
        victims = self._probation if self._probation else self._protected
        victim_key = next(iter(victims))
        sketch = self._sketch
        if sketch.estimate(key) > sketch.estimate(victim_key):
            del victims[victim_key]
            self.evictions += 1
            self._probation[key] = entry
        else:
            self.admission_rejects += 1

    def purge_other_versions(self, version):
        """Drop every entry whose stamp differs from ``version``.

        Called by :meth:`repro.XRefine.swap_index` under :attr:`lock`
        while it flips the engine's index, so a concurrent reader can
        never interleave between the flip and the purge.  Returns the
        number of entries dropped.
        """
        with self.lock:
            dropped = 0
            for segment in (self._window, self._probation, self._protected):
                stale = [
                    key
                    for key, (cached_version, _) in segment.items()
                    if cached_version != version
                ]
                for key in stale:
                    del segment[key]
                dropped += len(stale)
            self.invalidations += dropped
            return dropped

    def clear(self):
        """Drop every entry (explicit invalidation) and frequency history."""
        with self.lock:
            dropped = len(self)
            self._window.clear()
            self._probation.clear()
            self._protected.clear()
            if self._sketch is not None:
                self._sketch.clear()
            self.invalidations += dropped

    def stats(self):
        """Counters for monitoring / the benchmark report."""
        with self.lock:
            return {
                "size": len(self),
                "maxsize": self.maxsize,
                "policy": self.policy,
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
                "admission_rejects": self.admission_rejects,
                "sketch": (
                    self._sketch.stats() if self._sketch is not None else None
                ),
            }

    def __repr__(self):
        return (
            f"QueryResultCache({self.policy}, size={len(self)}/"
            f"{self.maxsize}, hits={self.hits}, misses={self.misses})"
        )
