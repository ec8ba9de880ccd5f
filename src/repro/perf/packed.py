"""Per-engine partition counters over the inverted lists' key columns.

A :class:`PackedPostings` shares one keyword's component column with
its :class:`~repro.index.inverted.InvertedList` and memoizes how many
document partitions the keyword occurs in.  Its one reader in the
program is the swap warm-up, which fills a :class:`PackedListStore`
for the hot keywords before a flip.

Coherence with index updates needs no bookkeeping: the underlying
:class:`~repro.index.inverted.InvertedIndex` caches one decoded
:class:`~repro.index.inverted.InvertedList` object per keyword and
drops it on any mutation, so an identity check against the current
decoded list detects staleness exactly.
"""

from __future__ import annotations


class PackedPostings:
    """One keyword's component column and its partition count."""

    __slots__ = ("keyword", "source", "components", "_partition_count")

    def __init__(self, source):
        self.keyword = source.keyword
        #: The InvertedList this was packed from (identity = freshness).
        self.source = source
        #: The list's own key column, shared — treat as read-only.
        self.components = source.dewey_keys
        self._partition_count = None

    def partition_count(self):
        """Distinct document partitions among this list's postings.

        Computed lazily with partition-to-partition binary-search jumps
        over the shared component column and cached for the packed
        object's lifetime — i.e. exactly one index version, since the
        store rebuilds the pack when the source list changes.  Root
        postings (single-component labels sorting before ``(0, 0)``)
        are excluded, matching the kernels' root-match skip.
        """
        count = self._partition_count
        if count is None:
            from bisect import bisect_left

            components = self.components
            # Lazy key columns carry a header-guided bisect that jumps
            # straight to the candidate block; prefer it so the count
            # touches only the blocks the jumps land in.
            search = getattr(components, "bisect_left", None)
            if search is None:
                def search(target, lo=0):
                    return bisect_left(components, target, lo)

            position = search((0, 0))
            size = len(components)
            count = 0
            while position < size:
                pid = components[position][:2]
                count += 1
                position = search((pid[0], pid[1] + 1), position)
            self._partition_count = count
        return count

    def __repr__(self):
        return f"PackedPostings({self.keyword!r}, n={len(self.components)})"


class PackedListStore:
    """Per-engine cache of :class:`PackedPostings`, one per keyword."""

    __slots__ = ("_index", "_packed")

    def __init__(self, index):
        self._index = index
        self._packed = {}

    def get(self, keyword):
        """The packed list for ``keyword``; rebuilt if the index changed."""
        source = self._index.inverted.get(keyword)
        packed = self._packed.get(keyword)
        if packed is None or packed.source is not source:
            packed = PackedPostings(source)
            self._packed[keyword] = packed
        return packed

    def clear(self):
        self._packed.clear()

    def __len__(self):
        return len(self._packed)

    def __repr__(self):
        return f"PackedListStore({len(self._packed)} keywords)"
