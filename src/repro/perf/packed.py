"""Per-engine partition counters over the inverted lists' key columns.

A :class:`PackedPostings` shares one keyword's component column with
its :class:`~repro.index.inverted.InvertedList` and reads how many
document partitions the keyword occurs in from the list's partition
table.  Its one reader in the
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

    __slots__ = ("keyword", "source", "components")

    def __init__(self, source):
        self.keyword = source.keyword
        #: The InvertedList this was packed from (identity = freshness).
        self.source = source
        #: The list's own key column, shared — treat as read-only.
        self.components = source.dewey_keys

    def partition_count(self):
        """Distinct document partitions among this list's postings:
        the length of its decoded partition table (root postings belong
        to no partition)."""
        return len(self.source.arrays().starts)

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
