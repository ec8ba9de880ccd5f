"""Packed posting arrays: decode each inverted list once per engine.

``XRefine.slca_search`` used to rebuild a fresh ``[posting.dewey ...]``
label list from the decoded postings on *every* query.  A
:class:`PackedPostings` materializes one keyword's list once into flat,
parallel arrays — component tuples and trusted ``Dewey`` labels — and
is itself a read-only sequence of labels, so every SLCA algorithm
consumes it directly.  The precomputed
``components`` array additionally feeds the fast ingestion path of
:func:`repro.slca.lca.label_components`, sparing the algorithms their
per-query attribute-unpacking loop.

Coherence with index updates needs no bookkeeping: the underlying
:class:`~repro.index.inverted.InvertedIndex` caches one decoded
:class:`~repro.index.inverted.InvertedList` object per keyword and
drops it on any mutation, so an identity check against the current
decoded list detects staleness exactly.
"""

from __future__ import annotations


class _LazyPostingColumn:
    """One posting attribute as a read-only sequence, decoded on touch.

    Blocked inverted lists (frozen v3) expose their postings as a lazy
    block-backed sequence; materializing ``[p.dewey for p in ...]`` at
    pack time would decode every block up front.  This view defers the
    attribute projection to access time, so a packed column over a
    blocked list costs exactly the blocks the consumer touches.
    """

    __slots__ = ("_postings", "_attr")

    def __init__(self, postings, attr):
        self._postings = postings
        self._attr = attr

    def __len__(self):
        return len(self._postings)

    def __iter__(self):
        attr = self._attr
        for posting in self._postings:
            yield getattr(posting, attr)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            attr = self._attr
            return [getattr(p, attr) for p in self._postings[idx]]
        return getattr(self._postings[idx], self._attr)


class PackedPostings:
    """Flat decoded arrays for one keyword's inverted list.

    Behaves as an immutable document-ordered sequence of
    :class:`~repro.xmltree.dewey.Dewey` labels (what the SLCA
    algorithms expect) while exposing the parallel arrays for code that
    wants column access.  All arrays are shared, never copied — treat
    them as read-only.
    """

    __slots__ = (
        "keyword",
        "source",
        "components",
        "labels",
        "_partition_count",
    )

    def __init__(self, source):
        postings = source.postings
        self.keyword = source.keyword
        #: The InvertedList this was packed from (identity = freshness).
        self.source = source
        # The list already carries its component-tuple column (built
        # during decode); share it instead of re-deriving per pack.
        self.components = source.dewey_keys
        if isinstance(postings, list):
            self.labels = [p.dewey for p in postings]
        else:
            # A lazy (block-backed) posting sequence: project lazily
            # so packing never forces a whole-list decode.
            self.labels = _LazyPostingColumn(postings, "dewey")
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

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __getitem__(self, idx):
        return self.labels[idx]

    def __repr__(self):
        return f"PackedPostings({self.keyword!r}, n={len(self.labels)})"


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

    def labels(self, keyword):
        """The shared doc-ordered label list for ``keyword``."""
        return self.get(keyword).labels

    def clear(self):
        self._packed.clear()

    def __len__(self):
        return len(self._packed)

    def __repr__(self):
        return f"PackedListStore({len(self._packed)} keywords)"
