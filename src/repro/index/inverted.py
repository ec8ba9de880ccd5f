"""Keyword inverted lists (Section VII, index 1).

For each keyword the index stores a document-ordered list of postings
``<DeweyID, prefixPath, count>`` — one per node whose tag name or value
terms contain the keyword, ``count`` being the number of occurrences at
that node.  The refinement algorithms read lists as component columns
(:mod:`repro.kernels.columns`) and account for the paper's headline
property — **each list is scanned at most once per query** (Theorems 1
and 2) — in :class:`~repro.core.result.ScanStats`.
"""

from __future__ import annotations

import bisect
from array import array

from ..errors import IndexingError
from ..storage import (
    CowKVStore,
    decode_key,
    decode_uvarint,
    encode_key,
    encode_uvarint,
)
from ..xmltree.dewey import Dewey, descendant_range_key


class Posting:
    """One inverted-list entry: a node containing the keyword."""

    __slots__ = ("dewey", "node_type", "count")

    def __init__(self, dewey, node_type, count=1):
        self.dewey = dewey
        self.node_type = node_type
        self.count = count

    def __repr__(self):
        return f"Posting({self.dewey}, {'/'.join(self.node_type)}, x{self.count})"

    def __eq__(self, other):
        if not isinstance(other, Posting):
            return NotImplemented
        return (
            self.dewey == other.dewey
            and self.node_type == other.node_type
            and self.count == other.count
        )

    def __hash__(self):
        return hash((self.dewey, self.node_type, self.count))


def type_id_typecode(type_table):
    """``array`` typecode of a column of ids interned in ``type_table``.

    2 B/posting while the table fits a ``uint16``, 4 B beyond.  The
    table only grows, so a code chosen when a payload is opened holds
    every id that payload can carry.
    """
    return "H" if len(type_table) <= 0x10000 else "I"


#: What an absent keyword decodes from: a list of zero postings.
_EMPTY_PAYLOAD = encode_uvarint(0)


class InvertedList:
    """Document-ordered postings for one keyword, held as columns.

    The decoded form of a list is three parallel columns —
    :attr:`dewey_keys`, :attr:`type_ids`, :attr:`counts` — plus the
    :attr:`type_table` the ids index.  A :class:`Posting` is a value
    built when someone iterates or indexes the list, never stored.
    """

    __slots__ = ("keyword", "_dewey_keys", "type_ids", "counts",
                 "type_table", "_kernel_columns")

    def __init__(self, keyword, dewey_keys, type_ids, counts, type_table):
        """Wrap a pre-validated document-ordered decode.

        ``dewey_keys`` must be strictly ascending component tuples;
        lists are validated when encoded
        (:meth:`InvertedIndex.add_postings`), so nothing is re-checked.
        """
        self.keyword = keyword
        self._dewey_keys = dewey_keys
        #: Interned node-type id per posting (``type_table`` index).
        self.type_ids = type_ids
        #: Occurrences of the keyword at each posting's node.
        self.counts = counts
        #: The owning ``InvertedIndex``'s id -> node-type table.
        self.type_table = type_table
        self._kernel_columns = None

    @property
    def dewey_keys(self):
        """Dewey component tuples, one per posting.

        Shared (not copied) with the kernels' columns; treat as
        immutable.
        """
        return self._dewey_keys

    def __len__(self):
        return len(self._dewey_keys)

    def __iter__(self):
        type_table = self.type_table
        for components, type_id, count in zip(
            self._dewey_keys, self.type_ids, self.counts
        ):
            yield Posting(
                Dewey.from_trusted(components), type_table[type_id], count
            )

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return [self[i] for i in range(*idx.indices(len(self)))]
        return Posting(
            Dewey.from_trusted(self._dewey_keys[idx]),
            self.type_table[self.type_ids[idx]],
            self.counts[idx],
        )

    def labels(self):
        """The postings' Dewey labels, in document order (a new list)."""
        return list(map(Dewey.from_trusted, self._dewey_keys))

    def ancestor_keys(self, node_type):
        """Key of each posting's ``node_type``-typed ancestor-or-self.

        A posting at node v lies under a T-typed ancestor iff v's
        prefix path starts with T; that ancestor's key is v's truncated
        to ``len(T)`` components.  Postings elsewhere are skipped; the
        rest come in document order, repeats included.
        """
        depth = len(node_type)
        # Decided once per interned type, not once per posting.
        under = [path[:depth] == node_type for path in self.type_table]
        return [
            components[:depth]
            for components, type_id in zip(self._dewey_keys, self.type_ids)
            if under[type_id]
        ]

    def range_indices(self, root_dewey):
        """Index range ``[lo, hi)`` of postings inside ``root_dewey``'s subtree."""
        lo = bisect.bisect_left(self._dewey_keys, root_dewey.components)
        hi = bisect.bisect_left(
            self._dewey_keys, descendant_range_key(root_dewey)
        )
        return lo, hi


def decode_posting_run(keyword, raw, pos, count, previous, type_table,
                       type_id_code):
    """Decode ``count`` delta-coded postings of ``raw`` starting at ``pos``.

    The one decode loop behind a whole payload and a single block of
    one.  ``previous`` is the key the first posting is coded against;
    ``type_id_code`` the ``array`` typecode of the id column.  Returns
    the three columns ``(dewey_keys, type_ids, counts)``.
    """
    dewey_keys = []
    type_ids = array(type_id_code)
    counts = []
    known_types = len(type_table)
    for _ in range(count):
        shared, pos = decode_uvarint(raw, pos)
        suffix_len, pos = decode_uvarint(raw, pos)
        suffix = []
        for _ in range(suffix_len):
            part, pos = decode_uvarint(raw, pos)
            suffix.append(part)
        components = previous[:shared] + tuple(suffix)
        type_id, pos = decode_uvarint(raw, pos)
        if type_id >= known_types:
            raise IndexingError(
                f"posting list for {keyword!r} names an unknown node type"
            )
        occurrences, pos = decode_uvarint(raw, pos)
        dewey_keys.append(components)
        type_ids.append(type_id)
        counts.append(occurrences)
        previous = components
    return dewey_keys, type_ids, counts


def decode_posting_payload(keyword, raw, type_table):
    """Decode one keyword's packed posting payload.

    ``raw`` is the value stored under ``(keyword,)`` by
    :meth:`InvertedIndex.add_postings`; ``type_table`` maps interned
    type ids back to node-type tuples.
    """
    count, pos = decode_uvarint(raw)
    columns = decode_posting_run(
        keyword, raw, pos, count, (), type_table,
        type_id_typecode(type_table),
    )
    return InvertedList(keyword, *columns, type_table)


class InvertedIndex:
    """All inverted lists of a document, held in a KV store.

    The store keeps one record per keyword under the order-preserving
    key ``(keyword,)``; the value packs the posting list (delta-coded
    deweys, interned node-type ids, varint counts).  A decoded
    :class:`InvertedList` is cached per keyword.
    """

    def __init__(self, store=None):
        self._store = store if store is not None else CowKVStore()
        self._cache = {}
        self._type_table = []
        self._type_ids = {}
        #: Optional :class:`repro.index.blocks.BlockDirectoryTable`
        #: attached by the snapshot loader; when set, long lists whose
        #: payload is still the pristine frozen bytes decode block-by-
        #: block instead of all at once.
        self._block_directory = None

    # ------------------------------------------------------------------
    # Node-type interning
    # ------------------------------------------------------------------
    def _intern_type(self, node_type):
        type_id = self._type_ids.get(node_type)
        if type_id is None:
            type_id = len(self._type_table)
            self._type_ids[node_type] = type_id
            self._type_table.append(node_type)
        return type_id

    @property
    def node_type_table(self):
        """All node types seen, indexed by their interned id."""
        return tuple(self._type_table)

    # ------------------------------------------------------------------
    # Build API
    # ------------------------------------------------------------------
    def add_postings(self, keyword, postings):
        """Store the complete posting list for ``keyword``.

        ``postings`` is a sized iterable of :class:`Posting` values in
        strict document order.
        """
        payload = bytearray()
        payload += encode_uvarint(len(postings))
        previous = ()
        for posting in postings:
            components = posting.dewey.components
            if components <= previous:
                raise IndexingError(
                    f"postings for {keyword!r} are not in document order"
                )
            shared = 0
            for a, b in zip(previous, components):
                if a != b:
                    break
                shared += 1
            suffix = components[shared:]
            payload += encode_uvarint(shared)
            payload += encode_uvarint(len(suffix))
            for part in suffix:
                payload += encode_uvarint(part)
            payload += encode_uvarint(self._intern_type(posting.node_type))
            payload += encode_uvarint(posting.count)
            previous = components
        self._store.put(encode_key((keyword,)), bytes(payload))
        self._cache.pop(keyword, None)

    def append_postings(self, keyword, postings):
        """Append postings that sort after every existing one."""
        self.add_postings(keyword, list(self.get(keyword)) + list(postings))

    def remove_postings_under(self, keyword, root_dewey):
        """Drop all postings inside one subtree (partition removal).

        A keyword whose last posting disappears is dropped from the
        index entirely, as if it had never been indexed.
        """
        existing = self.get(keyword)
        lo, hi = existing.range_indices(root_dewey)
        if lo == hi:
            return
        remaining = existing[:lo] + existing[hi:]
        if remaining:
            self.add_postings(keyword, remaining)
        else:
            self._store.delete(encode_key((keyword,)))
            self._cache.pop(keyword, None)

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------
    def __contains__(self, keyword):
        cached = self._cache.get(keyword)
        if cached is not None:
            return len(cached) > 0
        return encode_key((keyword,)) in self._store

    def get(self, keyword):
        """The :class:`InvertedList` for ``keyword`` (empty if absent).

        An absent keyword's empty list is cached like any other —
        out-of-vocabulary terms are normal query input and a store miss
        costs two orders of magnitude more than the cached answer.
        """
        cached = self._cache.get(keyword)
        if cached is not None:
            return cached
        key = encode_key((keyword,))
        decoded = None
        if self._block_directory is not None:
            # The directory describes the *frozen* payload bytes, so it
            # only applies while the store still serves the pristine
            # base value — an overlay write invalidates it (base_view
            # returns None) and the keyword falls back to eager decode.
            payload = self._store.base_view(key)
            if payload is not None:
                decoded = self._block_directory.open_list(
                    keyword, payload, self._type_table
                )
        if decoded is None:
            raw = self._store.get(key)
            if raw is None:
                raw = _EMPTY_PAYLOAD
            decoded = decode_posting_payload(keyword, raw, self._type_table)
        self._cache[keyword] = decoded
        return decoded

    # ------------------------------------------------------------------
    # Persistence of the node-type table
    # ------------------------------------------------------------------
    #: Reserved store key for the interned node-type table.  Normal
    #: keywords are lowercase alphanumerics, so the "!" prefix cannot
    #: collide.
    _TYPES_KEY = "!node-types"

    def save_metadata(self):
        """Write the node-type table into the store (before a freeze)."""
        blob = "\n".join("/".join(t) for t in self._type_table)
        self._store.put(encode_key((self._TYPES_KEY,)), blob.encode("utf-8"))

    def load_metadata(self):
        """Restore the node-type table from the store (after a load)."""
        raw = self._store.get(encode_key((self._TYPES_KEY,)))
        if raw is None:
            return
        self._type_table = []
        self._type_ids = {}
        text = raw.decode("utf-8")
        if text:
            for line in text.split("\n"):
                self._intern_type(tuple(line.split("/")))
        self._cache.clear()

    def keywords(self):
        """All indexed keywords, sorted."""
        return [
            keyword
            for keyword in (
                decode_key(key)[0] for key in self._store.keys()
            )
            if keyword != self._TYPES_KEY
        ]

    def vocabulary_size(self):
        total = len(self._store)
        if encode_key((self._TYPES_KEY,)) in self._store:
            total -= 1
        return total

    def list_length(self, keyword):
        """Posting count for ``keyword`` without decoding the cache."""
        return len(self.get(keyword))
