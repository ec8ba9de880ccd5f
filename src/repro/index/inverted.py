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


class InvertedList:
    """Document-ordered postings for one keyword."""

    __slots__ = ("keyword", "postings", "_dewey_keys", "type_ids",
                 "_kernel_columns")

    def __init__(self, keyword, postings):
        self.keyword = keyword
        self.postings = list(postings)
        self._dewey_keys = [p.dewey.components for p in self.postings]
        #: Interned node-type id per posting (``InvertedIndex``'s
        #: table), parallel to :attr:`postings`; ``None`` for a list
        #: built from ``Posting`` objects, which carry no ids.
        self.type_ids = None
        self._kernel_columns = None
        for i in range(1, len(self._dewey_keys)):
            if self._dewey_keys[i - 1] >= self._dewey_keys[i]:
                raise IndexingError(
                    f"inverted list for {keyword!r} is not in document order"
                )

    @classmethod
    def from_trusted(cls, keyword, postings, dewey_keys, type_ids):
        """Build a list from a pre-validated document-ordered decode.

        ``dewey_keys`` must be ``[p.dewey.components for p in postings]``
        in strictly ascending order and ``type_ids`` the postings'
        interned type ids — the payload decoder already has all three
        in hand, so re-deriving and re-checking them here would double
        the decode cost for lists that were validated when encoded.
        """
        instance = cls.__new__(cls)
        instance.keyword = keyword
        instance.postings = postings
        instance._dewey_keys = dewey_keys
        instance.type_ids = type_ids
        instance._kernel_columns = None
        return instance

    @property
    def dewey_keys(self):
        """Dewey component tuples, parallel to :attr:`postings`.

        Shared (not copied) with consumers like ``perf.packed``; treat
        as immutable.
        """
        return self._dewey_keys

    def __len__(self):
        return len(self.postings)

    def __iter__(self):
        return iter(self.postings)

    def __getitem__(self, idx):
        return self.postings[idx]

    def range_indices(self, root_dewey):
        """Index range ``[lo, hi)`` of postings inside ``root_dewey``'s subtree."""
        lo = bisect.bisect_left(self._dewey_keys, root_dewey.components)
        hi = bisect.bisect_left(
            self._dewey_keys, descendant_range_key(root_dewey)
        )
        return lo, hi


def decode_posting_payload(keyword, raw, type_table):
    """Decode one keyword's packed posting payload.

    ``raw`` is the value stored under ``(keyword,)`` by
    :meth:`InvertedIndex.add_postings`; ``type_table`` maps interned
    type ids back to node-type tuples.
    """
    count, pos = decode_uvarint(raw)
    postings = []
    dewey_keys = []
    type_ids = array(type_id_typecode(type_table))
    previous = ()
    for _ in range(count):
        shared, pos = decode_uvarint(raw, pos)
        suffix_len, pos = decode_uvarint(raw, pos)
        suffix = []
        for _ in range(suffix_len):
            part, pos = decode_uvarint(raw, pos)
            suffix.append(part)
        components = previous[:shared] + tuple(suffix)
        type_id, pos = decode_uvarint(raw, pos)
        occurrence_count, pos = decode_uvarint(raw, pos)
        # Components were validated when the list was encoded, so
        # the decode loop takes the trusted constructor fast path.
        postings.append(
            Posting(
                Dewey.from_trusted(components),
                type_table[type_id],
                occurrence_count,
            )
        )
        dewey_keys.append(components)
        type_ids.append(type_id)
        previous = components
    return InvertedList.from_trusted(keyword, postings, dewey_keys, type_ids)


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
        """Store the complete posting list for ``keyword``."""
        payload = bytearray()
        payload += encode_uvarint(len(postings))
        previous = ()
        for posting in postings:
            components = posting.dewey.components
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
        existing = list(self.get(keyword))
        if existing and postings:
            if existing[-1].dewey.components >= postings[0].dewey.components:
                raise IndexingError(
                    f"appended postings for {keyword!r} must follow the "
                    "existing list in document order"
                )
        self.add_postings(keyword, existing + list(postings))

    def remove_postings_under(self, keyword, root_dewey):
        """Drop all postings inside one subtree (partition removal).

        A keyword whose last posting disappears is dropped from the
        index entirely, as if it had never been indexed.
        """
        existing = self.get(keyword)
        lo, hi = existing.range_indices(root_dewey)
        if lo == hi:
            return
        remaining = existing.postings[:lo] + existing.postings[hi:]
        if remaining:
            self.add_postings(keyword, remaining)
        else:
            self._store.delete(encode_key((keyword,)))
            self._cache.pop(keyword, None)

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------
    def __contains__(self, keyword):
        if keyword in self._cache:
            return True
        return encode_key((keyword,)) in self._store

    def get(self, keyword):
        """The :class:`InvertedList` for ``keyword`` (empty if absent)."""
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
                decoded = InvertedList(keyword, [])
            else:
                decoded = self._decode(keyword, raw)
        self._cache[keyword] = decoded
        return decoded

    def _decode(self, keyword, raw):
        return decode_posting_payload(keyword, raw, self._type_table)

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
