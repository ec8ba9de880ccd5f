"""Keyword inverted lists (Section VII, index 1).

For each keyword the index stores a document-ordered list of postings
``<DeweyID, prefixPath, count>`` — one per node whose tag name or value
terms contain the keyword, ``count`` being the number of occurrences at
that node.  A list is held only as the arrays of its one decode
(:class:`~repro.index.blocks.PostingArrays`).  The refinement
algorithms read them as columns (:mod:`repro.kernels.columns`) and
account for the paper's headline property — **each list is scanned at
most once per query** (Theorems 1 and 2) — in
:class:`~repro.core.result.ScanStats`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain, islice

from ..storage import CowKVStore, decode_key, encode_key
from ..xmltree.dewey import Dewey, descendant_range_key
from .blocks import (
    _encode_python,
    decode_header,
    decode_payload,
    encode_posting_arrays,
    encode_posting_payload,
    pack_keys,
)


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


#: What an absent keyword opens as: a payload of zero postings.
_EMPTY_PAYLOAD = _encode_python("", (), (), ())


def key_tuples(flat, offs):
    """Key ``i`` of a ``(flat, offs)`` pair as a component tuple, for
    every ``i`` — a new list, built for the caller and never kept."""
    return list(map(tuple, map(
        flat.__getitem__, map(slice, offs, islice(offs, 1, None))
    )))


class InvertedList:
    """Document-ordered postings for one keyword, held as arrays.

    Opening a list reads its payload's count and CRC and nothing more;
    the first read of a column decodes the whole payload, once, into
    :class:`~repro.index.blocks.PostingArrays` (:meth:`arrays`) and
    drops the payload.  Those arrays are all the list keeps: key ``i``
    is ``flat[offs[i]:offs[i + 1]]``; :attr:`type_ids` and :attr:`counts`
    are two of them, over the :attr:`type_table` the ids index.  A key
    tuple, a ``Dewey`` or a :class:`Posting` is built when read, never
    stored.
    """

    __slots__ = ("keyword", "type_table", "_size", "_payload", "_header",
                 "_arrays", "_kernel_columns")

    def __init__(self, keyword, payload, type_table):
        header = decode_header(keyword, payload)
        self.keyword = keyword
        #: The owning ``InvertedIndex``'s id -> node-type table.
        self.type_table = type_table
        self._size = header[0]
        self._payload = payload
        self._header = header
        self._arrays = None
        self._kernel_columns = None

    @classmethod
    def open(cls, keyword, payload, type_table):
        """The list a stored payload holds (``payload`` is not copied)."""
        return cls(keyword, payload, type_table)

    def arrays(self):
        """The decoded :class:`~repro.index.blocks.PostingArrays`; the
        first call decodes the payload."""
        arrays = self._arrays
        if arrays is None:
            arrays = self._arrays = decode_payload(
                self.keyword, self._payload, self._header, self.type_table
            )
            self._payload = self._header = None
        return arrays

    @property
    def decoded(self):
        """Whether the payload has been decoded."""
        return self._arrays is not None

    @property
    def dewey_keys(self):
        """Each posting's component tuple, built anew on every read: a
        shim for the wire benchmark's kernel layer, its only reader."""
        arrays = self.arrays()
        return key_tuples(arrays.flat, arrays.offs)

    @property
    def type_ids(self):
        """Each posting's interned node-type id (a ``type_table``
        index)."""
        return self.arrays().tids

    @property
    def counts(self):
        """The keyword's occurrences at each posting's node."""
        return self.arrays().counts

    def __len__(self):
        return self._size

    def __iter__(self):
        arrays = self.arrays()
        type_table = self.type_table
        for components, type_id, count in zip(
            key_tuples(arrays.flat, arrays.offs), arrays.tids, arrays.counts
        ):
            yield Posting(
                Dewey.from_trusted(components), type_table[type_id], count
            )

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return [self[i] for i in range(*idx.indices(len(self)))]
        i = range(self._size)[idx]
        flat, offs, tids, counts = self.arrays()[:4]
        return Posting(
            Dewey.from_trusted(tuple(flat[offs[i]:offs[i + 1]])),
            self.type_table[tids[i]],
            counts[i],
        )

    def labels(self):
        """The postings' Dewey labels, in document order (a new list)."""
        arrays = self.arrays()
        return list(map(Dewey.from_trusted,
                        key_tuples(arrays.flat, arrays.offs)))

    def ancestor_keys(self, node_type):
        """Key of each posting's ``node_type``-typed ancestor-or-self.

        A posting at node v lies under a T-typed ancestor iff v's
        prefix path starts with T; that ancestor's key is v's truncated
        to ``len(T)`` components, cut from the flat array.  Postings
        elsewhere are skipped; the rest come in document order, repeats
        included.
        """
        depth = len(node_type)
        # Decided once per interned type, not once per posting.
        under = [path[:depth] == node_type for path in self.type_table]
        arrays = self.arrays()
        flat = arrays.flat
        offs = arrays.offs
        # Cut at the key's end, as ``components[:depth]`` would be.
        return [
            tuple(flat[start:min(start + depth, end)])
            for start, end, type_id in zip(offs, islice(offs, 1, None),
                                           arrays.tids)
            if under[type_id]
        ]

    def range_indices(self, root_dewey):
        """Index range ``[lo, hi)`` of postings inside ``root_dewey``'s
        subtree: two bisections over positions, each probe comparing one
        key's ``flat`` slice."""
        flat, offs = self.arrays()[:2]

        def key(i):
            return flat[offs[i]:offs[i + 1]]

        positions = range(self._size)
        lo = bisect_left(positions, array("q", root_dewey.components),
                         key=key)
        return lo, bisect_left(
            positions, array("q", descendant_range_key(root_dewey)), lo,
            key=key,
        )


class InvertedIndex:
    """All inverted lists of a document, held in a KV store.

    The store keeps one record per keyword under the order-preserving
    key ``(keyword,)``; the value is the list's payload
    (:mod:`repro.index.blocks`: a count and a CRC, then delta-coded
    deweys, interned node-type ids and varint counts).  An opened
    :class:`InvertedList` is cached per keyword.
    """

    def __init__(self, store=None):
        self._store = store if store is not None else CowKVStore()
        self._cache = {}
        self._type_table = []
        self._type_ids = {}
        # The indexed keywords (a set) once keywords() has read them.
        self._vocabulary = None
        self._absent = InvertedList.open("", _EMPTY_PAYLOAD, self._type_table)

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
    def _put(self, keyword, payload):
        self._store.put(encode_key((keyword,)), payload)
        self._cache.pop(keyword, None)
        if self._vocabulary is not None:
            self._vocabulary.add(keyword)

    def add_postings(self, keyword, keys, node_types, counts):
        """Store the complete posting list for ``keyword``.

        The three columns hold, per posting in strict document order,
        its Dewey component tuple, its node type and its occurrence
        count.
        """
        type_ids = [self._intern_type(node_type) for node_type in node_types]
        self._put(keyword,
                  encode_posting_payload(keyword, keys, type_ids, counts))

    def append_postings(self, keyword, keys, node_types, counts):
        """Append postings that sort after every existing one.

        The existing list's arrays and the new keys, packed, are
        concatenated as arrays and encoded from there."""
        flat, offs, tids, occurrences = self.get(keyword).arrays()[:4]
        new_flat, new_offs = pack_keys(keys)
        base = len(flat)
        self._put(keyword, encode_posting_arrays(
            keyword,
            flat + new_flat,
            offs + array("q", [base + end for end in new_offs[1:]]),
            array("q", chain(tids, map(self._intern_type, node_types))),
            array("q", chain(occurrences, counts)),
        ))

    def remove_postings_under(self, keyword, root_dewey):
        """Drop all postings inside one subtree (partition removal).

        A keyword whose last posting disappears is dropped from the
        index entirely, as if it had never been indexed.
        """
        existing = self.get(keyword)
        lo, hi = existing.range_indices(root_dewey)
        if lo == hi:
            return
        if hi - lo == len(existing):
            self._store.delete(encode_key((keyword,)))
            self._cache.pop(keyword, None)
            if self._vocabulary is not None:
                self._vocabulary.discard(keyword)
            return

        flat, offs, tids, occurrences = existing.arrays()[:4]
        cut, end = offs[lo], offs[hi]
        self._put(keyword, encode_posting_arrays(
            keyword,
            flat[:cut] + flat[end:],
            offs[:lo] + array("q", [o - (end - cut) for o in offs[hi:]]),
            tids[:lo] + tids[hi:],
            occurrences[:lo] + occurrences[hi:],
        ))

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------
    def __contains__(self, keyword):
        vocabulary = self._vocabulary
        if vocabulary is not None:
            return keyword in vocabulary
        cached = self._cache.get(keyword)
        if cached is not None:
            return len(cached) > 0
        return encode_key((keyword,)) in self._store

    def get(self, keyword):
        """The :class:`InvertedList` for ``keyword`` (empty if absent).

        Every record opens the same way, wherever the store keeps it —
        a snapshot's mapped bytes, a delta layer, the overlay of a
        built or mutated index: :meth:`InvertedList.open` over a
        zero-copy view of the payload, cached per keyword.  An absent
        keyword gets the index's one shared empty list and leaves
        nothing behind: out-of-vocabulary terms are normal query input,
        and a cache entry per absent term would grow with the traffic.
        Once :meth:`keywords` has been read (an engine's rule miner
        reads it), telling a keyword absent is one set probe; before
        that it is a store miss.
        """
        cached = self._cache.get(keyword)
        if cached is not None:
            return cached
        vocabulary = self._vocabulary
        if vocabulary is not None and keyword not in vocabulary:
            return self._absent
        payload = self._store.view(encode_key((keyword,)))
        if payload is None:
            return self._absent
        opened = InvertedList.open(keyword, payload, self._type_table)
        self._cache[keyword] = opened
        return opened

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
        self._vocabulary = None
        self._absent = InvertedList.open("", _EMPTY_PAYLOAD, self._type_table)

    def keywords(self):
        """All indexed keywords, sorted.

        The first call reads them from the store's keys and keeps them
        as a set, which every write keeps in step.
        """
        vocabulary = self._vocabulary
        if vocabulary is None:
            types_key = encode_key((self._TYPES_KEY,))
            vocabulary = self._vocabulary = {
                decode_key(key)[0]
                for key in self._store.keys()
                if key != types_key
            }
        return sorted(vocabulary)

    def vocabulary_size(self):
        total = len(self._store)
        if encode_key((self._TYPES_KEY,)) in self._store:
            total -= 1
        return total

    def list_length(self, keyword):
        """Posting count for ``keyword``, read from the payload's count:
        nothing is decoded."""
        return len(self.get(keyword))
