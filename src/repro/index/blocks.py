"""The posting payload: a block header, then a delta-varint body.

Every stored inverted-list record — a built index's, a frozen
snapshot's, a delta layer's, and the zero-posting record an absent
keyword opens as — is one byte string::

    count | block_size | block_count
    | block_count x byte length of the block
    | block_count x (CRC-32 | first key | last key)
    | body

Integers are uvarints except the little-endian ``u32`` CRC; a key is
its component count, then its components.  The body holds the postings
in document order, ``block_size`` to a block (the last may hold fewer),
each as the length of the prefix it shares with the previous key, the
number of remaining components and their values, the interned
node-type id and the occurrence count.  A block's first posting is coded against the last key of the
block before it, which the header carries, so any block decodes alone;
a list of at most ``block_size`` postings is one block.

The first/last keys serve double duty: the carry-in of the next block,
and the block-max bound that lets the kernels' presence probes and
:class:`LazyDeweyKeys` binary searches reject a Dewey range from the
header alone — a pruned block is never decoded at all.

:func:`encode_posting_payload` is the one encoder.  The one opener is
:meth:`repro.index.inverted.InvertedList.open`: it reads the header
(:func:`decode_header`, which checks every invariant up front) into a
:class:`BlockStore`.  A one-block list decodes its block there and
then; a longer one reads its columns through :class:`LazyDeweyKeys`,
:class:`LazyTypeIds` and :class:`LazyCounts`, which decode (and
CRC-check) a block the first time a posting inside it is read, and
never twice.
"""

from __future__ import annotations

import bisect
import struct
import zlib
from array import array

from ..errors import IndexingError, KeyEncodingError
from ..storage import decode_uvarint, encode_uvarint

#: Postings per block.  256 keeps block decode under ~100us in pure
#: python while a 1M-posting list still needs only ~4k header entries.
DEFAULT_BLOCK_SIZE = 256

_CRC = struct.Struct("<I")


def type_id_typecode(type_table):
    """``array`` typecode of a column of ids interned in ``type_table``.

    2 B/posting while the table fits a ``uint16``, 4 B beyond.  The
    table only grows, so a code chosen when a payload is opened holds
    every id that payload can carry.
    """
    return "H" if len(type_table) <= 0x10000 else "I"


def _encode_components(out, components):
    out += encode_uvarint(len(components))
    for part in components:
        out += encode_uvarint(part)


def _decode_components(raw, pos):
    length, pos = decode_uvarint(raw, pos)
    parts = []
    for _ in range(length):
        part, pos = decode_uvarint(raw, pos)
        parts.append(part)
    return tuple(parts), pos


def encode_posting_payload(keyword, keys, type_ids, counts, block_size):
    """One keyword's postings as a payload of ``block_size``-posting blocks.

    ``keys``, ``type_ids`` and ``counts`` are the three columns, as
    iterables of equal length.  The keys must be strictly ascending
    component tuples: document order is checked here, where every list
    is written.
    """
    if block_size < 1:
        raise IndexingError(f"block size must be >= 1, got {block_size}")
    body = bytearray()
    sizes = []
    crcs = []
    firsts = []
    lasts = []
    previous = ()
    start = 0
    count = 0

    def close_block():
        sizes.append(len(body) - start)
        crcs.append(zlib.crc32(body[start:]))
        lasts.append(previous)

    for components, type_id, occurrences in zip(keys, type_ids, counts):
        if components <= previous:
            raise IndexingError(
                f"postings for {keyword!r} are not in document order"
            )
        if count % block_size == 0:
            start = len(body)
            firsts.append(components)
        shared = 0
        for a, b in zip(previous, components):
            if a != b:
                break
            shared += 1
        body += encode_uvarint(shared)
        body += encode_uvarint(len(components) - shared)
        for part in components[shared:]:
            body += encode_uvarint(part)
        body += encode_uvarint(type_id)
        body += encode_uvarint(occurrences)
        previous = components
        count += 1
        if count % block_size == 0:
            close_block()
    if count % block_size:
        close_block()

    out = bytearray()
    out += encode_uvarint(count)
    out += encode_uvarint(block_size)
    out += encode_uvarint(len(sizes))
    for size in sizes:
        out += encode_uvarint(size)
    for crc, first, last in zip(crcs, firsts, lasts):
        out += _CRC.pack(crc)
        _encode_components(out, first)
        _encode_components(out, last)
    out += body
    return bytes(out)


def payload_block_size(payload):
    """The block size a payload was encoded at (its header is not
    otherwise read or checked)."""
    _count, pos = decode_uvarint(payload, 0)
    return decode_uvarint(payload, pos)[0]


def decode_header(keyword, payload):
    """Decode and validate the header of one keyword's payload.

    Returns ``(block_size, count, offsets, crcs, firsts, lasts)``, the
    ``offsets`` being the ``block_count + 1`` block boundaries as
    positions in the payload.  Every structural invariant is checked up
    front — a block count
    that fits the geometry, offsets strictly ascending, a last block
    that ends exactly where the payload does, first <= last within
    each block, blocks strictly ordered in key space — so a corrupted
    or reordered header fails loudly at open time instead of silently
    mis-routing binary searches later.
    """
    try:
        count, pos = decode_uvarint(payload, 0)
        block_size, pos = decode_uvarint(payload, pos)
        block_count, pos = decode_uvarint(payload, pos)
        if block_size < 1:
            raise IndexingError(
                f"posting list for {keyword!r} has an empty block geometry"
            )
        if block_count != -(-count // block_size):
            raise IndexingError(
                f"posting list for {keyword!r} declares {block_count} "
                f"blocks for {count} postings of {block_size}"
            )
        sizes = []
        for _ in range(block_count):
            size, pos = decode_uvarint(payload, pos)
            sizes.append(size)
        crcs = []
        firsts = []
        lasts = []
        for _ in range(block_count):
            (crc,) = _CRC.unpack_from(payload, pos)
            pos += _CRC.size
            first, pos = _decode_components(payload, pos)
            last, pos = _decode_components(payload, pos)
            crcs.append(crc)
            firsts.append(first)
            lasts.append(last)
    except (KeyEncodingError, struct.error) as exc:
        raise IndexingError(
            f"posting list for {keyword!r} has a truncated or corrupt header"
        ) from exc
    offsets = [pos]
    for index, size in enumerate(sizes):
        if size < 1:
            raise IndexingError(
                f"posting list for {keyword!r} has non-ascending offsets"
            )
        offsets.append(offsets[-1] + size)
        if firsts[index] > lasts[index]:
            raise IndexingError(
                f"posting list for {keyword!r} has an inverted block"
            )
        if index and lasts[index - 1] >= firsts[index]:
            raise IndexingError(
                f"posting list for {keyword!r} has out-of-order blocks"
            )
    if offsets[-1] != len(payload):
        raise IndexingError(
            f"posting list for {keyword!r} has blocks ending at byte "
            f"{offsets[-1]} of a {len(payload)}-byte payload"
        )
    return (block_size, count, tuple(offsets), tuple(crcs), tuple(firsts),
            tuple(lasts))


def decode_posting_run(keyword, raw, count, previous, type_table,
                       type_id_code):
    """Decode the ``count`` delta-coded postings that make up ``raw``.

    The one decode loop, run once per block.  ``previous`` is the key
    the first posting is coded against; ``type_id_code`` the ``array``
    typecode of the id column.  Returns the three columns
    ``(dewey_keys, type_ids, counts)``.
    """
    dewey_keys = []
    type_ids = array(type_id_code)
    counts = []
    known_types = len(type_table)
    pos = 0
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
    if pos != len(raw):
        raise IndexingError(
            f"posting list for {keyword!r} has {len(raw) - pos} bytes "
            "past the postings of a block"
        )
    return dewey_keys, type_ids, counts


class BlockStore:
    """One payload: its header, read and checked when the store is
    made, and its blocks, each decoded at most once.

    ``payload`` stays whatever the store served — a memoryview over the
    snapshot mmap, or an overlay's bytes; a block's bytes are only
    copied (and CRC-checked, and varint-decoded) the first time
    something touches a posting inside it.  Once every block is
    decoded the payload is dropped, releasing its view of the mapping.
    """

    __slots__ = (
        "keyword",
        "payload",
        "type_table",
        "type_id_code",
        "block_size",
        "count",
        "offsets",
        "crcs",
        "firsts",
        "lasts",
        "_decoded",
        "blocks_decoded",
    )

    def __init__(self, keyword, payload, type_table):
        self.keyword = keyword
        self.payload = payload
        (self.block_size, self.count, self.offsets, self.crcs, self.firsts,
         self.lasts) = decode_header(keyword, payload)
        self.type_table = type_table
        #: One typecode for every block's id column, so whole-list
        #: consumers can concatenate them.
        self.type_id_code = type_id_typecode(type_table)
        self._decoded = [None] * len(self.crcs)
        self.blocks_decoded = 0

    @property
    def block_count(self):
        return len(self.crcs)

    def postings_in_block(self, index):
        if index == len(self.crcs) - 1:
            return self.count - index * self.block_size
        return self.block_size

    def block(self, index):
        """``(dewey_keys, type_ids, counts)`` of one block, decoded at
        most once."""
        decoded = self._decoded[index]
        if decoded is not None:
            return decoded
        lo, hi = self.offsets[index], self.offsets[index + 1]
        chunk = bytes(self.payload[lo:hi])
        if zlib.crc32(chunk) != self.crcs[index]:
            raise IndexingError(
                f"block {index} of {self.keyword!r} fails its checksum"
            )
        previous = self.lasts[index - 1] if index else ()
        try:
            decoded = decode_posting_run(
                self.keyword, chunk, self.postings_in_block(index),
                previous, self.type_table, self.type_id_code,
            )
        except KeyEncodingError as exc:
            raise IndexingError(
                f"block {index} of {self.keyword!r} is truncated"
            ) from exc
        keys = decoded[0]
        if keys[0] != self.firsts[index] or keys[-1] != self.lasts[index]:
            raise IndexingError(
                f"block {index} of {self.keyword!r} disagrees with its "
                "header"
            )
        self._decoded[index] = decoded
        self.blocks_decoded += 1
        if self.blocks_decoded == len(self.crcs):
            self.payload = None
        return decoded


class _LazyBlockSequence:
    """Sequence protocol over the blocks, decoding only what's touched."""

    __slots__ = ("_store",)

    #: 0 selects dewey keys, 1 interned type ids, 2 occurrence counts.
    _column = 0

    def __init__(self, store):
        self._store = store

    def __len__(self):
        return self._store.count

    def __iter__(self):
        store = self._store
        column = self._column
        for index in range(store.block_count):
            yield from store.block(index)[column]

    def __getitem__(self, index):
        store = self._store
        count = store.count
        if isinstance(index, slice):
            lo, hi, step = index.indices(count)
            if step != 1:
                return [self[i] for i in range(lo, hi, step)]
            return self._range(lo, hi)
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("posting index out of range")
        block, within = divmod(index, store.block_size)
        return store.block(block)[self._column][within]

    def _range(self, lo, hi):
        if lo >= hi:
            return []
        store = self._store
        size = store.block_size
        column = self._column
        first_block, first_within = divmod(lo, size)
        last_block, last_within = divmod(hi - 1, size)
        if first_block == last_block:
            return store.block(first_block)[column][
                first_within : last_within + 1
            ]
        out = store.block(first_block)[column][first_within:]
        for index in range(first_block + 1, last_block):
            out.extend(store.block(index)[column])
        out.extend(store.block(last_block)[column][: last_within + 1])
        return out


class LazyTypeIds(_LazyBlockSequence):
    __slots__ = ()
    _column = 1


class LazyCounts(_LazyBlockSequence):
    __slots__ = ()
    _column = 2


class LazyDeweyKeys(_LazyBlockSequence):
    """Lazy key column with header-guided binary search.

    ``bisect_left``/``bisect_right`` first locate the single candidate
    block through the in-memory first/last headers, then decode at
    most that one block — callers that prefer these methods over
    :mod:`bisect` touch O(1) blocks per probe instead of O(log n)
    random positions.
    """

    __slots__ = ()
    _column = 0

    def bisect_left(self, target, lo=0, hi=None):
        store = self._store
        count = store.count
        if hi is None:
            hi = count
        block = bisect.bisect_left(store.lasts, target)
        if block >= store.block_count:
            position = count
        elif store.firsts[block] >= target:
            position = block * store.block_size
        else:
            keys = store.block(block)[0]
            position = block * store.block_size + bisect.bisect_left(
                keys, target
            )
        return min(max(position, lo), hi)

    def bisect_right(self, target, lo=0, hi=None):
        store = self._store
        count = store.count
        if hi is None:
            hi = count
        block = bisect.bisect_right(store.lasts, target)
        if block >= store.block_count:
            position = count
        elif store.firsts[block] > target:
            position = block * store.block_size
        else:
            keys = store.block(block)[0]
            position = block * store.block_size + bisect.bisect_right(
                keys, target
            )
        return min(max(position, lo), hi)
