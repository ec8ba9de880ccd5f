"""Block-structured posting columns (frozen format v3).

A frozen snapshot stores each keyword's posting payload as one
delta+varint byte string (see :meth:`InvertedIndex.add_postings`).
For long lists, decoding the whole payload on first touch costs memory
and latency proportional to the full list even when the scan's early
stop would have visited a fraction of it.  Format v3 therefore adds a
*block directory* section: the payload bytes are left untouched (so
shared-memory publication and `verify-diff` byte-identity are
preserved), but a per-keyword directory carves them into fixed-size
blocks of ``block_size`` postings each, recording for every block

* the byte offset range of the block inside the payload,
* a CRC32 of those bytes,
* the first and last (max) Dewey component tuple in the block.

The first/last keys serve double duty: the *last* key of block ``i-1``
is the delta-decode carry-in of block ``i`` (so any block can be
decoded in isolation), and it is also the block-max bound that lets
the kernels' presence probes and :class:`LazyDeweyKeys` binary
searches reject a Dewey range from the headers alone — a pruned block
is never decoded at all.

:class:`BlockedInvertedList` is a drop-in :class:`InvertedList` whose
three columns are lazy sequences backed by a per-list block cache;
every decoded block is memoized so a scan pays for each block at most
once.
"""

from __future__ import annotations

import bisect
import struct
import zlib

from ..errors import IndexingError, KeyEncodingError
from ..storage import decode_uvarint, encode_key, encode_uvarint
from ..xmltree.dewey import descendant_range_key
from .inverted import InvertedList, decode_posting_run, type_id_typecode

#: Postings per block.  256 keeps block decode under ~100us in pure
#: python while a 1M-posting list still needs only ~4k header entries.
DEFAULT_BLOCK_SIZE = 256

#: Directories are only built for lists that span more than one block —
#: a single-block list would pay header overhead for zero laziness.
_CRC = struct.Struct("<I")


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


def build_block_directory_payload(payload, block_size):
    """Build the encoded directory for one posting payload.

    Returns ``None`` for lists that fit in a single block (no
    directory is stored and the list decodes eagerly, exactly as in
    format v2).  The payload bytes themselves are never rewritten.
    """
    if block_size < 1:
        raise IndexingError(f"block size must be >= 1, got {block_size}")
    total, pos = decode_uvarint(payload, 0)
    if total <= block_size:
        return None
    offsets = []
    firsts = []
    lasts = []
    previous = ()
    for i in range(total):
        if i % block_size == 0:
            offsets.append(pos)
        shared, pos = decode_uvarint(payload, pos)
        suffix_len, pos = decode_uvarint(payload, pos)
        suffix = []
        for _ in range(suffix_len):
            part, pos = decode_uvarint(payload, pos)
            suffix.append(part)
        components = previous[:shared] + tuple(suffix)
        _, pos = decode_uvarint(payload, pos)  # interned type id
        _, pos = decode_uvarint(payload, pos)  # occurrence count
        if i % block_size == 0:
            firsts.append(components)
        if i % block_size == block_size - 1 or i == total - 1:
            lasts.append(components)
        previous = components
    offsets.append(pos)

    out = bytearray()
    out += encode_uvarint(block_size)
    out += encode_uvarint(total)
    out += encode_uvarint(len(firsts))
    previous_offset = 0
    for offset in offsets:
        out += encode_uvarint(offset - previous_offset)
        previous_offset = offset
    for index in range(len(firsts)):
        lo, hi = offsets[index], offsets[index + 1]
        out += _CRC.pack(zlib.crc32(payload[lo:hi]))
        _encode_components(out, firsts[index])
        _encode_components(out, lasts[index])
    return bytes(out)


class BlockDirectory:
    """Decoded per-keyword block directory."""

    __slots__ = ("block_size", "count", "offsets", "crcs", "firsts", "lasts")

    def __init__(self, block_size, count, offsets, crcs, firsts, lasts):
        self.block_size = block_size
        self.count = count
        self.offsets = offsets
        self.crcs = crcs
        self.firsts = firsts
        self.lasts = lasts

    @property
    def block_count(self):
        return len(self.crcs)

    def postings_in_block(self, index):
        if index == len(self.crcs) - 1:
            return self.count - index * self.block_size
        return self.block_size


def decode_block_directory(keyword, raw):
    """Decode and validate one keyword's directory record.

    Every structural invariant is checked up front — offsets strictly
    ascending, first <= last within each block, blocks strictly
    ordered and non-overlapping in key space — so a corrupted or
    reordered directory fails loudly at open time instead of silently
    mis-routing binary searches later.
    """
    try:
        block_size, pos = decode_uvarint(raw, 0)
        count, pos = decode_uvarint(raw, pos)
        block_count, pos = decode_uvarint(raw, pos)
        if block_size < 1 or block_count < 1:
            raise IndexingError(
                f"block directory for {keyword!r} has an empty geometry"
            )
        expected_blocks = -(-count // block_size)
        if block_count != expected_blocks:
            raise IndexingError(
                f"block directory for {keyword!r} declares {block_count} "
                f"blocks for {count} postings of {block_size}"
            )
        offsets = []
        offset = 0
        for _ in range(block_count + 1):
            delta, pos = decode_uvarint(raw, pos)
            offset += delta
            offsets.append(offset)
        crcs = []
        firsts = []
        lasts = []
        for _ in range(block_count):
            (crc,) = _CRC.unpack_from(raw, pos)
            pos += _CRC.size
            first, pos = _decode_components(raw, pos)
            last, pos = _decode_components(raw, pos)
            crcs.append(crc)
            firsts.append(first)
            lasts.append(last)
    except (KeyEncodingError, struct.error) as exc:
        raise IndexingError(
            f"block directory for {keyword!r} is truncated or corrupt"
        ) from exc
    for index in range(block_count):
        if offsets[index] >= offsets[index + 1]:
            raise IndexingError(
                f"block directory for {keyword!r} has non-ascending offsets"
            )
        if firsts[index] > lasts[index]:
            raise IndexingError(
                f"block directory for {keyword!r} has an inverted block"
            )
        if index and lasts[index - 1] >= firsts[index]:
            raise IndexingError(
                f"block directory for {keyword!r} has out-of-order blocks"
            )
    return BlockDirectory(block_size, count, offsets, crcs, firsts, lasts)


class BlockStore:
    """Per-list cache of lazily decoded blocks.

    ``payload`` stays a memoryview over the snapshot mmap; a block's
    bytes are only copied (and CRC-checked, and varint-decoded) the
    first time something touches a posting inside it.
    """

    __slots__ = (
        "keyword",
        "payload",
        "directory",
        "type_table",
        "type_id_code",
        "_decoded",
        "blocks_decoded",
    )

    def __init__(self, keyword, payload, directory, type_table):
        self.keyword = keyword
        self.payload = payload
        self.directory = directory
        self.type_table = type_table
        #: One typecode for every block's id column, so whole-list
        #: consumers can concatenate them.
        self.type_id_code = type_id_typecode(type_table)
        self._decoded = {}
        self.blocks_decoded = 0

    def block(self, index):
        """``(dewey_keys, type_ids, counts)`` of one block, decoded at
        most once."""
        cached = self._decoded.get(index)
        if cached is not None:
            return cached
        directory = self.directory
        lo, hi = directory.offsets[index], directory.offsets[index + 1]
        chunk = bytes(self.payload[lo:hi])
        if zlib.crc32(chunk) != directory.crcs[index]:
            raise IndexingError(
                f"block {index} of {self.keyword!r} fails its checksum"
            )
        expected = directory.postings_in_block(index)
        previous = directory.lasts[index - 1] if index else ()
        try:
            decoded = decode_posting_run(
                self.keyword, chunk, 0, expected, previous,
                self.type_table, self.type_id_code,
            )
        except KeyEncodingError as exc:
            raise IndexingError(
                f"block {index} of {self.keyword!r} is truncated"
            ) from exc
        keys = decoded[0]
        if (
            keys[0] != directory.firsts[index]
            or keys[-1] != directory.lasts[index]
        ):
            raise IndexingError(
                f"block {index} of {self.keyword!r} disagrees with its "
                "directory header"
            )
        self._decoded[index] = decoded
        self.blocks_decoded += 1
        return decoded


class _LazyBlockSequence:
    """Sequence protocol over the blocks, decoding only what's touched."""

    __slots__ = ("_store",)

    #: 0 selects dewey keys, 1 interned type ids, 2 occurrence counts.
    _column = 0

    def __init__(self, store):
        self._store = store

    def __len__(self):
        return self._store.directory.count

    def __iter__(self):
        store = self._store
        column = self._column
        for index in range(store.directory.block_count):
            yield from store.block(index)[column]

    def __getitem__(self, index):
        store = self._store
        directory = store.directory
        count = directory.count
        if isinstance(index, slice):
            lo, hi, step = index.indices(count)
            if step != 1:
                return [self[i] for i in range(lo, hi, step)]
            return self._range(lo, hi)
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("posting index out of range")
        block, within = divmod(index, directory.block_size)
        return store.block(block)[self._column][within]

    def _range(self, lo, hi):
        if lo >= hi:
            return []
        store = self._store
        size = store.directory.block_size
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
        directory = self._store.directory
        count = directory.count
        if hi is None:
            hi = count
        block = bisect.bisect_left(directory.lasts, target)
        if block >= directory.block_count:
            position = count
        elif directory.firsts[block] >= target:
            position = block * directory.block_size
        else:
            keys = self._store.block(block)[0]
            position = block * directory.block_size + bisect.bisect_left(
                keys, target
            )
        return min(max(position, lo), hi)

    def bisect_right(self, target, lo=0, hi=None):
        directory = self._store.directory
        count = directory.count
        if hi is None:
            hi = count
        block = bisect.bisect_right(directory.lasts, target)
        if block >= directory.block_count:
            position = count
        elif directory.firsts[block] > target:
            position = block * directory.block_size
        else:
            keys = self._store.block(block)[0]
            position = block * directory.block_size + bisect.bisect_right(
                keys, target
            )
        return min(max(position, lo), hi)


class BlockedInvertedList(InvertedList):
    """An :class:`InvertedList` whose columns decode one block at a time."""

    __slots__ = ("_blocks",)

    @classmethod
    def open(cls, keyword, payload, directory, type_table):
        store = BlockStore(keyword, payload, directory, type_table)
        instance = cls(
            keyword, LazyDeweyKeys(store), LazyTypeIds(store),
            LazyCounts(store), type_table,
        )
        instance._blocks = store
        return instance

    @property
    def block_store(self):
        return self._blocks

    def range_indices(self, root_dewey):
        keys = self._dewey_keys
        lo = keys.bisect_left(root_dewey.components)
        hi = keys.bisect_left(descendant_range_key(root_dewey))
        return lo, hi

    def block_intervals(self):
        """``(firsts, lasts)`` of the block headers (no decode)."""
        directory = self._blocks.directory
        return directory.firsts, directory.lasts


class BlockDirectoryTable:
    """Keyword -> :class:`BlockDirectory` lookups over the v3 section.

    Directory records decode lazily and memoize; a keyword without a
    record (short list) resolves to ``None`` and the caller falls back
    to the eager whole-payload decode.
    """

    __slots__ = ("_block", "_decoded")

    def __init__(self, kv_block):
        self._block = kv_block
        self._decoded = {}

    def directory_for(self, keyword):
        if keyword in self._decoded:
            return self._decoded[keyword]
        raw = self._block.get(encode_key((keyword,)))
        directory = (
            None if raw is None
            else decode_block_directory(keyword, bytes(raw))
        )
        self._decoded[keyword] = directory
        return directory

    def open_list(self, keyword, payload, type_table):
        """A :class:`BlockedInvertedList` over ``payload``, or ``None``.

        ``None`` means "no directory applies" — either the list is
        short, or the payload is not the frozen bytes the directory
        was built over (callers must only pass pristine base values;
        the length check is a second line of defense).
        """
        directory = self.directory_for(keyword)
        if directory is None:
            return None
        if len(payload) != directory.offsets[-1]:
            return None
        return BlockedInvertedList.open(keyword, payload, directory, type_table)
