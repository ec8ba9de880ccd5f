"""Order-preserving key encoding and compact value encoding.

The store (:mod:`repro.storage.kvstore`) works on ``bytes`` keys and
values, like Berkeley DB.  The index layer needs composite
keys — ``(keyword,)``, ``(keyword, node_type)``, ``(keyword, keyword,
node_type)`` — whose *byte* order must equal their tuple order so range
scans (e.g. "all entries for keyword k") work.  This module provides:

* :func:`encode_key` / :func:`decode_key` — order-preserving encoding
  of tuples of strings and non-negative ints;
* :func:`encode_uvarint` / :func:`decode_uvarint` — LEB128 varints used
  for value payloads;
* :func:`encode_sorted_kv_block` / :class:`SortedKVBlock` — a columnar,
  binary-searchable block of sorted key/value pairs, the section format
  of frozen index snapshots (:mod:`repro.index.frozen`).

Key encoding scheme
-------------------
Each tuple element is tagged with a type byte so heterogeneous tuples
compare sanely, then encoded so that byte order matches value order:

* strings: ``0x01`` + UTF-8 bytes with ``0x00`` escaped as ``0x00 0xFF``
  + terminator ``0x00 0x00``.  Escaping keeps embedded NULs sortable.
* ints: ``0x02`` + 8-byte big-endian unsigned.

A shorter tuple that is a prefix of a longer one sorts first, which is
exactly the semantics prefix range scans need.
"""

from __future__ import annotations

import struct

from ..errors import KeyEncodingError

_TAG_STR = b"\x01"
_TAG_INT = b"\x02"
_TERMINATOR = b"\x00\x00"
_ESCAPED_NUL = b"\x00\xff"


#: The one-byte varints, 0 to 127: most values a snapshot writes.
_ONE_BYTE_UVARINTS = tuple(bytes((value,)) for value in range(0x80))


def encode_uvarint(value):
    """Encode a non-negative int as a LEB128 varint."""
    if 0 <= value < 0x80:
        return _ONE_BYTE_UVARINTS[value]
    if value < 0:
        raise KeyEncodingError(f"uvarint cannot encode negative {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data, offset=0):
    """Decode a varint from ``data`` at ``offset``; returns (value, next)."""
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise KeyEncodingError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise KeyEncodingError("varint too long")


def encode_key(parts):
    """Encode a tuple of strings/ints into an order-preserving key."""
    out = bytearray()
    for part in parts:
        if isinstance(part, str):
            out += _TAG_STR
            out += part.encode("utf-8").replace(b"\x00", _ESCAPED_NUL)
            out += _TERMINATOR
        elif isinstance(part, int) and not isinstance(part, bool):
            if part < 0 or part >= 1 << 64:
                raise KeyEncodingError(f"int key part out of range: {part}")
            out += _TAG_INT
            out += part.to_bytes(8, "big")
        else:
            raise KeyEncodingError(
                f"unsupported key part type: {type(part).__name__}"
            )
    return bytes(out)


def decode_key(data):
    """Inverse of :func:`encode_key`."""
    parts = []
    pos = 0
    length = len(data)
    while pos < length:
        tag = data[pos : pos + 1]
        pos += 1
        if tag == _TAG_STR:
            chunk = bytearray()
            while True:
                if pos >= length:
                    raise KeyEncodingError("unterminated string key part")
                byte = data[pos]
                if byte == 0x00:
                    nxt = data[pos + 1] if pos + 1 < length else None
                    if nxt == 0xFF:
                        chunk.append(0x00)
                        pos += 2
                        continue
                    if nxt == 0x00:
                        pos += 2
                        break
                    raise KeyEncodingError("bad string escape in key")
                chunk.append(byte)
                pos += 1
            parts.append(bytes(chunk).decode("utf-8"))
        elif tag == _TAG_INT:
            if pos + 8 > length:
                raise KeyEncodingError("truncated int key part")
            parts.append(int.from_bytes(data[pos : pos + 8], "big"))
            pos += 8
        else:
            raise KeyEncodingError(f"unknown key tag byte {tag!r}")
    return tuple(parts)


def key_prefix_upper_bound(prefix):
    """Smallest byte string greater than every key extending ``prefix``.

    Used to turn a tuple prefix into a half-open byte range
    ``[encode_key(prefix), key_prefix_upper_bound(encode_key(prefix)))``.
    Returns ``None`` when the prefix is all ``0xFF`` (no upper bound).
    """
    data = bytearray(prefix)
    while data:
        if data[-1] != 0xFF:
            data[-1] += 1
            return bytes(data)
        data.pop()
    return None


# ----------------------------------------------------------------------
# Sorted key/value blocks (frozen snapshot sections)
# ----------------------------------------------------------------------
#
# Layout (all integers little-endian, fixed width):
#
#   count          u64
#   key_offsets    (count + 1) x u64, relative to the key blob
#   value_offsets  (count + 1) x u64, relative to the value blob
#   key_blob       all keys concatenated, in strictly ascending order
#   value_blob     all values concatenated, in key order
#
# The two offset columns make every key and value addressable without
# decoding anything else, so a reader over an mmap can binary-search
# the key column and slice one value lazily — the access pattern of a
# frozen inverted index.

_BLOCK_COUNT = struct.Struct("<Q")
_BLOCK_OFFSET = struct.Struct("<Q")


def encode_sorted_kv_block(pairs):
    """Encode ``(key, value)`` byte pairs into one columnar block.

    ``pairs`` must be strictly sorted by key (the order the store
    iterates in); violations raise
    :class:`KeyEncodingError` so a corrupt block can never be written.
    """
    keys = []
    values = []
    previous = None
    for key, value in pairs:
        key = bytes(key)
        if previous is not None and key <= previous:
            raise KeyEncodingError(
                "sorted KV block requires strictly ascending keys"
            )
        previous = key
        keys.append(key)
        values.append(bytes(value))
    count = len(keys)
    key_offsets = [0] * (count + 1)
    value_offsets = [0] * (count + 1)
    for i in range(count):
        key_offsets[i + 1] = key_offsets[i] + len(keys[i])
        value_offsets[i + 1] = value_offsets[i] + len(values[i])
    out = bytearray()
    out += _BLOCK_COUNT.pack(count)
    out += struct.pack(f"<{count + 1}Q", *key_offsets)
    out += struct.pack(f"<{count + 1}Q", *value_offsets)
    out += b"".join(keys)
    out += b"".join(values)
    return bytes(out)


class SortedKVBlock:
    """Zero-copy read view over an :func:`encode_sorted_kv_block` blob.

    ``buffer`` is any buffer-protocol object (typically a memoryview
    into an mmap); nothing is decoded up front.  Lookups binary-search
    the key column; values come back as memoryview slices into the
    underlying buffer, so callers that need owned bytes must copy.
    """

    __slots__ = ("_view", "_count", "_key_start", "_value_start")

    def __init__(self, buffer):
        view = memoryview(buffer)
        if len(view) < _BLOCK_COUNT.size:
            raise KeyEncodingError("sorted KV block shorter than its header")
        (count,) = _BLOCK_COUNT.unpack_from(view, 0)
        offsets_bytes = 2 * (count + 1) * _BLOCK_OFFSET.size
        key_start = _BLOCK_COUNT.size + offsets_bytes
        if len(view) < key_start:
            raise KeyEncodingError("sorted KV block truncated in offsets")
        self._view = view
        self._count = count
        self._key_start = key_start
        self._value_start = key_start + self._key_offset(count)
        if len(view) < self._value_start + self._value_offset(count):
            raise KeyEncodingError("sorted KV block truncated in blobs")

    # -- column accessors ------------------------------------------------
    def _key_offset(self, i):
        return _BLOCK_OFFSET.unpack_from(
            self._view, _BLOCK_COUNT.size + i * _BLOCK_OFFSET.size
        )[0]

    def _value_offset(self, i):
        base = _BLOCK_COUNT.size + (self._count + 1) * _BLOCK_OFFSET.size
        return _BLOCK_OFFSET.unpack_from(
            self._view, base + i * _BLOCK_OFFSET.size
        )[0]

    def key_at(self, i):
        """Key ``i`` as owned bytes."""
        lo = self._key_start + self._key_offset(i)
        hi = self._key_start + self._key_offset(i + 1)
        return bytes(self._view[lo:hi])

    def value_at(self, i):
        """Value ``i`` as a memoryview slice (no copy)."""
        lo = self._value_start + self._value_offset(i)
        hi = self._value_start + self._value_offset(i + 1)
        return self._view[lo:hi]

    # -- search ----------------------------------------------------------
    def bisect_left(self, key):
        """First index whose key is ``>= key``."""
        key = bytes(key)
        lo, hi = 0, self._count
        while lo < hi:
            mid = (lo + hi) // 2
            if self.key_at(mid) < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def find(self, key):
        """Index of ``key``, or -1 when absent."""
        key = bytes(key)
        idx = self.bisect_left(key)
        if idx < self._count and self.key_at(idx) == key:
            return idx
        return -1

    def get(self, key, default=None):
        """Value for ``key`` as a memoryview, or ``default``."""
        idx = self.find(key)
        if idx < 0:
            return default
        return self.value_at(idx)

    def __contains__(self, key):
        return self.find(key) >= 0

    def __len__(self):
        return self._count

    # -- iteration -------------------------------------------------------
    def keys(self):
        """All keys in ascending order (owned bytes)."""
        for i in range(self._count):
            yield self.key_at(i)

    def items(self):
        """All ``(key, value)`` pairs in key order (owned bytes)."""
        for i in range(self._count):
            yield self.key_at(i), bytes(self.value_at(i))

    def range(self, low=None, high=None):
        """Pairs with ``low <= key < high``, in key order (owned bytes)."""
        idx = 0 if low is None else self.bisect_left(low)
        while idx < self._count:
            key = self.key_at(idx)
            if high is not None and key >= high:
                return
            yield key, bytes(self.value_at(idx))
            idx += 1

    def __repr__(self):
        return f"SortedKVBlock({self._count} keys)"
