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
node-type id and the occurrence count.  A block's first posting is coded
against the last key of the block before it, which the header carries;
a list of at most ``block_size`` postings is one block.

:func:`encode_posting_payload` is the one encoder and
:func:`decode_payload` the one decoder.  The opener,
:meth:`repro.index.inverted.InvertedList.open`, reads the header
(:func:`decode_header`, which checks every invariant up front); the
first read of a column decodes the whole list, once — every block's
CRC checked, then every posting turned into :class:`PostingArrays`,
the flat arrays the scan kernels read.  Both run in C when the compiled
kernels are (:mod:`repro.kernels.backend`); the Python loops here are
the reference, byte for byte and array for array.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from bisect import bisect_left
from collections import namedtuple
from itertools import accumulate, chain

from ..errors import IndexingError, KeyEncodingError
from ..storage import decode_uvarint, encode_uvarint

#: Postings per block: the unit a CRC covers and a header key bounds.
DEFAULT_BLOCK_SIZE = 256

_CRC = struct.Struct("<I")

_INT64_MAX = (1 << 63) - 1

#: What a block fault is called, by the code both decoders return
#: (``repro_decode_payload`` documents the same numbers).
_BLOCK_FAULTS = {
    1: "is truncated",
    2: "shares more components than the key before it has",
    3: "holds postings out of document order",
    4: "names an unknown node type",
    5: "has bytes past its postings",
    6: "disagrees with its header",
    7: "holds a value past the int64 range",
    9: "has a header the decoder cannot walk",
}
_FLAT_TOO_SMALL = 8

PostingArrays = namedtuple(
    "PostingArrays",
    "flat offs tids counts pid_flat starts ends root_count",
)
PostingArrays.__doc__ = """One decoded posting list, as the kernels read it.

Key ``i`` is ``flat[offs[i]:offs[i + 1]]`` (``int64`` components), its
interned node-type id ``tids[i]`` (typecode ``H``, or ``I`` past 65,536
types) and its occurrence count ``counts[i]``.  Partition ``j`` — the
run of keys whose first two components are ``pid_flat[2j:2j + 2]`` — is
the posting range ``[starts[j], ends[j])``; ``root_count`` keys are
shorter than two components and belong to no partition (Def. 6.1).
"""


def type_id_typecode(type_table):
    """``array`` typecode of a column of ids interned in ``type_table``.

    2 B/posting while the table fits a ``uint16``, 4 B beyond.  The
    table only grows, so a code chosen when a payload is decoded holds
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
    # Imported here: repro.kernels imports repro.core, which imports
    # this package.
    from ..kernels import backend

    lib = backend.compiled
    if lib is not None:
        columns = [
            column if isinstance(column, (list, array)) else list(column)
            for column in (keys, type_ids, counts)
        ]
        payload = _encode_compiled(lib, *columns, block_size)
        if payload is not None:
            return payload
        keys, type_ids, counts = columns
    return _encode_python(keyword, keys, type_ids, counts, block_size)


def _encode_compiled(lib, keys, type_ids, counts, block_size):
    """``repro_encode_run`` over the columns, the block CRCs filled in
    with :func:`zlib.crc32`; ``None`` for input the Python encoder must
    judge (out of order, negative, or past the ``int64`` range)."""
    try:
        flat = array("q", chain.from_iterable(keys))
        offs = array("q", accumulate(map(len, keys), initial=0))
        tids = array("q", type_ids)
        occurrences = array("q", counts)
    except OverflowError:
        return None
    count = min(len(keys), len(tids), len(occurrences))
    slots = array("q", bytes(16 * -(-count // block_size)))
    capacity = 16 + 8 * count + 2 * len(flat) + 4 * len(slots)
    while True:
        out = bytearray(capacity)
        size = lib.lib.repro_encode_run(
            lib.i64(flat), lib.i64(offs), lib.i64(tids), lib.i64(occurrences),
            count, block_size, lib.ffi.from_buffer(out), capacity,
            lib.i64(slots),
        )
        if size <= capacity:
            break
        capacity = size
    if size < 0:
        return None
    del out[size:]
    view = memoryview(out)
    starts = slots[1::2]
    for block, (crc_at, lo) in enumerate(zip(slots[0::2], starts)):
        hi = starts[block + 1] if block + 1 < len(starts) else size
        _CRC.pack_into(out, crc_at, zlib.crc32(view[lo:hi]))
    view.release()
    return bytes(out)


def _encode_python(keyword, keys, type_ids, counts, block_size):
    """The reference encoder ``repro_encode_run`` must match."""
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
    or reordered header fails loudly at open time.
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


def decode_payload(keyword, payload, header, type_table):
    """``(PostingArrays, keys)`` of one payload whose ``header`` is
    :func:`decode_header`'s.

    Every block's CRC is checked first, then every posting is decoded
    — by ``repro_decode_payload`` when the compiled kernels are active,
    else by the Python twin, which also returns the key tuples it built
    on the way (``keys`` is ``None`` from C).  Either raises the same
    :class:`IndexingError`, naming the keyword and the block, for a
    payload that is not what an encoder writes.
    """
    _block_size, count, offsets, crcs, _firsts, _lasts = header
    view = memoryview(payload)
    for block, crc in enumerate(crcs):
        if zlib.crc32(view[offsets[block]:offsets[block + 1]]) != crc:
            raise IndexingError(
                f"block {block} of {keyword!r} fails its checksum"
            )
    code = type_id_typecode(type_table)
    if not count:
        return _empty_arrays(code), []
    from ..kernels import backend

    lib = backend.compiled
    if lib is not None:
        return _decode_compiled(lib, keyword, payload, header,
                                len(type_table), code), None
    return _decode_python(keyword, view, header, len(type_table), code)


def _empty_arrays(code):
    return PostingArrays(array("q"), array("q", [0]), array(code),
                         array("q"), array("q"), array("q"), array("q"), 0)


def _block_fault(keyword, block, code):
    return IndexingError(
        f"block {block} of {keyword!r} {_BLOCK_FAULTS[code]}"
    )


def _decode_compiled(lib, keyword, payload, header, known_types, code):
    _block_size, count, _offsets, _crcs, firsts, lasts = header
    tids = array(code, bytes(array(code).itemsize * count))
    offs = array("q", bytes(8 * (count + 1)))
    counts = array("q", bytes(8 * count))
    pid_flat = array("q", bytes(16 * count))
    starts = array("q", bytes(8 * count))
    ends = array("q", bytes(8 * count))
    info = array("q", bytes(32))
    # The header's keys are a fair guess at the depth of the rest.
    capacity = count * (1 + max(map(len, firsts + lasts)))
    while True:
        flat = array("q", bytes(8 * capacity))
        status = lib.lib.repro_decode_payload(
            lib.ffi.from_buffer("uint8_t[]", payload), len(payload),
            known_types, tids.itemsize, lib.i64(flat), capacity,
            lib.i64(offs), lib.ffi.from_buffer(tids), lib.i64(counts),
            lib.i64(pid_flat), lib.i64(starts), lib.i64(ends),
            lib.i64(info),
        )
        if status != _FLAT_TOO_SMALL:
            break
        capacity = max(info[0], 2 * capacity)
    if status:
        raise _block_fault(keyword, info[3], status)
    partitions = info[1]
    del flat[info[0]:]
    del pid_flat[2 * partitions:]
    del starts[partitions:]
    del ends[partitions:]
    return PostingArrays(flat, offs, tids, counts, pid_flat, starts, ends,
                         info[2])


def _decode_python(keyword, view, header, known_types, code):
    """The reference decoder ``repro_decode_payload`` must match."""
    block_size, count, offsets, _crcs, firsts, lasts = header
    keys = []
    tids = array(code)
    counts = array("q")
    for block in range(len(offsets) - 1):
        first = len(keys)
        fault = decode_posting_run(
            view[offsets[block]:offsets[block + 1]],
            min(block_size, count - first), known_types, keys, tids, counts,
        )
        if not fault and (keys[first] != firsts[block]
                          or keys[-1] != lasts[block]):
            fault = 6
        if fault:
            raise _block_fault(keyword, block, fault)
    flat = array("q", chain.from_iterable(keys))
    offs = array("q", accumulate(map(len, keys), initial=0))
    return PostingArrays(flat, offs, tids, counts,
                         *partition_table(keys)), keys


def decode_posting_run(raw, count, known_types, keys, tids, counts):
    """Append the ``count`` delta-coded postings of one block to the
    three columns.

    The block's first posting is coded against ``keys[-1]`` (or the
    empty key).  Returns 0, or the code of the first fault met (see
    ``_BLOCK_FAULTS``), checked in the order ``repro_decode_payload``
    checks them.
    """
    previous = keys[-1] if keys else ()
    pos = 0
    try:
        for _ in range(count):
            shared, pos = decode_uvarint(raw, pos)
            if shared > len(previous):
                return 2
            suffix_len, pos = decode_uvarint(raw, pos)
            suffix = []
            for _ in range(suffix_len):
                part, pos = decode_uvarint(raw, pos)
                if part > _INT64_MAX:
                    return 7
                suffix.append(part)
            components = previous[:shared] + tuple(suffix)
            if components <= previous:
                return 3
            type_id, pos = decode_uvarint(raw, pos)
            if type_id >= known_types:
                return 4
            occurrences, pos = decode_uvarint(raw, pos)
            if occurrences > _INT64_MAX:
                return 7
            keys.append(components)
            tids.append(type_id)
            counts.append(occurrences)
            previous = components
    except KeyEncodingError:
        return 1
    return 5 if pos != len(raw) else 0


def partition_table(keys):
    """``(pid_flat, starts, ends, root_count)`` of a document-ordered
    key column, as :class:`PostingArrays` holds them.

    One bisect per partition jumps past it, so the walk never touches a
    posting twice.
    """
    pid_flat = array("q")
    starts = array("q")
    ends = array("q")
    root_count = 0
    position = 0
    size = len(keys)
    while position < size:
        key = keys[position]
        if len(key) < 2:
            # A root posting belongs to no partition (Def. 6.1).
            root_count += 1
            position += 1
            continue
        end = bisect_left(keys, (key[0], key[1] + 1), position)
        pid_flat.extend(key[:2])
        starts.append(position)
        ends.append(end)
        position = end
    return pid_flat, starts, ends, root_count
