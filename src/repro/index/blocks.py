"""The posting payload: a count, a CRC-32, then a delta-varint body.

Every stored inverted-list record — a built index's, a frozen
snapshot's, a delta layer's, and the zero-posting record an absent
keyword opens as — is one byte string::

    count | CRC-32 | body

``count`` is a uvarint and the CRC a little-endian ``u32`` over the
count's bytes and the body.  The body holds the postings in document
order, each as the length of the prefix it shares with the previous key
(the first is coded against the empty key), the number of remaining
components and their values, the interned node-type id and the
occurrence count — all uvarints, so a posting takes at least four body
bytes.

:func:`encode_posting_arrays` is the one encoder (over the packed
key arrays; :func:`encode_posting_payload` packs component tuples for
it) and :func:`decode_payload` the one decoder.  The opener,
:meth:`repro.index.inverted.InvertedList.open`, reads the count and the
CRC (:func:`decode_header`, which refuses a count the body cannot hold)
and nothing else; the first read of a column decodes the whole list,
once — the CRC checked, then every posting turned into
:class:`PostingArrays`, the flat arrays the scan kernels read.  Both
run in C when the compiled kernels are (:mod:`repro.kernels.backend`);
the Python loops here are the reference, byte for byte and array for
array.  The arrays are a decoded list's one form on either backend: no
key tuple outlives the decode.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from collections import namedtuple
from itertools import accumulate, chain, islice

from ..errors import IndexingError, KeyEncodingError
from ..storage import decode_uvarint, encode_uvarint
from ..xmltree.dewey import shared_prefix_length

_CRC = struct.Struct("<I")

_INT64_MAX = (1 << 63) - 1

#: The fewest body bytes a posting takes: four uvarints of one byte.
_MIN_POSTING_BYTES = 4

#: What a decode fault is called, by the code both decoders return
#: (``repro_decode_payload`` documents the same numbers).
_FAULTS = {
    1: "is truncated",
    2: "has a key sharing more components than the key before it has",
    3: "holds postings out of document order",
    4: "names an unknown node type",
    5: "has bytes past its postings",
    7: "holds a value past the int64 range",
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


def encode_posting_payload(keyword, keys, type_ids, counts):
    """One keyword's postings as a payload.

    ``keys``, ``type_ids`` and ``counts`` are the three columns, as
    iterables of equal length.  The keys must be strictly ascending
    component tuples: document order is checked here, where every list
    is written.  They are packed and handed to
    :func:`encode_posting_arrays`; a component past the ``int64`` range
    cannot be packed, and the Python encoder writes it as it is (the
    decoders refuse it).
    """
    keys = keys if isinstance(keys, list) else list(keys)
    try:
        flat, offs = pack_keys(keys)
    except OverflowError:
        return _encode_python(keyword, keys, type_ids, counts)
    return encode_posting_arrays(keyword, flat, offs, type_ids, counts)


def encode_posting_arrays(keyword, flat, offs, type_ids, counts):
    """One keyword's postings as a payload, its key column packed as
    ``int64`` ``(flat, offs)`` arrays (key ``i`` is
    ``flat[offs[i]:offs[i + 1]]``) — how a list update merges them."""
    # Imported here: repro.kernels imports repro.core, which imports
    # this package.
    from ..kernels import backend

    lib = backend.compiled
    if lib is not None:
        # Lists, so the Python encoder can still read what the C
        # encoder declined.
        type_ids, counts = [
            column if isinstance(column, (list, array)) else list(column)
            for column in (type_ids, counts)
        ]
        payload = _encode_compiled(lib, flat, offs, type_ids, counts)
        if payload is not None:
            return payload
    keys = map(flat.__getitem__, map(slice, offs, islice(offs, 1, None)))
    return _encode_python(keyword, keys, type_ids, counts, flat[:0])


def pack_keys(keys):
    """``(flat, offs)`` ``int64`` arrays of a sequence of component
    tuples, as :class:`PostingArrays` holds a key column."""
    return (array("q", chain.from_iterable(keys)),
            array("q", accumulate(map(len, keys), initial=0)))


def _payload_crc(payload, body_start):
    """The CRC-32 of a payload: its count's bytes, then its body."""
    with memoryview(payload) as view:
        return zlib.crc32(view[body_start:],
                          zlib.crc32(view[:body_start - _CRC.size]))


def _encode_compiled(lib, flat, offs, type_ids, counts):
    """``repro_encode_run`` over the columns, the CRC filled in with
    :func:`zlib.crc32`; ``None`` for input the Python encoder must
    judge (out of order, negative, or past the ``int64`` range)."""
    try:
        tids = array("q", type_ids)
        occurrences = array("q", counts)
    except OverflowError:
        return None
    count = min(len(offs) - 1, len(tids), len(occurrences))
    capacity = 16 + 8 * count + 2 * len(flat)
    while True:
        out = bytearray(capacity)
        size = lib.lib.repro_encode_run(
            lib.i64(flat), lib.i64(offs), lib.i64(tids), lib.i64(occurrences),
            count, lib.ffi.from_buffer(out), capacity,
        )
        if size <= capacity:
            break
        capacity = size
    if size < 0:
        return None
    del out[size:]
    body_start = len(encode_uvarint(count)) + _CRC.size
    _CRC.pack_into(out, body_start - _CRC.size, _payload_crc(out, body_start))
    return bytes(out)


def _encode_python(keyword, keys, type_ids, counts, previous=()):
    """The reference encoder ``repro_encode_run`` must match.

    ``previous`` is the empty key, of the type the keys are (a tuple,
    or an ``array`` slice), so the first key compares against it."""
    body = bytearray()
    count = 0
    for components, type_id, occurrences in zip(keys, type_ids, counts):
        if components <= previous:
            raise IndexingError(
                f"postings for {keyword!r} are not in document order"
            )
        shared = shared_prefix_length(previous, components)
        body += encode_uvarint(shared)
        body += encode_uvarint(len(components) - shared)
        for part in components[shared:]:
            body += encode_uvarint(part)
        body += encode_uvarint(type_id)
        body += encode_uvarint(occurrences)
        previous = components
        count += 1
    head = encode_uvarint(count)
    return head + _CRC.pack(zlib.crc32(body, zlib.crc32(head))) + bytes(body)


def decode_header(keyword, payload):
    """``(count, crc, body_start)`` of one keyword's payload.

    Reads the count and the CRC and nothing else, so opening a list
    never touches its body.  A header cut short, or a count larger than
    the body can hold (every posting takes at least
    ``_MIN_POSTING_BYTES``), is refused here, before anything is
    allocated for it.
    """
    try:
        count, pos = decode_uvarint(payload, 0)
        (crc,) = _CRC.unpack_from(payload, pos)
    except (KeyEncodingError, struct.error) as exc:
        raise IndexingError(
            f"posting list for {keyword!r} has a truncated or corrupt header"
        ) from exc
    body_start = pos + _CRC.size
    body_size = len(payload) - body_start
    if count > body_size // _MIN_POSTING_BYTES:
        raise IndexingError(
            f"posting list for {keyword!r} declares {count} postings, "
            f"more than its {body_size}-byte body can hold"
        )
    return count, crc, body_start


def decode_payload(keyword, payload, header, type_table):
    """The :class:`PostingArrays` of one payload whose ``header`` is
    :func:`decode_header`'s.

    The CRC is checked first, then every posting is decoded — by
    ``repro_decode_payload`` when the compiled kernels are active, else
    by the Python twin.  Either raises the same :class:`IndexingError`,
    naming the keyword, for a payload that is not what an encoder
    writes.
    """
    count, crc, body_start = header
    if _payload_crc(payload, body_start) != crc:
        raise IndexingError(f"posting list for {keyword!r} fails its checksum")
    code = type_id_typecode(type_table)
    if not count:
        return _empty_arrays(code)
    from ..kernels import backend

    lib = backend.compiled
    body = memoryview(payload)[body_start:]
    if lib is not None:
        return _decode_compiled(lib, keyword, body, count, len(type_table),
                                code)
    return _decode_python(keyword, body, count, len(type_table), code)


def _empty_arrays(code):
    return PostingArrays(array("q"), array("q", [0]), array(code),
                         array("q"), array("q"), array("q"), array("q"), 0)


def _fault(keyword, code):
    return IndexingError(f"posting list for {keyword!r} {_FAULTS[code]}")


def _decode_compiled(lib, keyword, body, count, known_types, code):
    tids = array(code, bytes(array(code).itemsize * count))
    offs = array("q", bytes(8 * (count + 1)))
    counts = array("q", bytes(8 * count))
    pid_flat = array("q", bytes(16 * count))
    starts = array("q", bytes(8 * count))
    ends = array("q", bytes(8 * count))
    info = array("q", bytes(24))
    # The first key shares nothing, so the byte after its shared length
    # is its depth (below 128): a fair guess at the depth of the rest.
    capacity = count * (1 + min(body[1], 64))
    while True:
        flat = array("q", bytes(8 * capacity))
        status = lib.lib.repro_decode_payload(
            lib.ffi.from_buffer("uint8_t[]", body), len(body), count,
            known_types, tids.itemsize, lib.i64(flat), capacity,
            lib.i64(offs), lib.ffi.from_buffer(tids), lib.i64(counts),
            lib.i64(pid_flat), lib.i64(starts), lib.i64(ends),
            lib.i64(info),
        )
        if status != _FLAT_TOO_SMALL:
            break
        capacity = max(info[0], 2 * capacity)
    if status:
        raise _fault(keyword, status)
    partitions = info[1]
    del flat[info[0]:]
    del pid_flat[2 * partitions:]
    del starts[partitions:]
    del ends[partitions:]
    return PostingArrays(flat, offs, tids, counts, pid_flat, starts, ends,
                         info[2])


def _decode_python(keyword, body, count, known_types, code):
    """The reference decoder ``repro_decode_payload`` must match."""
    flat = array("q")
    offs = array("q", [0])
    tids = array(code)
    counts = array("q")
    fault = decode_posting_run(body, count, known_types, flat, offs, tids,
                               counts)
    if fault:
        raise _fault(keyword, fault)
    return PostingArrays(flat, offs, tids, counts,
                         *partition_table(flat, offs))


def decode_posting_run(raw, count, known_types, flat, offs, tids, counts):
    """Append the ``count`` delta-coded postings of a payload body to
    the (empty) columns, ``offs`` holding just its leading 0.

    Returns 0, or the code of the first fault met (see ``_FAULTS``),
    checked in the order ``repro_decode_payload`` checks them.
    """
    previous = []
    pos = 0
    try:
        for _ in range(count):
            shared, pos = decode_uvarint(raw, pos)
            if shared > len(previous):
                return 2
            suffix_len, pos = decode_uvarint(raw, pos)
            components = previous[:shared]
            for _ in range(suffix_len):
                part, pos = decode_uvarint(raw, pos)
                if part > _INT64_MAX:
                    return 7
                components.append(part)
            if components <= previous:
                return 3
            type_id, pos = decode_uvarint(raw, pos)
            if type_id >= known_types:
                return 4
            occurrences, pos = decode_uvarint(raw, pos)
            if occurrences > _INT64_MAX:
                return 7
            flat.extend(components)
            offs.append(len(flat))
            tids.append(type_id)
            counts.append(occurrences)
            previous = components
    except KeyEncodingError:
        return 1
    return 5 if pos != len(raw) else 0


def partition_table(flat, offs):
    """``(pid_flat, starts, ends, root_count)`` of a document-ordered
    ``(flat, offs)`` key column, as :class:`PostingArrays` holds them.

    One pass over the keys, the walk ``repro_decode_payload`` makes.
    """
    pid_flat = array("q")
    starts = array("q")
    ends = array("q")
    root_count = 0
    first = second = None
    for i in range(len(offs) - 1):
        start = offs[i]
        if offs[i + 1] - start < 2:
            # A root posting belongs to no partition (Def. 6.1).
            root_count += 1
        elif flat[start] == first and flat[start + 1] == second:
            ends[-1] = i + 1
        else:
            first = flat[start]
            second = flat[start + 1]
            pid_flat.extend((first, second))
            starts.append(i)
            ends.append(i + 1)
    return pid_flat, starts, ends, root_count
