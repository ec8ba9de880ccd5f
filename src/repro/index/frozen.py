"""Frozen columnar index snapshots (single-file, mmap-served).

A frozen snapshot packs the entire :class:`~repro.index.builder.DocumentIndex`
into one versioned, checksummed binary file that the engine maps into
memory and serves **without an upfront decode**:

* Section 0 — the inverted index as a sorted key-value block: one
  record per keyword under the order-preserving key ``(keyword,)``,
  the value being the exact delta+varint posting payload that
  :func:`~repro.index.inverted.decode_posting_payload` understands
  (plus the reserved node-type-table record).  Keywords resolve by
  binary search over the mapped dictionary; posting lists decode
  lazily, per keyword, on first touch.
* Section 1 — the frequent table ``f_k^T`` / ``tf(k, T)`` under
  ``(keyword, type_id)`` keys.
* Section 2 — per-type ``N_T`` / ``G_T`` / term-total statistics.
* Section 3 — the document tree in a compact preorder binary form
  (interned tag table; per node: tag id, Dewey ordinal, child count,
  text).  Ordinals are stored explicitly because partition removal
  leaves sibling ordinals non-dense.
* Section 4 (format v3) — the block directory: per-keyword posting
  block headers (byte extents, CRC32, first/max Dewey per fixed-size
  block; see :mod:`repro.index.blocks`) plus the tree partition
  directory consumed by :mod:`repro.index.paged_tree`.  Directories
  describe the unchanged section-0/-3 bytes, so v3 adds laziness
  without touching any earlier section's encoding.

Opening a snapshot is O(header + tree): the header and section table
are validated (magic, format version, section bounds, CRC-32 over the
body), the tree is rebuilt, and the two big keyword-keyed sections
become :class:`~repro.storage.CowKVStore` bases — reads go straight to
the mapped bytes, while mutations (``append_partition`` /
``remove_partition``) copy the affected records into a private overlay
so the snapshot file on disk is never modified.
"""

from __future__ import annotations

import mmap
import os
import struct
import tempfile
import zlib

from ..errors import IndexingError
from ..storage import (
    CowKVStore,
    SortedKVBlock,
    decode_key,
    decode_uvarint,
    encode_key,
    encode_sorted_kv_block,
    encode_uvarint,
)
from ..xmltree.dewey import Dewey
from ..xmltree.tree import XMLNode, XMLTree
from .builder import DocumentIndex
from .cooccur import CooccurrenceTable
from .frequency import FrequencyTable
from .inverted import InvertedIndex
from .statistics import StatisticsTable

#: File magic — 8 bytes, never reused across incompatible layouts.
MAGIC = b"XRFZIDX\x01"
#: Bumped whenever the section layout or any section encoding changes.
#: Version 2 added the planner-calibration record to the statistics
#: section (an additive change: version-1 files stay readable, they
#: just carry no calibration and the planner falls back to its
#: uncalibrated defaults).  Version 3 added the block-directory
#: section (posting-block headers + tree partition directory); the
#: first four sections are encoded exactly as in version 2, so older
#: sections decode unchanged and v1/v2 files simply load without
#: lazy paging.
FORMAT_VERSION = 3
#: Versions this build can read.
_COMPAT_VERSIONS = (1, 2, 3)

_SECTION_INVERTED = 0
_SECTION_FREQUENCY = 1
_SECTION_STATISTICS = 2
_SECTION_TREE = 3
#: Version-3 only: block directories for long posting lists plus the
#: tree partition directory, as one sorted key-value block.
_SECTION_BLOCKS = 4
_SECTION_COUNT_V2 = 4
_SECTION_COUNT = 5

# magic + format_version u16 + section_count u16 + body crc32 u32
_HEADER = struct.Struct("<8sHHI")
_SECTION_ENTRY = struct.Struct("<QQ")  # offset, length (body-relative)

_STATS_VALUE = struct.Struct(">III")  # node_count, distinct, total_terms

#: Reserved statistics-section key holding the planner's cost-model
#: calibration (see :mod:`repro.plan.cost_model`).  The leading NUL
#: component can never collide with a real node type (tag names are
#: non-empty XML names) and sorts before every real key.
CALIBRATION_KEY = encode_key(("\x00calibration",))

#: Reserved block-section key holding the tree partition directory
#: (same NUL-prefix reservation trick as the calibration record).
TREE_PARTITIONS_KEY = encode_key(("\x00tree-partitions",))


# ----------------------------------------------------------------------
# Tree section codec
# ----------------------------------------------------------------------
def _encode_tree(tree):
    """Serialize an :class:`XMLTree` into the preorder binary form.

    Returns ``(section_bytes, partition_directory)``.  The section
    bytes are the exact preorder layout of format v1/v2 (root record
    followed by each partition's subtree records); the directory maps
    every partition ordinal to its byte offset within the node blob
    and its subtree node count, so a v3 reader can decode partitions
    independently (:mod:`repro.index.paged_tree`).
    """
    tag_ids = {}
    tag_table = []
    nodes = bytearray()
    total = 0

    def encode_record(node):
        nonlocal total
        total += 1
        tag_id = tag_ids.get(node.tag)
        if tag_id is None:
            tag_id = len(tag_table)
            tag_ids[node.tag] = tag_id
            tag_table.append(node.tag)
        text = node.text.encode("utf-8")
        nodes.extend(encode_uvarint(tag_id))
        nodes.extend(encode_uvarint(node.dewey.components[-1]))
        nodes.extend(encode_uvarint(len(node.children)))
        nodes.extend(encode_uvarint(len(text)))
        nodes.extend(text)

    root = tree.root
    encode_record(root)
    partitions = []
    for child in root.children:
        offset = len(nodes)
        before = total
        stack = [child]
        while stack:
            node = stack.pop()
            encode_record(node)
            stack.extend(reversed(node.children))
        partitions.append((child.dewey.components[-1], offset, total - before))

    directory = bytearray()
    directory.extend(encode_uvarint(len(partitions)))
    previous_offset = 0
    for ordinal, offset, node_count in partitions:
        directory.extend(encode_uvarint(ordinal))
        directory.extend(encode_uvarint(offset - previous_offset))
        directory.extend(encode_uvarint(node_count))
        previous_offset = offset

    out = bytearray()
    out += encode_uvarint(len(tag_table))
    for tag in tag_table:
        raw = tag.encode("utf-8")
        out += encode_uvarint(len(raw))
        out += raw
    out += encode_uvarint(total)
    out += nodes
    return bytes(out), bytes(directory)


#: Nodes decoded between ``pause()`` calls in a cooperative tree decode.
_TREE_DECODE_CHUNK = 512


def _decode_tree(view, pause=None):
    """Rebuild the :class:`XMLTree` from a mapped tree section.

    With ``pause`` set, the decode loop invokes it every
    ``_TREE_DECODE_CHUNK`` nodes — a cooperative yield point for
    loaders running next to live request threads (see
    :func:`load_frozen_index`).
    """
    tag_count, pos = decode_uvarint(view, 0)
    tags = []
    for _ in range(tag_count):
        length, pos = decode_uvarint(view, pos)
        tags.append(bytes(view[pos : pos + length]).decode("utf-8"))
        pos += length
    node_count, pos = decode_uvarint(view, pos)
    if node_count == 0:
        raise IndexingError("frozen snapshot tree section has no nodes")

    def read_node(pos):
        tag_id, pos = decode_uvarint(view, pos)
        ordinal, pos = decode_uvarint(view, pos)
        child_count, pos = decode_uvarint(view, pos)
        text_len, pos = decode_uvarint(view, pos)
        text = bytes(view[pos : pos + text_len]).decode("utf-8")
        return tags[tag_id], ordinal, child_count, text, pos + text_len

    tag, ordinal, child_count, text, pos = read_node(pos)
    root = XMLNode(tag, Dewey.from_trusted((ordinal,)), (tag,), text)
    stack = [(root, child_count)]
    for decoded in range(node_count - 1):
        if pause is not None and decoded and decoded % _TREE_DECODE_CHUNK == 0:
            pause()
        while stack and stack[-1][1] == 0:
            stack.pop()
        if not stack:
            raise IndexingError("frozen snapshot tree section is malformed")
        parent, remaining = stack[-1]
        stack[-1] = (parent, remaining - 1)
        tag, ordinal, child_count, text, pos = read_node(pos)
        node = XMLNode(
            tag,
            Dewey.from_trusted(parent.dewey.components + (ordinal,)),
            parent.node_type + (tag,),
            text,
        )
        parent.children.append(node)
        stack.append((node, child_count))
    return XMLTree(root)


# ----------------------------------------------------------------------
# Snapshot writer
# ----------------------------------------------------------------------
def _owned_items(store):
    for key, value in store.items():
        yield bytes(key), bytes(value)


def _calibration_pairs(index):
    """The statistics-section record carrying the planner calibration.

    Calibrated once per frozen snapshot: reuses the calibration already
    attached to ``index`` (a previous snapshot's, or a planner's) and
    micro-calibrates otherwise, so freezing is where the one-time
    timing cost is paid.
    """
    from ..plan.cost_model import calibration_for, encode_calibration

    calibration = calibration_for(index)
    return [(CALIBRATION_KEY, encode_calibration(calibration))]


def freeze_index(index, path, block_size=None):
    """Write ``index`` as a frozen snapshot file at ``path``.

    The write is crash-safe: bytes land in a temporary sibling file
    which is fsynced and atomically renamed over ``path``, so readers
    only ever observe a complete snapshot.

    ``block_size`` (postings per block, default
    :data:`repro.index.blocks.DEFAULT_BLOCK_SIZE`) controls the paging
    granularity of the v3 block directory; lists no longer than one
    block carry no directory and decode eagerly.
    """
    from .blocks import DEFAULT_BLOCK_SIZE, build_block_directory_payload

    if block_size is None:
        block_size = DEFAULT_BLOCK_SIZE
    if not isinstance(block_size, int) or isinstance(block_size, bool):
        raise IndexingError(
            f"block size must be an integer, got {block_size!r}"
        )
    if block_size < 1:
        raise IndexingError(f"block size must be >= 1, got {block_size}")

    index.inverted.save_metadata()
    if index.frequency._pending:
        index.frequency.finalize()

    statistics_pairs = sorted(
        [
            (
                encode_key(node_type),
                _STATS_VALUE.pack(
                    stats.node_count,
                    stats.distinct_keywords,
                    stats.total_terms,
                ),
            )
            for node_type, stats in index.statistics.items()
        ]
        + _calibration_pairs(index)
    )
    inverted_items = list(_owned_items(index.inverted._store))
    tree_section, tree_directory = _encode_tree(index.tree)
    sections = [
        encode_sorted_kv_block(inverted_items),
        encode_sorted_kv_block(_owned_items(index.frequency._store)),
        encode_sorted_kv_block(statistics_pairs),
        tree_section,
    ]
    if FORMAT_VERSION >= 3:
        types_key = encode_key((InvertedIndex._TYPES_KEY,))
        block_pairs = [(TREE_PARTITIONS_KEY, tree_directory)]
        for key, payload in inverted_items:
            if key == types_key:
                continue
            directory = build_block_directory_payload(payload, block_size)
            if directory is not None:
                block_pairs.append((key, directory))
        block_pairs.sort()
        sections.append(encode_sorted_kv_block(block_pairs))
    body = b"".join(sections)
    table = bytearray()
    offset = 0
    for section in sections:
        table += _SECTION_ENTRY.pack(offset, len(section))
        offset += len(section)
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, len(sections), zlib.crc32(body)
    )

    directory = os.path.dirname(os.path.abspath(path))
    fd, temp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(header)
            handle.write(table)
            handle.write(body)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    _fsync_directory(directory)
    return path


def _fsync_directory(directory):
    """Make a rename durable (best effort on filesystems without it)."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


# ----------------------------------------------------------------------
# Snapshot reader
# ----------------------------------------------------------------------
#: Chunk size for the open-time body checksum.  Bounds how many mapped
#: pages the validation sweep holds resident at once.
_CRC_CHUNK = 4 << 20


def _paging_checksum(mapped, body, body_start):
    """CRC-32 of ``body`` without faulting the whole file resident.

    A straight ``zlib.crc32(body)`` touches every mapped page and — on
    a host with free memory — leaves the entire snapshot resident, so
    opening a beyond-RAM corpus would cost RSS proportional to the
    *file*, defeating the paged layout before the first query.  Feed
    the CRC in chunks instead and ``madvise(MADV_DONTNEED)`` each
    validated stretch of pages, so peak residency during validation is
    one chunk; the pages re-fault on demand (from the page cache,
    typically) when a query actually needs them.  The checksum value
    is identical to the one-shot computation.
    """
    advise = getattr(mapped, "madvise", None)
    dontneed = getattr(mmap, "MADV_DONTNEED", None)
    if advise is None or dontneed is None or len(body) <= _CRC_CHUNK:
        return zlib.crc32(body)
    page = mmap.PAGESIZE
    checksum = 0
    advised = 0
    for start in range(0, len(body), _CRC_CHUNK):
        chunk = body[start : start + _CRC_CHUNK]
        checksum = zlib.crc32(chunk, checksum)
        chunk.release()
        boundary = (body_start + start + _CRC_CHUNK) // page * page
        if boundary > advised:
            try:
                advise(dontneed, advised, boundary - advised)
            except (ValueError, OSError):
                # madvise stopped cooperating (odd platform/mapping);
                # finish eagerly — correctness over residency.
                tail = body[start + _CRC_CHUNK :]
                checksum = zlib.crc32(tail, checksum)
                tail.release()
                return checksum
            advised = boundary
    return checksum


class FrozenSnapshot:
    """A validated, memory-mapped frozen snapshot file.

    Holds the mmap and hands out zero-copy memoryviews of the sections;
    the views keep the mapping alive, so the snapshot object may be
    dropped once an index has been materialized from it.
    """

    def __init__(self, path, mapped, sections, format_version=FORMAT_VERSION):
        self.path = path
        self._mapped = mapped
        self._sections = sections
        #: The version the file on disk declares (1, 2 or 3);
        #: version-1 snapshots carry no calibration record, and only
        #: version-3 snapshots carry the block-directory section.
        self.format_version = format_version

    @classmethod
    def open(cls, path):
        try:
            handle = open(path, "rb")
        except OSError as exc:
            raise IndexingError(
                f"cannot open frozen snapshot {path!r}: {exc}"
            ) from exc
        with handle:
            try:
                mapped = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
            except (ValueError, OSError) as exc:
                raise IndexingError(
                    f"frozen snapshot {path!r} is truncated or unmappable"
                ) from exc
        view = memoryview(mapped)
        try:
            return cls._validate(path, mapped, view)
        except BaseException:
            view.release()
            mapped.close()
            raise

    @classmethod
    def _validate(cls, path, mapped, view):
        if len(view) < _HEADER.size:
            raise IndexingError(
                f"frozen snapshot {path!r} is truncated "
                f"({len(view)} bytes, header needs {_HEADER.size})"
            )
        magic, version, section_count, checksum = _HEADER.unpack_from(view, 0)
        if magic != MAGIC:
            raise IndexingError(
                f"{path!r} is not a frozen index snapshot (bad magic)"
            )
        if version not in _COMPAT_VERSIONS:
            raise IndexingError(
                f"frozen snapshot {path!r} has format version {version}; "
                f"this build reads versions {_COMPAT_VERSIONS}"
            )
        expected_sections = (
            _SECTION_COUNT if version >= 3 else _SECTION_COUNT_V2
        )
        if section_count != expected_sections:
            raise IndexingError(
                f"frozen snapshot {path!r} declares {section_count} "
                f"sections, expected {expected_sections}"
            )
        body_start = _HEADER.size + _SECTION_ENTRY.size * section_count
        if len(view) < body_start:
            raise IndexingError(
                f"frozen snapshot {path!r} is truncated inside the "
                "section table"
            )
        body = view[body_start:]
        sections = []
        try:
            if _paging_checksum(mapped, body, body_start) != checksum:
                raise IndexingError(
                    f"frozen snapshot {path!r} failed its checksum — the "
                    "file is corrupt"
                )
            for i in range(section_count):
                offset, length = _SECTION_ENTRY.unpack_from(
                    view, _HEADER.size + _SECTION_ENTRY.size * i
                )
                if offset + length > len(body):
                    raise IndexingError(
                        f"frozen snapshot {path!r} section {i} exceeds "
                        "the file body (truncated?)"
                    )
                sections.append(body[offset : offset + length])
        except BaseException:
            # Release every sub-view before the caller closes the mmap,
            # or the close would raise BufferError and mask the real
            # validation error.
            for section in sections:
                section.release()
            body.release()
            raise
        body.release()
        return cls(path, mapped, sections, format_version=version)

    def section(self, index):
        """Zero-copy memoryview of one section's bytes."""
        return self._sections[index]

    @property
    def closed(self):
        return self._mapped is None

    def close(self):
        """Release the section views and unmap the file (best effort).

        Used by the serving daemon when the last reader of a swapped-
        out snapshot exits.  Stores layered on the sections may still
        hold exported sub-views (lazily decoded posting lists keep
        zero-copy slices of the map); releasing those is their owner's
        job, so a :class:`BufferError` here simply leaves the final
        unmap to garbage collection — the close is advisory, never
        required for correctness.  Idempotent.
        """
        if self._mapped is None:
            return
        for section in self._sections:
            try:
                section.release()
            except BufferError:
                pass
        self._sections = ()
        try:
            self._mapped.close()
        except BufferError:
            pass
        self._mapped = None

    def __repr__(self):
        if self._mapped is None:
            return f"FrozenSnapshot({self.path!r}, closed)"
        return f"FrozenSnapshot({self.path!r}, {len(self._mapped)} bytes)"


def load_frozen_index(path, pause=None):
    """Open a frozen snapshot as a fully functional :class:`DocumentIndex`.

    The inverted and frequency stores stay on the mapped bytes behind
    copy-on-write overlays — no posting list is decoded until a query
    touches its keyword.  Only the tree and the (small) statistics
    table materialize eagerly.  The returned index supports the full
    mutation API; updates divert into the overlays and the file on disk
    is untouched.

    ``pause`` (optional zero-argument callable) is invoked
    periodically during the tree decode — the one CPU-bound stretch of
    the open — so a loader on a background thread of a live server can
    yield the interpreter to request threads between chunks.
    """
    snapshot = FrozenSnapshot.open(path)
    try:
        inverted_block = SortedKVBlock(snapshot.section(_SECTION_INVERTED))
        frequency_block = SortedKVBlock(snapshot.section(_SECTION_FREQUENCY))
        statistics_block = SortedKVBlock(
            snapshot.section(_SECTION_STATISTICS)
        )
        directory_table = None
        tree_directory = None
        if snapshot.format_version >= 3:
            from .blocks import BlockDirectoryTable

            blocks_block = SortedKVBlock(snapshot.section(_SECTION_BLOCKS))
            directory_table = BlockDirectoryTable(blocks_block)
            tree_directory = blocks_block.get(TREE_PARTITIONS_KEY)
        if tree_directory is not None:
            from .paged_tree import decode_paged_tree

            tree = decode_paged_tree(
                snapshot.section(_SECTION_TREE),
                bytes(tree_directory),
                pause=pause,
            )
        else:
            tree = _decode_tree(snapshot.section(_SECTION_TREE), pause=pause)
    except IndexingError:
        raise
    except Exception as exc:
        raise IndexingError(
            f"frozen snapshot {path!r} has a malformed section: {exc}"
        ) from exc

    inverted = InvertedIndex(store=CowKVStore(inverted_block))
    inverted.load_metadata()
    inverted._block_directory = directory_table
    frequency = FrequencyTable(
        type_ids=inverted._type_ids,
        type_table=inverted._type_table,
        store=CowKVStore(frequency_block),
    )
    statistics = StatisticsTable()
    calibration = None
    for key, value in statistics_block.items():
        if bytes(key) == CALIBRATION_KEY:
            # Reserved planner-calibration record (format version 2+).
            # An unknown record version decodes to None — the planner
            # silently falls back to its uncalibrated defaults, the
            # same behavior as reading a version-1 snapshot.
            from ..plan.cost_model import decode_calibration

            calibration = decode_calibration(bytes(value))
            continue
        node_type = decode_key(key)
        node_count, distinct, total_terms = _STATS_VALUE.unpack(value)
        entry = statistics._entry(node_type)
        entry.node_count = node_count
        entry.distinct_keywords = distinct
        entry.total_terms = total_terms
    cooccurrence = CooccurrenceTable(inverted)

    index = DocumentIndex(tree, inverted, frequency, statistics, cooccurrence)
    index.frozen_snapshot = snapshot
    index.calibration = calibration
    # Mutations are logged so save_delta() can replay tree operations
    # on top of this snapshot (see repro.index.delta).
    index.delta_log = []
    index.delta_depth = 0
    return index
