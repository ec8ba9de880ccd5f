"""Frozen columnar index snapshots (single-file, mmap-served).

A frozen snapshot packs the entire :class:`~repro.index.builder.DocumentIndex`
into one versioned, checksummed binary file that the engine maps into
memory and serves **without an upfront decode**:

* Section 0 — the inverted index as a sorted key-value block: one
  record per keyword under the order-preserving key ``(keyword,)``,
  the value being the keyword's posting payload — a count and a CRC,
  then the delta+varint postings (:mod:`repro.index.blocks`) — plus the
  reserved node-type-table record.  Keywords resolve by binary search
  over the mapped dictionary; a posting list opens on first touch and
  decodes whole at its first read.
* Section 1 — the frequent table ``f_k^T`` / ``tf(k, T)`` under
  ``(keyword, type_id)`` keys.
* Section 2 — per-type ``N_T`` / ``G_T`` / term-total statistics.
  Files written by earlier builds also carry a timing record under
  :data:`CALIBRATION_KEY`, which the reader skips.
* Section 3 — the document tree in a compact preorder binary form
  (interned tag table; per node: tag id, Dewey ordinal, child count,
  text).  Ordinals are stored explicitly because partition removal
  leaves sibling ordinals non-dense.
* Section 4 — the tree partition directory consumed by
  :mod:`repro.index.paged_tree`, as a one-record sorted key-value
  block.

This is the one on-disk index format; delta snapshots
(:mod:`repro.index.delta`) are the same file shape with other sections
and stack on it.  The pieces both kinds share live here: the header and
section table, the atomic writer (:func:`write_section_file`), the
validated mmap reader (:class:`SectionFile`), the statistics row codec,
and the sections → :class:`DocumentIndex` assembly.

Opening a snapshot is O(header + partition directory): the header and
section table are validated (magic, format version, section bounds,
CRC-32 over the body), and the two big keyword-keyed sections become
:class:`~repro.storage.CowKVStore` bases — reads go straight to the
mapped bytes, while mutations (``append_partition`` /
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
    StackedKVBase,
    decode_key,
    encode_key,
    encode_sorted_kv_block,
    encode_uvarint,
)
from .builder import DocumentIndex
from .cooccur import CooccurrenceTable
from .frequency import FrequencyTable
from .inverted import InvertedIndex
from .statistics import StatisticsTable

#: File magic — 8 bytes, never reused across incompatible layouts.
MAGIC = b"XRFZIDX\x01"
#: Bumped whenever the section layout or any section encoding changes.
#: This is the only version this build reads or writes; an older file
#: is rebuilt from its source with ``repro index``.
FORMAT_VERSION = 5

_SECTION_INVERTED = 0
_SECTION_FREQUENCY = 1
_SECTION_STATISTICS = 2
_SECTION_TREE = 3
#: The tree partition directory, as a one-record sorted key-value block.
_SECTION_BLOCKS = 4
_SECTION_COUNT = 5

# magic + format_version u16 + section_count u16 + body crc32 u32
_HEADER = struct.Struct("<8sHHI")
_SECTION_ENTRY = struct.Struct("<QQ")  # offset, length (body-relative)

_STATS_VALUE = struct.Struct(">III")  # node_count, distinct, total_terms

#: Reserved statistics-section key under which earlier builds stored a
#: cost-model timing record.  Nothing writes it any more; the reader
#: skips it, so those files still load, with no format version bump.
#: The leading NUL component can never collide with a real node type
#: (tag names are non-empty XML names).
CALIBRATION_KEY = encode_key(("\x00calibration",))

#: The block-section key of the tree partition directory (the same
#: NUL-prefix reservation as :data:`CALIBRATION_KEY`).
TREE_PARTITIONS_KEY = encode_key(("\x00tree-partitions",))


# ----------------------------------------------------------------------
# Tree section codec
# ----------------------------------------------------------------------
def _encode_tree(tree):
    """Serialize an :class:`XMLTree` into the preorder binary form.

    Returns ``(section_bytes, partition_directory)``.  The section
    bytes are the preorder layout (root record followed by each
    partition's subtree records); the directory maps every partition
    ordinal to its byte offset within the node blob and its subtree
    node count, so the reader decodes partitions independently
    (:mod:`repro.index.paged_tree`).
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


# ----------------------------------------------------------------------
# Statistics section codec (shared with delta snapshots)
# ----------------------------------------------------------------------
def _statistics_pairs(index):
    """Sorted statistics-section records: a pure function of the index."""
    return sorted(
        (
            encode_key(node_type),
            _STATS_VALUE.pack(
                stats.node_count,
                stats.distinct_keywords,
                stats.total_terms,
            ),
        )
        for node_type, stats in index.statistics.items()
    )


def _decode_statistics(block):
    """The :class:`StatisticsTable` of a statistics section."""
    statistics = StatisticsTable()
    for key, value in block.items():
        if key == CALIBRATION_KEY:
            continue  # an earlier build's timing record; nothing reads it
        entry = statistics._entry(decode_key(key))
        (
            entry.node_count,
            entry.distinct_keywords,
            entry.total_terms,
        ) = _STATS_VALUE.unpack(value)
    return statistics


# ----------------------------------------------------------------------
# Section-file writer (shared with delta snapshots)
# ----------------------------------------------------------------------
def write_section_file(path, magic, version, sections):
    """Write ``sections`` as one checksummed file at ``path``.

    The write is crash-safe: bytes land in a temporary sibling file
    which is fsynced and atomically renamed over ``path``, so readers
    only ever observe a complete file and a failed write leaves the
    previous one in place.
    """
    body = b"".join(sections)
    table = bytearray()
    offset = 0
    for section in sections:
        table += _SECTION_ENTRY.pack(offset, len(section))
        offset += len(section)
    header = _HEADER.pack(magic, version, len(sections), zlib.crc32(body))

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


def freeze_index(index, path):
    """Write ``index`` as a frozen snapshot file at ``path``.

    Crash-safe (see :func:`write_section_file`).  Every posting payload
    is copied as the store holds it — a function of the list's postings
    alone — so two freezes of one index write the same bytes.
    """
    index.inverted.save_metadata()
    if index.frequency._pending:
        index.frequency.finalize()

    tree_section, tree_directory = _encode_tree(index.tree)
    return write_section_file(
        path,
        MAGIC,
        FORMAT_VERSION,
        [
            encode_sorted_kv_block(index.inverted._store.items()),
            encode_sorted_kv_block(index.frequency._store.items()),
            encode_sorted_kv_block(_statistics_pairs(index)),
            tree_section,
            encode_sorted_kv_block([(TREE_PARTITIONS_KEY, tree_directory)]),
        ],
    )


# ----------------------------------------------------------------------
# Section-file reader (shared with delta snapshots)
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


class SectionFile:
    """A validated, memory-mapped section file.

    Holds the mmap and hands out zero-copy memoryviews of the sections.
    Subclasses name the file kind: its magic, the one version this
    build reads, and its section count.
    """

    KIND = None
    MAGIC = None
    VERSION = None
    SECTION_COUNT = None

    def __init__(self, path, mapped, sections):
        self.path = path
        self._mapped = mapped
        self._sections = sections

    @classmethod
    def open(cls, path):
        try:
            handle = open(path, "rb")
        except OSError as exc:
            raise IndexingError(
                f"cannot open {cls.KIND} {path!r}: {exc}"
            ) from exc
        with handle:
            try:
                mapped = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
            except (ValueError, OSError) as exc:
                raise IndexingError(
                    f"{cls.KIND} {path!r} is truncated or unmappable"
                ) from exc
        view = memoryview(mapped)
        sections = []
        try:
            cls._validate(path, mapped, view, sections)
            return cls(path, mapped, sections)
        except BaseException:
            # Release every sub-view before closing the mmap, or the
            # close would raise BufferError and mask the real error.
            for section in sections:
                section.release()
            view.release()
            mapped.close()
            raise

    @classmethod
    def _validate(cls, path, mapped, view, sections):
        """Check header, table and checksum; fill ``sections`` with views."""
        if len(view) < _HEADER.size:
            raise IndexingError(
                f"{cls.KIND} {path!r} is truncated "
                f"({len(view)} bytes, header needs {_HEADER.size})"
            )
        magic, version, section_count, checksum = _HEADER.unpack_from(view, 0)
        if magic != cls.MAGIC:
            raise IndexingError(f"{path!r} is not a {cls.KIND} (bad magic)")
        if version != cls.VERSION:
            raise IndexingError(
                f"{cls.KIND} {path!r} has format version {version}; this "
                f"build reads only version {cls.VERSION} — rebuild it "
                "from its source with `repro index`"
            )
        if section_count != cls.SECTION_COUNT:
            raise IndexingError(
                f"{cls.KIND} {path!r} declares {section_count} "
                f"sections, expected {cls.SECTION_COUNT}"
            )
        body_start = _HEADER.size + _SECTION_ENTRY.size * section_count
        if len(view) < body_start:
            raise IndexingError(
                f"{cls.KIND} {path!r} is truncated inside the section table"
            )
        body = view[body_start:]
        try:
            if _paging_checksum(mapped, body, body_start) != checksum:
                raise IndexingError(
                    f"{cls.KIND} {path!r} failed its checksum — the "
                    "file is corrupt"
                )
            for i in range(section_count):
                offset, length = _SECTION_ENTRY.unpack_from(
                    view, _HEADER.size + _SECTION_ENTRY.size * i
                )
                if offset + length > len(body):
                    raise IndexingError(
                        f"{cls.KIND} {path!r} section {i} exceeds "
                        "the file body (truncated?)"
                    )
                sections.append(body[offset : offset + length])
        finally:
            body.release()

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
        state = "closed" if self.closed else f"{len(self._mapped)} bytes"
        return f"{type(self).__name__}({self.path!r}, {state})"


class FrozenSnapshot(SectionFile):
    """An open frozen snapshot file.

    The section views keep the mapping alive, so the snapshot object
    may be dropped once an index has been materialized from it.
    """

    KIND = "frozen snapshot"
    MAGIC = MAGIC
    VERSION = FORMAT_VERSION
    SECTION_COUNT = _SECTION_COUNT


def assemble_index(handle, base, deltas=(), pause=None):
    """A :class:`DocumentIndex` over ``base`` and the ``deltas`` on it.

    ``base`` is an open :class:`FrozenSnapshot`; ``deltas`` the open
    :class:`~repro.index.delta.DeltaFile` layers stacked on it,
    bottom-up (none for a plain snapshot).  ``handle`` owns every
    mapping: it becomes ``index.frozen_snapshot`` and is closed if the
    assembly fails, which — bad section bytes being the only cause —
    always ends in an :class:`IndexingError`.
    """
    # On first open, not at import: a process that only ever indexes
    # XML never loads the paged-tree machinery.
    from .paged_tree import decode_paged_tree

    try:
        inverted_base = SortedKVBlock(base.section(_SECTION_INVERTED))
        frequency_base = SortedKVBlock(base.section(_SECTION_FREQUENCY))
        statistics_block = SortedKVBlock(base.section(_SECTION_STATISTICS))
        blocks_block = SortedKVBlock(base.section(_SECTION_BLOCKS))
        tree_directory = blocks_block.get(TREE_PARTITIONS_KEY)
        if tree_directory is None:
            raise IndexingError(
                f"frozen snapshot {base.path!r} has no tree partition "
                "directory"
            )
        tree = decode_paged_tree(
            base.section(_SECTION_TREE), bytes(tree_directory), pause=pause
        )
        if deltas:
            inverted_base = StackedKVBase(
                inverted_base, [delta.inverted_layer() for delta in deltas]
            )
            frequency_base = StackedKVBase(
                frequency_base, [delta.frequency_layer() for delta in deltas]
            )
            # The index-level effects of each delta already live in its
            # overlay sections; only the tree needs replaying.
            for delta in deltas:
                delta.replay_tree_ops(tree)
            statistics_block = deltas[-1].statistics_block()

        inverted = InvertedIndex(store=CowKVStore(inverted_base))
        inverted.load_metadata()
        frequency = FrequencyTable(
            type_ids=inverted._type_ids,
            type_table=inverted._type_table,
            store=CowKVStore(frequency_base),
        )
        statistics = _decode_statistics(statistics_block)
    except BaseException as exc:
        handle.close()
        if isinstance(exc, Exception) and not isinstance(exc, IndexingError):
            raise IndexingError(
                f"snapshot {handle.path!r} has a malformed section: {exc}"
            ) from exc
        raise

    index = DocumentIndex(
        tree, inverted, frequency, statistics,
        CooccurrenceTable(inverted, frequency),
    )
    index.frozen_snapshot = handle
    # Mutations are logged so save_delta() can replay tree operations
    # on top of this snapshot (see repro.index.delta).
    index.delta_log = []
    index.delta_depth = deltas[-1].depth if deltas else 0
    return index


def load_frozen_index(path, pause=None):
    """Open a frozen snapshot as a fully functional :class:`DocumentIndex`.

    The inverted and frequency stores stay on the mapped bytes behind
    copy-on-write overlays — no posting list is decoded until a query
    touches its keyword, and tree partitions materialize on first
    access.  Only the (small) statistics table decodes eagerly.  The
    returned index supports the full mutation API; updates divert into
    the overlays and the file on disk is untouched.

    ``pause`` (optional zero-argument callable) is invoked
    periodically during the partition-directory decode — the one
    CPU-bound stretch of the open — so a loader on a background thread
    of a live server can yield the interpreter to request threads
    between chunks.
    """
    snapshot = FrozenSnapshot.open(path)
    return assemble_index(snapshot, snapshot, pause=pause)
