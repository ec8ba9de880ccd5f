"""Delta snapshots: persist index mutations as a layer over a base.

A frozen snapshot (:mod:`repro.index.frozen`) is immutable on disk;
live mutations (``append_partition`` / ``remove_partition``) divert
into :class:`~repro.storage.CowKVStore` overlays and are lost when the
process exits — the only durable exit was a full monolithic refreeze,
whose cost is proportional to the *corpus*, not the change.

:func:`save_delta` instead persists exactly the session's changes as a
**delta file** stacking on the snapshot the index was loaded from:

* the inverted / frequency overlay puts (each a sorted key-value
  block of the store's own payloads — a posting payload carries its
  count and CRC, so a delta layer's lists open like the base's) and the
  overlay delete sets;
* the full (small) statistics table;
* the tree-operation log — every partition append (with its assigned
  ordinal and the original build spec) and removal, in order.

Deltas chain: each names its parent file and binds to the parent's
header bytes by CRC, so a mismatched or regenerated parent fails
loudly at open time.  :func:`load_index_chain` walks the chain down to
the base snapshot and hands the open files to
:func:`~repro.index.frozen.assemble_index`, which stacks the
keyword-keyed sections into one :class:`~repro.storage.StackedKVBase`
(an LSM-style merge-on-demand view — no section is rewritten or merged
eagerly), replays the tree logs **tree-only** (the index-level effects
already live in the overlay sections), and takes statistics from the
top delta.

:func:`compact` folds a chain back into one monolithic frozen snapshot
— byte-identical to refreezing an equivalently mutated in-memory
index, which ``verify-diff`` holds it to.
"""

from __future__ import annotations

import os
import struct
import zlib

from ..errors import IndexingError
from ..storage import (
    SortedKVBlock,
    decode_uvarint,
    encode_sorted_kv_block,
    encode_uvarint,
)
from ..xmltree.build import _attach_children, _normalize_spec
from ..xmltree.dewey import Dewey
from ..xmltree.tree import XMLNode, build_node_type
from .frozen import (
    _HEADER,
    FrozenSnapshot,
    SectionFile,
    _statistics_pairs,
    assemble_index,
    freeze_index,
    load_frozen_index,
    write_section_file,
)

#: Delta file magic — distinct from the base-snapshot magic so
#: ``open_index_source`` can dispatch on the first 8 bytes.
DELTA_MAGIC = b"XRFZDLT\x01"
DELTA_VERSION = 3

# The header has the base snapshot's shape, so header-CRC parent
# binding covers both kinds uniformly.
_CRC = struct.Struct("<I")

_SECTION_META = 0
_SECTION_INV_PUTS = 1
_SECTION_INV_DELETES = 2
_SECTION_FREQ_PUTS = 3
_SECTION_FREQ_DELETES = 4
_SECTION_STATS = 5
_SECTION_TREE_OPS = 6
_SECTION_COUNT = 7

#: Hard ceiling on chain length — far above any sane deployment
#: (compaction is cheap relative to 64 stacked deltas) and a backstop
#: against parent-pointer cycles from hand-edited files.
MAX_CHAIN_DEPTH = 64

_OP_APPEND = 0
_OP_REMOVE = 1


# ----------------------------------------------------------------------
# Wire helpers
# ----------------------------------------------------------------------
def _encode_bytes(out, raw):
    out += encode_uvarint(len(raw))
    out += raw


def _decode_bytes(view, pos):
    length, pos = decode_uvarint(view, pos)
    return bytes(view[pos : pos + length]), pos + length


def _encode_spec(out, spec):
    """Recursive codec for a normalized ``(tag, text, children)`` spec."""
    tag, text, children = spec
    _encode_bytes(out, tag.encode("utf-8"))
    _encode_bytes(out, (text or "").encode("utf-8"))
    out += encode_uvarint(len(children))
    for child in children:
        _encode_spec(out, child)


def _decode_spec(view, pos):
    tag, pos = _decode_bytes(view, pos)
    text, pos = _decode_bytes(view, pos)
    count, pos = decode_uvarint(view, pos)
    children = []
    for _ in range(count):
        child, pos = _decode_spec(view, pos)
        children.append(child)
    return (tag.decode("utf-8"), text.decode("utf-8"), children), pos


def _encode_keys(keys):
    out = bytearray()
    out += encode_uvarint(len(keys))
    for key in keys:
        _encode_bytes(out, bytes(key))
    return bytes(out)


def _decode_keys(view):
    count, pos = decode_uvarint(view, 0)
    keys = []
    for _ in range(count):
        key, pos = _decode_bytes(view, pos)
        keys.append(key)
    return keys


def _encode_tree_ops(ops):
    out = bytearray()
    out += encode_uvarint(len(ops))
    for op in ops:
        if op[0] == "append":
            _, ordinal, spec = op
            out += encode_uvarint(_OP_APPEND)
            out += encode_uvarint(ordinal)
            _encode_spec(out, spec)
        elif op[0] == "remove":
            _, components = op
            out += encode_uvarint(_OP_REMOVE)
            out += encode_uvarint(len(components))
            for part in components:
                out += encode_uvarint(part)
        else:
            raise IndexingError(f"unknown tree operation {op[0]!r}")
    return bytes(out)


def _decode_tree_ops(view):
    count, pos = decode_uvarint(view, 0)
    ops = []
    for _ in range(count):
        kind, pos = decode_uvarint(view, pos)
        if kind == _OP_APPEND:
            ordinal, pos = decode_uvarint(view, pos)
            spec, pos = _decode_spec(view, pos)
            ops.append(("append", ordinal, spec))
        elif kind == _OP_REMOVE:
            length, pos = decode_uvarint(view, pos)
            parts = []
            for _ in range(length):
                part, pos = decode_uvarint(view, pos)
                parts.append(part)
            ops.append(("remove", tuple(parts)))
        else:
            raise IndexingError(
                f"delta snapshot has an unknown tree operation kind {kind}"
            )
    return ops


def _header_crc(path):
    """CRC32 of a snapshot file's header bytes (the parent binding).

    The header embeds the body checksum, so binding to the header
    transitively binds to the parent's full content.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read(_HEADER.size)
    except OSError as exc:
        raise IndexingError(
            f"cannot read snapshot parent {path!r}: {exc}"
        ) from exc
    if len(raw) != _HEADER.size:
        raise IndexingError(f"snapshot parent {path!r} is truncated")
    return zlib.crc32(raw)


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
def save_delta(index, path, parent_path, source_depth=None):
    """Persist ``index``'s in-session mutations as a delta over
    ``parent_path``.

    ``index`` must have been loaded from ``parent_path`` (a base
    frozen snapshot or an earlier delta): only a loaded index carries
    the mutation log (``index.delta_log``) covering every tree
    operation since the load, and only its store overlays are exactly
    the session's changes.  Crash-safe like
    :func:`~repro.index.frozen.freeze_index`: temp file, fsync, atomic
    rename.
    """
    if getattr(index, "delta_log", None) is None:
        raise IndexingError(
            "save_delta needs an index loaded from a frozen snapshot "
            "or delta chain (it carries the mutation log a delta "
            "replays); freeze a built index with freeze_index instead"
        )
    depth = source_depth
    if depth is None:
        depth = getattr(index, "delta_depth", 0)

    index.inverted.save_metadata()
    if index.frequency._pending:
        index.frequency.finalize()

    meta = bytearray()
    _encode_bytes(meta, os.path.basename(parent_path).encode("utf-8"))
    meta += _CRC.pack(_header_crc(parent_path))
    meta += encode_uvarint(depth + 1)

    inverted_store = index.inverted._store
    frequency_store = index.frequency._store
    return write_section_file(
        path,
        DELTA_MAGIC,
        DELTA_VERSION,
        [
            bytes(meta),
            encode_sorted_kv_block(inverted_store.overlay_items()),
            _encode_keys(inverted_store.overlay_deletes()),
            encode_sorted_kv_block(frequency_store.overlay_items()),
            _encode_keys(frequency_store.overlay_deletes()),
            encode_sorted_kv_block(_statistics_pairs(index)),
            _encode_tree_ops(index.delta_log),
        ],
    )


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
class DeltaFile(SectionFile):
    """An open delta file: one layer of a snapshot chain."""

    KIND = "delta snapshot"
    MAGIC = DELTA_MAGIC
    VERSION = DELTA_VERSION
    SECTION_COUNT = _SECTION_COUNT

    def __init__(self, path, mapped, sections):
        super().__init__(path, mapped, sections)
        meta = sections[_SECTION_META]
        parent_raw, pos = _decode_bytes(meta, 0)
        (self.parent_crc,) = _CRC.unpack_from(meta, pos)
        self.depth, _ = decode_uvarint(meta, pos + _CRC.size)
        self.parent_name = parent_raw.decode("utf-8")

    def inverted_layer(self):
        """``(puts block, deleted keys)`` over the inverted section."""
        return (
            SortedKVBlock(self.section(_SECTION_INV_PUTS)),
            _decode_keys(self.section(_SECTION_INV_DELETES)),
        )

    def frequency_layer(self):
        """``(puts block, deleted keys)`` over the frequency section."""
        return (
            SortedKVBlock(self.section(_SECTION_FREQ_PUTS)),
            _decode_keys(self.section(_SECTION_FREQ_DELETES)),
        )

    def statistics_block(self):
        """The full statistics section as of this delta."""
        return SortedKVBlock(self.section(_SECTION_STATS))

    def replay_tree_ops(self, tree):
        """Apply this delta's tree-operation log to ``tree``."""
        ops = _decode_tree_ops(self.section(_SECTION_TREE_OPS))
        _replay_tree_ops(tree, ops, self.path)


class ChainSnapshot:
    """The open file set behind a chain-loaded index.

    Quacks like :class:`~repro.index.frozen.FrozenSnapshot` where the
    serving layer cares (``path``, ``closed``, ``close()``): closing
    releases every delta mmap and then the base snapshot.
    """

    __slots__ = ("path", "base", "deltas")

    def __init__(self, path, base, deltas):
        self.path = path
        self.base = base
        self.deltas = deltas

    @property
    def chain_length(self):
        return len(self.deltas)

    @property
    def closed(self):
        return self.base.closed

    def close(self):
        for delta in self.deltas:
            delta.close()
        self.base.close()

    def __repr__(self):
        return (
            f"ChainSnapshot({self.path!r}, base={self.base.path!r}, "
            f"deltas={len(self.deltas)})"
        )


def resolve_chain(path):
    """``(base_path, [delta paths bottom-up])`` for a chain top.

    Walks parent pointers, verifying each stored parent-header CRC
    against the actual file, refusing cycles and over-deep chains.
    """
    chain = []
    current = os.path.abspath(path)
    seen = set()
    while True:
        if current in seen:
            raise IndexingError(
                f"delta snapshot chain at {path!r} contains a cycle"
            )
        seen.add(current)
        if len(seen) > MAX_CHAIN_DEPTH:
            raise IndexingError(
                f"delta snapshot chain at {path!r} exceeds "
                f"{MAX_CHAIN_DEPTH} layers; compact it"
            )
        try:
            with open(current, "rb") as handle:
                magic = handle.read(len(DELTA_MAGIC))
        except OSError as exc:
            raise IndexingError(
                f"cannot open snapshot {current!r}: {exc}"
            ) from exc
        if magic != DELTA_MAGIC:
            return current, list(reversed(chain))
        delta = DeltaFile.open(current)
        try:
            parent = os.path.join(
                os.path.dirname(current), delta.parent_name
            )
            expected = delta.parent_crc
        finally:
            delta.close()
        if _header_crc(parent) != expected:
            raise IndexingError(
                f"delta snapshot {current!r} binds to a different "
                f"{parent!r} than the one on disk (regenerated or "
                "corrupt parent)"
            )
        chain.append(current)
        current = parent


def _replay_tree_ops(tree, ops, path):
    """Apply one delta's tree-operation log, tree-only."""
    for op in ops:
        if op[0] == "append":
            _, ordinal, spec = op
            expected = tree.next_partition_ordinal()
            if ordinal != expected:
                raise IndexingError(
                    f"delta snapshot {path!r} replays partition "
                    f"{ordinal} but the tree is at {expected} — the "
                    "chain is out of order"
                )
            tag, text, children = _normalize_spec(spec)
            node = XMLNode(
                tag,
                Dewey((0, ordinal)),
                build_node_type(tree.root.node_type, tag),
                text or "",
            )
            _attach_children(node, children)
            tree.append_partition(node)
        else:
            tree.remove_partition(Dewey(op[1]))


def load_index_chain(path, pause=None):
    """Open a delta chain (or plain frozen snapshot) as a
    :class:`~repro.index.builder.DocumentIndex`.

    The base's keyword-keyed sections and every delta's overlay
    sections stack into :class:`~repro.storage.StackedKVBase` reads —
    nothing is merged eagerly, and every posting payload, whichever
    layer serves it, opens without a decode and decodes whole at its
    first read.
    """
    base_path, delta_paths = resolve_chain(path)
    if not delta_paths:
        return load_frozen_index(base_path, pause=pause)
    chain = ChainSnapshot(
        os.path.abspath(path), FrozenSnapshot.open(base_path), []
    )
    try:
        for delta_path in delta_paths:
            chain.deltas.append(DeltaFile.open(delta_path))
    except BaseException:
        chain.close()
        raise
    return assemble_index(chain, chain.base, chain.deltas, pause=pause)


def compact(source, destination):
    """Fold a delta chain into one monolithic frozen snapshot.

    Loads the chain (merge-on-demand) and refreezes — byte-identical
    to freezing an equivalently mutated in-memory index, because each
    posting payload is a function of its postings alone.  Returns the
    number of chain layers folded.
    """
    index = load_index_chain(source)
    try:
        layers = getattr(index.frozen_snapshot, "chain_length", 0)
        freeze_index(index, destination)
    finally:
        index.frozen_snapshot.close()
    return layers
