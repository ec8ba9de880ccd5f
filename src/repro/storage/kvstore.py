"""Embedded key-value store — the package's Berkeley DB stand-in.

Two implementations share one API:

* :class:`MemoryKVStore` — a :class:`~repro.storage.btree.BPlusTree`
  holding ``bytes -> bytes``; the workhorse during index construction
  and in-process querying.
* :class:`FileKVStore` — the same tree backed by a
  :class:`~repro.storage.pager.Pager` file.  Writes go to the in-memory
  tree; :meth:`FileKVStore.flush` serializes a sorted snapshot into a
  fresh page run (single-writer, last-snapshot-wins, like a checkpoint
  in Berkeley DB's parlance), and opening a file bulk-loads the latest
  snapshot back into a tree.

The store knows nothing about the index semantics above it; it moves
opaque byte strings.  Composite-key helpers live in
:mod:`repro.storage.encoding`.
"""

from __future__ import annotations

import struct

from ..errors import StorageClosedError, StorageError
from .btree import DEFAULT_ORDER, BPlusTree
from .encoding import key_prefix_upper_bound
from .pager import Pager

_SNAPSHOT_POINTER = struct.Struct(">QQQ")  # first_page, run_length, n_items


class KVStore:
    """Common behaviour for both store flavours."""

    def __init__(self, order=DEFAULT_ORDER):
        self._tree = BPlusTree(order=order)
        self._closed = False

    # ------------------------------------------------------------------
    def _check_open(self):
        if self._closed:
            raise StorageClosedError("store is closed")

    @staticmethod
    def _check_bytes(name, value):
        if not isinstance(value, (bytes, bytearray)):
            raise StorageError(f"{name} must be bytes, got {type(value).__name__}")
        return bytes(value)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def put(self, key, value):
        """Insert or overwrite ``key``."""
        self._check_open()
        key = self._check_bytes("key", key)
        value = self._check_bytes("value", value)
        self._tree.insert(key, value)

    def delete(self, key):
        """Remove ``key``; returns True when it existed."""
        self._check_open()
        return self._tree.delete(self._check_bytes("key", key))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, key, default=None):
        """Value for ``key`` or ``default``."""
        self._check_open()
        return self._tree.get(self._check_bytes("key", key), default)

    def __contains__(self, key):
        self._check_open()
        return self._check_bytes("key", key) in self._tree

    def __len__(self):
        self._check_open()
        return len(self._tree)

    def items(self):
        """All (key, value) pairs in key order."""
        self._check_open()
        return self._tree.items()

    def keys(self):
        """All keys in key order."""
        return (key for key, _ in self.items())

    def load_sorted(self, pairs):
        """Replace the contents from pre-sorted ``(key, value)`` pairs.

        Streams straight into :meth:`BPlusTree.bulk_load`, so copying a
        store is a single linear pass instead of one root-to-leaf walk
        per key.  Keys must be strictly ascending bytes.
        """
        self._check_open()
        checked = (
            (self._check_bytes("key", key), self._check_bytes("value", value))
            for key, value in pairs
        )
        self._tree = BPlusTree.bulk_load(checked, order=self._tree._order)

    def range(self, low=None, high=None):
        """Pairs with ``low <= key < high`` in key order."""
        self._check_open()
        return self._tree.range(low, high)

    def scan_prefix(self, prefix):
        """Pairs whose key starts with the byte string ``prefix``."""
        self._check_open()
        prefix = self._check_bytes("prefix", prefix)
        return self._tree.range(prefix, key_prefix_upper_bound(prefix))

    # ------------------------------------------------------------------
    def flush(self):
        """Persist pending writes (no-op for the memory store)."""
        self._check_open()

    def close(self):
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class MemoryKVStore(KVStore):
    """Purely in-memory store; fastest, used by default everywhere."""


_MISSING = object()


class CowKVStore(KVStore):
    """Copy-on-write store over an immutable sorted base block.

    Reads resolve against a mutable overlay first (an ordinary
    :class:`~repro.storage.btree.BPlusTree`) and fall back to the
    read-only :class:`~repro.storage.encoding.SortedKVBlock` ``base``
    — typically a memory-mapped section of a frozen index snapshot, so
    opening the store decodes nothing.  Writes and deletes only ever
    touch the overlay; the base bytes are never modified, which is what
    keeps a frozen snapshot file valid while the in-process index
    diverges from it.

    Invariant: a key never lives in both ``_deleted`` and the overlay.
    ``_shadowed`` counts base keys currently overridden by the overlay
    so ``__len__`` stays O(1).
    """

    def __init__(self, base, order=DEFAULT_ORDER):
        super().__init__(order=order)
        self._base = base
        self._deleted = set()
        self._shadowed = 0

    # ------------------------------------------------------------------
    def is_pristine(self):
        """True while no write has diverged from the base block."""
        return not self._deleted and len(self._tree) == 0

    def base_view(self, key):
        """Zero-copy view of ``key``'s *unmodified base* value.

        Returns None when the overlay shadows or deletes the key, or
        when the base itself serves a layered (non-frozen) value —
        i.e. a non-None result is exactly the bytes the frozen
        snapshot recorded for this key, which is what block
        directories (:mod:`repro.index.blocks`) were built against.
        """
        self._check_open()
        key = self._check_bytes("key", key)
        if key in self._deleted or self._tree.get(key, _MISSING) is not _MISSING:
            return None
        frozen_view = getattr(self._base, "frozen_view", None)
        if frozen_view is not None:
            return frozen_view(key)
        return self._base.get(key)

    def overlay_items(self):
        """The overlay's ``(key, value)`` pairs, sorted (delta export)."""
        self._check_open()
        return self._tree.items()

    def overlay_deletes(self):
        """Base keys deleted through the overlay, sorted (delta export)."""
        self._check_open()
        return sorted(self._deleted)

    # ------------------------------------------------------------------
    def put(self, key, value):
        self._check_open()
        key = self._check_bytes("key", key)
        value = self._check_bytes("value", value)
        if self._tree.get(key, _MISSING) is _MISSING and key in self._base:
            self._deleted.discard(key)
            self._shadowed += 1
        self._tree.insert(key, value)

    def delete(self, key):
        self._check_open()
        key = self._check_bytes("key", key)
        if self._tree.delete(key):
            if key in self._base:
                self._shadowed -= 1
                self._deleted.add(key)
            return True
        if key in self._base and key not in self._deleted:
            self._deleted.add(key)
            return True
        return False

    def load_sorted(self, pairs):
        raise StorageError(
            "load_sorted is unsupported on a copy-on-write store"
        )

    # ------------------------------------------------------------------
    def get(self, key, default=None):
        self._check_open()
        key = self._check_bytes("key", key)
        value = self._tree.get(key, _MISSING)
        if value is not _MISSING:
            return value
        if key in self._deleted:
            return default
        value = self._base.get(key, _MISSING)
        if value is _MISSING:
            return default
        return bytes(value)

    def __contains__(self, key):
        self._check_open()
        key = self._check_bytes("key", key)
        if key in self._tree:
            return True
        return key in self._base and key not in self._deleted

    def __len__(self):
        self._check_open()
        return (
            len(self._base)
            - len(self._deleted)
            - self._shadowed
            + len(self._tree)
        )

    def items(self):
        self._check_open()
        return self._merge(self._base.items(), self._tree.items())

    def keys(self):
        self._check_open()
        base = ((key, None) for key in self._base.keys())
        overlay = ((key, None) for key, _ in self._tree.items())
        return (key for key, _ in self._merge(base, overlay, copy=False))

    def range(self, low=None, high=None):
        self._check_open()
        return self._merge(
            self._base.range(low, high), self._tree.range(low, high)
        )

    def scan_prefix(self, prefix):
        self._check_open()
        prefix = self._check_bytes("prefix", prefix)
        return self.range(prefix, key_prefix_upper_bound(prefix))

    def _merge(self, base_pairs, overlay_pairs, copy=True):
        """Merge two sorted pair streams; overlay wins on equal keys."""
        base_next = iter(base_pairs).__next__
        overlay_next = iter(overlay_pairs).__next__
        base = next_or_none(base_next)
        overlay = next_or_none(overlay_next)
        while base is not None or overlay is not None:
            if overlay is None or (base is not None and base[0] < overlay[0]):
                if base[0] not in self._deleted:
                    yield (
                        (base[0], bytes(base[1])) if copy else base
                    )
                base = next_or_none(base_next)
            elif base is None or overlay[0] < base[0]:
                yield overlay
                overlay = next_or_none(overlay_next)
            else:  # equal keys: overlay shadows the base entry
                yield overlay
                base = next_or_none(base_next)
                overlay = next_or_none(overlay_next)


def next_or_none(advance):
    try:
        return advance()
    except StopIteration:
        return None


class StackedKVBase:
    """Read-only LSM-style view over a base block plus delta layers.

    ``bottom`` is a :class:`~repro.storage.encoding.SortedKVBlock`
    (the monolithic base snapshot section); ``layers`` is a bottom-up
    sequence of ``(puts, deleted)`` pairs, one per delta snapshot,
    where ``puts`` is a sorted block of overwritten records and
    ``deleted`` a set of keys removed at that layer.  Lookups resolve
    top-down; iteration is a k-way merge where upper layers win.

    The stack is the *base* of a :class:`CowKVStore` — new writes land
    in the store's own overlay, which :mod:`repro.index.delta` can
    export as the next layer of the chain.
    """

    __slots__ = ("_bottom", "_layers", "_count")

    def __init__(self, bottom, layers):
        self._bottom = bottom
        self._layers = [
            (puts, frozenset(deleted)) for puts, deleted in layers
        ]
        self._count = sum(1 for _ in self.keys())

    def get(self, key, default=None):
        for puts, deleted in reversed(self._layers):
            value = puts.get(key)
            if value is not None:
                return value
            if key in deleted:
                return default
        return self._bottom.get(key, default)

    def frozen_view(self, key):
        """The bottom block's value, only if no layer touches ``key``.

        A non-None result is bytes of the monolithic base snapshot —
        the contract ``CowKVStore.base_view`` relies on to decide
        whether a block directory still applies to a keyword.
        """
        for puts, deleted in self._layers:
            if key in deleted or puts.get(key) is not None:
                return None
        return self._bottom.get(key)

    def __contains__(self, key):
        return self.get(key) is not None

    def __len__(self):
        return self._count

    def _merged(self, low=None, high=None):
        def bounded(source):
            if low is None and high is None:
                return source.items()
            return source.range(low, high)

        pairs = bounded(self._bottom)
        for puts, deleted in self._layers:
            pairs = _fold_layer(pairs, bounded(puts), deleted)
        return pairs

    def items(self):
        return self._merged()

    def range(self, low=None, high=None):
        return self._merged(low, high)

    def keys(self):
        return (key for key, _ in self._merged())


def _fold_layer(base_pairs, put_pairs, deleted):
    """Merge one delta layer over a sorted pair stream (puts win)."""
    base_next = iter(base_pairs).__next__
    put_next = iter(put_pairs).__next__
    base = next_or_none(base_next)
    put = next_or_none(put_next)
    while base is not None or put is not None:
        if put is None or (base is not None and base[0] < put[0]):
            if base[0] not in deleted:
                yield base
            base = next_or_none(base_next)
        elif base is None or put[0] < base[0]:
            yield put
            put = next_or_none(put_next)
        else:  # equal keys: the upper layer shadows the lower one
            yield put
            base = next_or_none(base_next)
            put = next_or_none(put_next)


class FileKVStore(KVStore):
    """Page-file backed store with snapshot persistence.

    Parameters
    ----------
    path:
        Page file location; created when missing.
    order:
        B+ tree fanout for the in-memory working tree.
    """

    def __init__(self, path, order=DEFAULT_ORDER):
        super().__init__(order=order)
        self._pager = Pager(path, create=True)
        self._load_snapshot()
        self._dirty = False

    def _load_snapshot(self):
        """Rebuild the working tree from the newest on-disk snapshot."""
        pointer_page = self._find_pointer_page()
        if pointer_page is None:
            return
        raw = self._pager.read_page(pointer_page)
        first, run, count = _SNAPSHOT_POINTER.unpack(
            raw[: _SNAPSHOT_POINTER.size]
        )
        if count == 0:
            return
        blob = self._pager.read_stream(first, run)
        pairs = list(_decode_snapshot(blob, count))
        self._tree = BPlusTree.bulk_load(pairs, order=self._tree._order)

    def _find_pointer_page(self):
        """Snapshot pointers live on page 1; absent in a fresh file."""
        if self._pager.page_count <= 1:
            return None
        return 1

    def put(self, key, value):
        super().put(key, value)
        self._dirty = True

    def delete(self, key):
        removed = super().delete(key)
        self._dirty = self._dirty or removed
        return removed

    def load_sorted(self, pairs):
        super().load_sorted(pairs)
        self._dirty = True

    def flush(self):
        """Write a full sorted snapshot and point the header at it."""
        self._check_open()
        if not self._dirty and self._pager.page_count > 1:
            return
        blob = _encode_snapshot(self._tree.items())
        if self._pager.page_count <= 1:
            pointer_page = self._pager.allocate(1)
        else:
            pointer_page = 1
        first, run = self._pager.write_stream(blob)
        pointer = _SNAPSHOT_POINTER.pack(first, run, len(self._tree))
        self._pager.write_page(pointer_page, pointer)
        self._pager.flush()
        self._dirty = False

    def close(self):
        if not self._closed:
            self.flush()
            self._pager.close()
        super().close()


def _encode_snapshot(pairs):
    out = bytearray()
    for key, value in pairs:
        out += struct.pack(">II", len(key), len(value))
        out += key
        out += value
    return bytes(out)


def _decode_snapshot(blob, count):
    pos = 0
    for _ in range(count):
        key_len, value_len = struct.unpack_from(">II", blob, pos)
        pos += 8
        key = blob[pos : pos + key_len]
        pos += key_len
        value = blob[pos : pos + value_len]
        pos += value_len
        yield key, value
