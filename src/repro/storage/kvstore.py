"""The one ordered key-value store behind every index.

Section VII of the paper keeps its indexes in Berkeley DB for three
capabilities: keyed lookup, ordered prefix scans, and a file so the
corpus is parsed once.  Here the file is a frozen snapshot
(:mod:`repro.index.frozen`) whose sections are sorted blocks
binary-searched on mapped bytes, and :class:`CowKVStore` is the single
mutable store on top: a plain ``dict`` overlay over an immutable sorted
base.  A *built* index is that store over an empty base; a *loaded* one
is the same class over a mapped
:class:`~repro.storage.encoding.SortedKVBlock`, or over a
:class:`StackedKVBase` when delta snapshots stack on the base.

The store knows nothing about the index semantics above it; it moves
opaque byte strings.  Composite-key helpers live in
:mod:`repro.storage.encoding`.
"""

from __future__ import annotations

import bisect

from ..errors import StorageError
from .encoding import (
    SortedKVBlock,
    encode_sorted_kv_block,
    key_prefix_upper_bound,
)

_MISSING = object()
_EMPTY_BLOCK = encode_sorted_kv_block(())


def _check_bytes(name, value):
    if not isinstance(value, (bytes, bytearray)):
        raise StorageError(f"{name} must be bytes, got {type(value).__name__}")
    return bytes(value)


class CowKVStore:
    """Copy-on-write ``bytes -> bytes`` store over an immutable sorted base.

    Reads resolve against a mutable overlay first (a ``dict``) and fall
    back to the read-only ``base`` — typically a memory-mapped section
    of a frozen index snapshot, so opening the store decodes nothing;
    without a ``base`` the store starts empty.  Writes and deletes only
    ever touch the overlay; the base bytes are never modified, which is
    what keeps a frozen snapshot file valid while the in-process index
    diverges from it.

    Iteration (:meth:`items`, :meth:`keys`, :meth:`range`,
    :meth:`scan_prefix`) is in key byte order — the order snapshot
    sections are written in.  The overlay's sorted key list is built on
    the first ordered read and kept in order by every write after it,
    so reads between small updates never sort the whole overlay again.

    Invariant: a key never lives in both ``_deleted`` and the overlay.
    ``_shadowed`` counts base keys currently overridden by the overlay
    so ``__len__`` needs no merge.
    """

    def __init__(self, base=None):
        self._base = base if base is not None else SortedKVBlock(_EMPTY_BLOCK)
        self._overlay = {}
        self._sorted_keys = None
        self._deleted = set()
        self._shadowed = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def put(self, key, value):
        """Insert or overwrite ``key``."""
        key = _check_bytes("key", key)
        value = _check_bytes("value", value)
        if key not in self._overlay:
            if self._sorted_keys is not None:
                bisect.insort(self._sorted_keys, key)
            if key in self._base:
                self._deleted.discard(key)
                self._shadowed += 1
        self._overlay[key] = value

    def delete(self, key):
        """Remove ``key``; returns True when it existed."""
        key = _check_bytes("key", key)
        if self._overlay.pop(key, _MISSING) is not _MISSING:
            keys = self._sorted_keys
            if keys is not None:
                del keys[bisect.bisect_left(keys, key)]
            if key in self._base:
                self._shadowed -= 1
                self._deleted.add(key)
            return True
        if key in self._base and key not in self._deleted:
            self._deleted.add(key)
            return True
        return False

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, key, default=None):
        """Value for ``key`` (owned bytes) or ``default``."""
        value = self.view(key)
        return default if value is None else bytes(value)

    def view(self, key):
        """Value for ``key`` without a copy, or None.

        An overlay value comes back as the stored ``bytes``; a base
        value as the base's zero-copy view (a memoryview over a mapped
        snapshot section), whichever layer of the base serves it.
        """
        key = _check_bytes("key", key)
        value = self._overlay.get(key)
        if value is not None or key in self._deleted:
            return value
        return self._base.get(key)

    def __contains__(self, key):
        key = _check_bytes("key", key)
        if key in self._overlay:
            return True
        return key in self._base and key not in self._deleted

    def __len__(self):
        return (
            len(self._base)
            - len(self._deleted)
            - self._shadowed
            + len(self._overlay)
        )

    # ------------------------------------------------------------------
    # Ordered reads
    # ------------------------------------------------------------------
    def _overlay_range(self, low=None, high=None):
        """The overlay's pairs with ``low <= key < high``, sorted."""
        keys = self._sorted_keys
        if keys is None:
            keys = self._sorted_keys = sorted(self._overlay)
        lo = 0 if low is None else bisect.bisect_left(keys, low)
        hi = len(keys) if high is None else bisect.bisect_left(keys, high)
        overlay = self._overlay
        return [(key, overlay[key]) for key in keys[lo:hi]]

    def items(self):
        """All (key, value) pairs in key order."""
        return _fold_layer(
            self._base.items(), self._overlay_range(), self._deleted
        )

    def keys(self):
        """All keys in key order."""
        base = ((key, None) for key in self._base.keys())
        merged = _fold_layer(base, self._overlay_range(), self._deleted)
        return (key for key, _ in merged)

    def range(self, low=None, high=None):
        """Pairs with ``low <= key < high`` in key order."""
        return _fold_layer(
            self._base.range(low, high),
            self._overlay_range(low, high),
            self._deleted,
        )

    def scan_prefix(self, prefix):
        """Pairs whose key starts with the byte string ``prefix``."""
        prefix = _check_bytes("prefix", prefix)
        return self.range(prefix, key_prefix_upper_bound(prefix))

    # ------------------------------------------------------------------
    # Delta export
    # ------------------------------------------------------------------
    def overlay_items(self):
        """The overlay's ``(key, value)`` pairs, sorted."""
        return self._overlay_range()

    def overlay_deletes(self):
        """Base keys deleted through the overlay, sorted."""
        return sorted(self._deleted)


class StackedKVBase:
    """Read-only LSM-style view over a base block plus delta layers.

    ``bottom`` is a :class:`~repro.storage.encoding.SortedKVBlock`
    (the monolithic base snapshot section); ``layers`` is a bottom-up
    sequence of ``(puts, deleted)`` pairs, one per delta snapshot,
    where ``puts`` is a sorted block of overwritten records and
    ``deleted`` a set of keys removed at that layer.  Lookups resolve
    top-down; iteration is a k-way merge where upper layers win.
    Nothing is merged eagerly — not even the key count, which costs a
    full merge and is computed on the first ``len()``.

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
        self._count = None

    def get(self, key, default=None):
        for puts, deleted in reversed(self._layers):
            value = puts.get(key)
            if value is not None:
                return value
            if key in deleted:
                return default
        return self._bottom.get(key, default)

    def __contains__(self, key):
        return self.get(key) is not None

    def __len__(self):
        if self._count is None:
            self._count = sum(1 for _ in self.keys())
        return self._count

    def range(self, low=None, high=None):
        pairs = self._bottom.range(low, high)
        for puts, deleted in self._layers:
            pairs = _fold_layer(pairs, puts.range(low, high), deleted)
        return pairs

    def items(self):
        return self.range()

    def keys(self):
        return (key for key, _ in self.range())


def _fold_layer(base_pairs, put_pairs, deleted):
    """Merge one layer over a sorted pair stream (puts win)."""
    base_next = iter(base_pairs).__next__
    put_next = iter(put_pairs).__next__
    base = _next_or_none(base_next)
    put = _next_or_none(put_next)
    while base is not None or put is not None:
        if put is None or (base is not None and base[0] < put[0]):
            if base[0] not in deleted:
                yield base
            base = _next_or_none(base_next)
        elif base is None or put[0] < base[0]:
            yield put
            put = _next_or_none(put_next)
        else:  # equal keys: the upper layer shadows the lower one
            yield put
            base = _next_or_none(base_next)
            put = _next_or_none(put_next)


def _next_or_none(advance):
    try:
        return advance()
    except StopIteration:
        return None
