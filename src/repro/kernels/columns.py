"""Columnar views of posting lists (the kernels' data layout).

A :class:`ListColumns` wraps one inverted list's document-ordered
Dewey key column with the two derived structures every batch kernel
needs:

* a **partition table** — partition ``i`` is the pid
  ``pid_flat[2i:2i + 2]`` with the half-open posting range
  ``[starts[i], ends[i])``, all three ``int64`` arrays.  It says which
  blocks (partitions) contain the keyword at all, and where their
  postings live, without touching a single posting.
* **flat int64 arrays** — all components concatenated plus an offset
  table — the zero-copy operands of the compiled kernels.

Columns of an inverted list (:func:`columns_for`) take both straight
from the list's one decode (:meth:`~repro.index.inverted.InvertedList.arrays`),
along with its **type-id column** ``tids`` — each posting's interned
prefix-path id, 2 B/posting — so a result that is still ``(slot,
depth)`` over the key column can be typed without its label: an
ancestor-or-self at ``depth`` of posting ``i`` has type
``type_table[tids[i]][:depth]``.  Their key tuples, their pid tuples and
the ``pid -> (lo, hi)`` map are built only when something reads them.
Columns over a bare list of key tuples (``ListColumns(keys)``) build
the same table with binary-search jumps, and their flat arrays on
first use.

Columns are cached on the :class:`~repro.index.inverted.InvertedList`
itself (``_kernel_columns``); the index's decode cache keeps one list
object per keyword and replaces it on any mutation, so object identity
gives exact freshness for free.

:func:`partition_view` merges several columns' partition tables into
the ordered presence view Algorithm 2 iterates: each distinct
partition id, in document order, with every lane's posting range (or
``None``) — byte-for-byte the partitions and sublists the former
per-posting cursor merge produced, at per-partition instead of
per-posting cost.
"""

from __future__ import annotations

from array import array

from ..index.blocks import partition_table


class ListColumns:
    """Partition table + flat component arrays for one key column."""

    __slots__ = ("_keys", "_owner", "tids", "size", "pid_flat", "starts",
                 "ends", "root_count", "_pids", "_pid_range", "_flat",
                 "_offs", "_c", "_pc")

    def __init__(self, keys, tids=None):
        self._fill(keys, None, tids, len(keys), partition_table(keys),
                   None, None)

    @classmethod
    def of_list(cls, inverted_list):
        """The columns of an inverted list, over its decoded arrays."""
        arrays = inverted_list.arrays()
        columns = cls.__new__(cls)
        columns._fill(None, inverted_list, arrays.tids, len(arrays.offs) - 1,
                      arrays[4:], arrays.flat, arrays.offs)
        return columns

    def _fill(self, keys, owner, tids, size, table, flat, offs):
        self._keys = keys
        self._owner = owner  # the InvertedList whose key tuples these are
        #: Interned type id per key, or ``None`` for a bare key column.
        self.tids = tids
        self.size = size
        self.pid_flat, self.starts, self.ends, self.root_count = table
        self._pids = None
        self._pid_range = None
        self._flat = flat
        self._offs = offs
        self._c = None
        self._pc = None

    @property
    def keys(self):
        """Document-ordered component tuples (shared, read-only)."""
        keys = self._keys
        if keys is None:
            keys = self._keys = self._owner.dewey_keys
        return keys

    @property
    def pids(self):
        """The partition ids, as ``(component, component)`` tuples."""
        pids = self._pids
        if pids is None:
            flat = self.pid_flat
            pids = self._pids = list(zip(flat[0::2], flat[1::2]))
        return pids

    @property
    def pid_range(self):
        """pid -> (lo, hi); the O(1) random-access probe (SLE)."""
        ranges = self._pid_range
        if ranges is None:
            ranges = self._pid_range = dict(
                zip(self.pids, zip(self.starts, self.ends))
            )
        return ranges

    def pid_cols(self):
        """``(pid_flat, starts, ends)``, the partition table as the
        batch presence kernel merge-joins it."""
        return self.pid_flat, self.starts, self.ends

    def flat_offs(self):
        """``(flat, offs)`` int64 arrays for the compiled kernels.

        ``flat`` concatenates every key's components; ``offs[i]`` is
        key ``i``'s start within it (``size + 1`` entries).  Built on
        first use and cached for the column's lifetime.
        """
        flat = self._flat
        if flat is None:
            flat = array("q")
            offs = array("q", bytes(8 * (self.size + 1)))
            position = 0
            for i, key in enumerate(self.keys):
                flat.extend(key)
                position += len(key)
                offs[i + 1] = position
            self._flat = flat
            self._offs = offs
        return flat, self._offs

    def __len__(self):
        return self.size

    def __repr__(self):
        return f"ListColumns(n={self.size}, partitions={len(self.starts)})"


def columns_for(inverted_list):
    """The cached :class:`ListColumns` of one inverted list (reading
    them decodes the list, if nothing has yet)."""
    columns = inverted_list._kernel_columns
    if columns is None:
        columns = inverted_list._kernel_columns = ListColumns.of_list(
            inverted_list
        )
    return columns


def partition_view(columns):
    """Merged partition presence over several columns.

    Returns ``[(pid, ranges), ...]`` in document order, where
    ``ranges[lane]`` is the ``(lo, hi)`` posting range of ``pid`` in
    ``columns[lane]`` or ``None`` when the lane has no posting there —
    exactly the partitions a merged cursor scan would visit and the
    sublists it would slice, at per-partition-entry cost.
    """
    lanes = len(columns)
    table = {}
    for lane, column in enumerate(columns):
        for pid, lo, hi in zip(column.pids, column.starts, column.ends):
            spans = table.get(pid)
            if spans is None:
                spans = table[pid] = [None] * lanes
            spans[lane] = (lo, hi)
    return sorted(table.items())
