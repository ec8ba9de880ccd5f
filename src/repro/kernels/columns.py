"""Columnar views of posting lists (the kernels' data layout).

A :class:`ListColumns` is one inverted list's document-ordered keys as
arrays, and nothing else:

* **flat int64 arrays** — all components concatenated (``flat``) plus
  an offset table (``offs``): key ``i`` is ``flat[offs[i]:offs[i +
  1]]``, ``offs[i + 1] - offs[i]`` components long.  They are the
  zero-copy operands of the compiled kernels and what every pure-Python
  twin slices.
* a **partition table** — partition ``i`` is the pid
  ``pid_flat[2i:2i + 2]`` with the half-open posting range
  ``[starts[i], ends[i])``, all three ``int64`` arrays.  It says which
  blocks (partitions) contain the keyword at all, and where their
  postings live, without touching a single posting.
* the **type-id column** ``tids`` — each posting's interned prefix-path
  id, 2 B/posting — so a result that is still ``(slot, depth)`` over the
  key column can be typed without its label: an ancestor-or-self at
  ``depth`` of posting ``i`` has type ``type_table[tids[i]][:depth]``.

Columns of an inverted list (:func:`columns_for`) take all of them
straight from the list's one decode
(:meth:`~repro.index.inverted.InvertedList.arrays`).  Columns over a bare
list of key tuples (``ListColumns(keys)``) pack the keys into ``flat`` /
``offs`` once, in the constructor, and run the decoder's partition walk
(:func:`~repro.index.blocks.partition_table`) over them; after that the
two differ only in where their arrays came from.  No column keeps a key
tuple or a pid tuple: a reader that wants one cuts it from the arrays
and drops it.

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

from ..index.blocks import pack_keys, partition_table


class ListColumns:
    """Flat component arrays + partition table for one key column."""

    __slots__ = ("tids", "size", "pid_flat", "starts", "ends", "root_count",
                 "_flat", "_offs", "_c", "_pc")

    def __init__(self, keys, tids=None):
        flat, offs = pack_keys(keys)
        self._fill(flat, offs, tids, partition_table(flat, offs))

    @classmethod
    def of_list(cls, inverted_list):
        """The columns of an inverted list, over its decoded arrays."""
        arrays = inverted_list.arrays()
        columns = cls.__new__(cls)
        columns._fill(arrays.flat, arrays.offs, arrays.tids, arrays[4:])
        return columns

    def _fill(self, flat, offs, tids, table):
        self._flat = flat
        self._offs = offs
        #: Interned type id per key, or ``None`` for a bare key column.
        self.tids = tids
        self.size = len(offs) - 1
        self.pid_flat, self.starts, self.ends, self.root_count = table
        self._c = None
        self._pc = None

    def flat_offs(self):
        """``(flat, offs)``, the key column's ``int64`` arrays: ``flat``
        concatenates every key's components; ``offs[i]`` is key ``i``'s
        start within it (``size + 1`` entries)."""
        return self._flat, self._offs

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
        pid_flat = column.pid_flat
        pids = zip(pid_flat[0::2], pid_flat[1::2])
        for pid, lo, hi in zip(pids, column.starts, column.ends):
            spans = table.get(pid)
            if spans is None:
                spans = table[pid] = [None] * lanes
            spans[lane] = (lo, hi)
    return sorted(table.items())
