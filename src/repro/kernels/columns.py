"""Columnar views of posting lists (the kernels' data layout).

A :class:`ListColumns` wraps one inverted list's document-ordered
Dewey key column with the two derived structures every batch kernel
needs:

* a **partition table** — ``pids[i]`` with half-open posting ranges
  ``[starts[i], ends[i])``, built with partition-to-partition binary
  search jumps (O(partitions · log n), never a per-posting pass).
  This is the per-block metadata of the block-max skip: which blocks
  (partitions) contain the keyword at all, and where their postings
  live, without touching a single posting.
* **flat int64 arrays** — all components concatenated plus an offset
  table — the zero-copy operands of the compiled galloping kernel.
  Built lazily, only when the compiled backend is active.

Columns built from an inverted list (:func:`columns_for`) also carry
its **type-id column** ``tids`` — each posting's interned prefix-path
id, 2 B/posting — so a result that is still ``(slot, depth)`` over the
key column can be typed without its label: an ancestor-or-self at
``depth`` of posting ``i`` has type ``type_table[tids[i]][:depth]``.

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
from bisect import bisect_left
from functools import partial


def _partition_table(keys, search):
    """``(pids, starts, ends, root_count)`` of a document-ordered key
    column.

    ``search(target, lo)`` is the column's bisect-left; one call per
    partition jumps past it, so the walk never touches a posting twice.
    """
    pids = []
    starts = []
    ends = []
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
        pid = key[:2]
        end = search((pid[0], pid[1] + 1), position)
        pids.append(pid)
        starts.append(position)
        ends.append(end)
        position = end
    return pids, starts, ends, root_count


class ListColumns:
    """Partition table + flat component arrays for one key column."""

    __slots__ = ("keys", "tids", "size", "pids", "starts", "ends",
                 "pid_range", "root_count", "_flat", "_offs", "_pid_cols",
                 "_c", "_pc")

    #: Eager columns always have their partition tables materialized;
    #: the batch presence kernel keys off this to avoid forcing a
    #: blocked column's lazy decode.
    tables_ready = True

    def __init__(self, keys, tids=None):
        #: Document-ordered component tuples (shared, read-only).
        self.keys = keys
        #: Interned type id per key, or ``None`` for a bare key column.
        self.tids = tids
        self.size = len(keys)
        self.pids, self.starts, self.ends, self.root_count = (
            _partition_table(keys, partial(bisect_left, keys))
        )
        #: pid -> (lo, hi); the O(1) random-access probe (SLE).
        self.pid_range = {
            pid: (self.starts[i], self.ends[i])
            for i, pid in enumerate(self.pids)
        }
        self._flat = None
        self._offs = None
        self._pid_cols = None
        self._c = None
        self._pc = None

    def pid_cols(self):
        """``(pid_flat, lo, hi)`` int64 arrays of the partition table.

        ``pid_flat`` holds the two components of every pid back to
        back; the batch presence kernel merge-joins these against
        another column's.  Built on first use, cached for the column's
        lifetime (the tables are immutable once constructed).
        """
        cols = self._pid_cols
        if cols is None:
            pid_flat = array("q")
            for pid in self.pids:
                pid_flat.extend(pid)
            cols = (pid_flat, array("q", self.starts),
                    array("q", self.ends))
            self._pid_cols = cols
        return cols

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

    def hit_keys(self, a_lo, slots, depths, picks):
        """Component tuples of the hits ``picks`` (see ``slca_hits``):
        key ``a_lo + slots[j]`` cut to ``depths[j]``."""
        keys = self.keys
        return [keys[a_lo + slots[j]][: depths[j]] for j in picks]

    def may_contain(self, pid):
        """Exact membership — the eager table *is* the ground truth."""
        return pid in self.pid_range

    def __len__(self):
        return self.size

    def __repr__(self):
        return f"ListColumns(n={self.size}, partitions={len(self.pids)})"


class _LazyPidRanges:
    """``pid -> (lo, hi)`` probes that decode at most two blocks.

    The blocked twin of ``ListColumns.pid_range``: a probe first asks
    the block headers whether the partition's key interval intersects
    any block at all (:meth:`BlockedListColumns.may_contain` — zero
    decodes); only a may-hit falls through to the two header-guided
    binary searches that pin the exact range.  Results (including
    definite misses) are memoized, so SLE's repeated probes of the
    same partition stay dict hits.
    """

    __slots__ = ("_columns", "_memo")

    def __init__(self, columns):
        self._columns = columns
        self._memo = {}

    def get(self, pid, default=None):
        memo = self._memo
        if pid in memo:
            span = memo[pid]
        else:
            columns = self._columns
            span = None
            if columns.may_contain(pid):
                keys = columns.keys
                lo = keys.bisect_left(pid)
                hi = keys.bisect_left((pid[0], pid[1] + 1), lo)
                if lo < hi:
                    span = (lo, hi)
            memo[pid] = span
        return span if span is not None else default

    def __contains__(self, pid):
        return self.get(pid) is not None


class BlockedListColumns:
    """Columns over a multi-block :class:`~repro.index.inverted.InvertedList`.

    Duck-compatible with :class:`ListColumns`, but nothing decodes at
    construction: partition probes (``pid_range.get`` /
    ``may_contain``) answer from the block headers first, and the full
    partition table / flat arrays materialize only when a whole-list
    consumer (the partition kernel, the compiled SLCA backend) asks
    for them.
    """

    __slots__ = ("keys", "tids", "size", "pid_range", "_blocks", "_firsts",
                 "_lasts", "_pids", "_starts", "_ends", "_root_count",
                 "_flat", "_offs", "_pid_cols", "_c", "_pc")

    def __init__(self, inverted_list):
        self.keys = inverted_list.dewey_keys
        #: Lazy like ``keys`` until :meth:`flat_offs` has walked every
        #: block anyway; a flat array from then on.
        self.tids = inverted_list.type_ids
        self._blocks = inverted_list.block_store
        self.size = len(self.keys)
        self._firsts = self._blocks.firsts
        self._lasts = self._blocks.lasts
        self.pid_range = _LazyPidRanges(self)
        self._pids = None
        self._starts = None
        self._ends = None
        self._root_count = 0
        self._flat = None
        self._offs = None
        self._pid_cols = None
        self._c = None
        self._pc = None

    @property
    def tables_ready(self):
        """True once a whole-list consumer has made the column resident.

        The batch presence path must never be the thing that forces a
        blocked column resident — paging's sub-linear RSS depends on
        header-first probes — so it only engages when something else
        already paid for the decode: the partition kernel built the
        partition table, or the compiled backend's ``flat_offs`` walked
        every block.  Either way the table is then a pass over decoded
        keys, not a decode.
        """
        return self._pids is not None or self._flat is not None

    #: Same contract as :meth:`ListColumns.pid_cols` (full decode).
    pid_cols = ListColumns.pid_cols

    def may_contain(self, pid):
        """Header-only presence test — a superset of the truth.

        ``False`` is definite (no block's key interval intersects the
        partition); ``True`` only means a probe must look inside.
        """
        lasts = self._lasts
        block = bisect_left(lasts, pid)
        if block == len(lasts):
            return False
        return self._firsts[block] < (pid[0], pid[1] + 1)

    def _ensure_tables(self):
        if self._pids is None:
            (self._pids, self._starts, self._ends,
             self._root_count) = _partition_table(
                self.keys, self.keys.bisect_left
            )

    @property
    def pids(self):
        self._ensure_tables()
        return self._pids

    @property
    def starts(self):
        self._ensure_tables()
        return self._starts

    @property
    def ends(self):
        self._ensure_tables()
        return self._ends

    @property
    def root_count(self):
        self._ensure_tables()
        return self._root_count

    def flat_offs(self):
        """Same contract as :meth:`ListColumns.flat_offs` (full decode).

        The walk visits every block, so it also concatenates their
        type-id columns into the flat ``tids``.
        """
        flat = self._flat
        if flat is None:
            blocks = self._blocks
            flat = array("q")
            offs = array("q", bytes(8 * (self.size + 1)))
            tids = array(blocks.type_id_code)
            position = 0
            i = 0
            for index in range(blocks.block_count):
                keys, type_ids, _counts = blocks.block(index)
                tids.extend(type_ids)
                for key in keys:
                    flat.extend(key)
                    position += len(key)
                    i += 1
                    offs[i] = position
            self.tids = tids
            self._flat = flat
            self._offs = offs
        return flat, self._offs

    def hit_keys(self, a_lo, slots, depths, picks):
        """Same contract as :meth:`ListColumns.hit_keys`; reads the flat
        component array once it exists instead of decoding via blocks."""
        flat = self._flat
        if flat is None:
            keys = self.keys
            return [keys[a_lo + slots[j]][: depths[j]] for j in picks]
        offs = self._offs
        built = []
        for j in picks:
            start = offs[a_lo + slots[j]]
            built.append(tuple(flat[start : start + depths[j]]))
        return built

    def __len__(self):
        return self.size

    def __repr__(self):
        return (
            f"BlockedListColumns(n={self.size}, "
            f"blocks={len(self._lasts)})"
        )


def columns_for(inverted_list):
    """The cached columns of one inverted list.

    A list of more than one block gets the header-first
    :class:`BlockedListColumns`; a one-block list, decoded when it was
    opened, the eager :class:`ListColumns`.
    """
    columns = inverted_list._kernel_columns
    if columns is None:
        if inverted_list.block_count > 1:
            columns = BlockedListColumns(inverted_list)
        else:
            columns = ListColumns(
                inverted_list.dewey_keys, inverted_list.type_ids
            )
        inverted_list._kernel_columns = columns
    return columns


def partition_view(columns):
    """Merged partition presence over several columns.

    Returns ``[(pid, ranges), ...]`` in document order, where
    ``ranges[lane]`` is the ``(lo, hi)`` posting range of ``pid`` in
    ``columns[lane]`` or ``None`` when the lane has no posting there —
    exactly the partitions a merged cursor scan would visit and the
    sublists it would slice, at per-partition-entry cost.
    """
    return [
        (pid, spans) for pid, spans, _mask, _n in
        partition_view_masked(columns)
    ]


def partition_view_masked(columns):
    """:func:`partition_view` plus per-partition presence summaries.

    Returns ``[(pid, ranges, mask, postings), ...]`` where ``mask``
    sets bit ``lane`` when ``ranges[lane]`` is present and ``postings``
    is the total posting count across lanes — the two aggregates the
    partition kernel previously recomputed per partition in Python,
    now built during the same merge pass at no extra cost.
    """
    lanes = len(columns)
    table = {}
    for lane, column in enumerate(columns):
        starts = column.starts
        ends = column.ends
        bit = 1 << lane
        for i, pid in enumerate(column.pids):
            entry = table.get(pid)
            if entry is None:
                entry = table[pid] = [[None] * lanes, 0, 0]
            lo = starts[i]
            hi = ends[i]
            entry[0][lane] = (lo, hi)
            entry[1] |= bit
            entry[2] += hi - lo
    return [
        (pid, spans, mask, postings)
        for pid, (spans, mask, postings) in sorted(table.items())
    ]
