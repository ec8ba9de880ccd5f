"""Result lists kept as posting-column entries until they are read.

An SLCA result is always an ancestor-or-self of some posting: the node
``depth`` components deep on the path to posting ``position`` of a
key column.  A :class:`HitRecord` holds a whole result list that way —
``int64`` position and depth arrays, plus a lane array when the hits
come from several columns — from the SLCA kernel until the list is
read.  Reading it costs one call:

* :meth:`HitRecord.labels` — the dotted labels a response sends, all
  written by one ``repro_render_labels`` call into one buffer (the
  pure-Python twin joins each key's components with ``"."``);
* :meth:`HitRecord.keys` / :meth:`HitRecord.deweys` — component tuples
  and ``Dewey`` labels, for callers that read the labels as objects;
* :meth:`HitRecord.ordered` — the same nodes in document order with
  repeats dropped (``repro_order_hits``, or ``sorted(set(keys))``).

The record pins the columns it points into.  Those arrays are owned —
a list's decode copies them out of the snapshot mapping — so a record
still reads right after its snapshot is swapped out and closed.
"""

from __future__ import annotations

from array import array

from ..xmltree.dewey import Dewey
from . import backend


def _zeros(count):
    return array("q", bytes(8 * count))


def _lanes_c(lib, lanes):
    return lib.ffi.NULL if lanes is None else lib.i64(lanes)


class HitRecord:
    """Result nodes as ``(column, position, depth)`` entries.

    Entry ``j`` is the node ``depths[j]`` components deep on the path
    to posting ``positions[j]`` of ``columns[lanes[j]]`` —
    ``columns[0]`` when ``lanes`` is ``None``.  ``columns`` is a tuple
    of :class:`~repro.kernels.columns.ListColumns`; the three arrays are
    ``array('q')``.  A record is built and extended while a query runs
    and only read after.
    """

    __slots__ = ("columns", "lanes", "positions", "depths")

    def __init__(self, columns=(), positions=None, depths=None, lanes=None):
        self.columns = tuple(columns)
        self.positions = positions if positions is not None else array("q")
        self.depths = depths if depths is not None else array("q")
        self.lanes = lanes

    def __len__(self):
        return len(self.positions)

    def __repr__(self):
        return f"HitRecord(n={len(self)}, columns={len(self.columns)})"

    def _lane_of(self, column):
        for lane, known in enumerate(self.columns):
            if known is column:
                return lane
        self.columns += (column,)
        return len(self.columns) - 1

    def extend(self, other):
        """Append ``other``'s entries (in their order) to this record."""
        count = len(other)
        if not count:
            return
        lanes = self.lanes
        if lanes is None:
            lanes = self.lanes = _zeros(len(self))
        if other.columns == self.columns:
            lanes += other.lanes if other.lanes is not None else _zeros(count)
        elif other.lanes is None:
            lanes += array("q", [self._lane_of(other.columns[0])]) * count
        else:
            mapped = [self._lane_of(column) for column in other.columns]
            lanes.extend(mapped[lane] for lane in other.lanes)
        self.positions += other.positions
        self.depths += other.depths

    def keys(self):
        """Each entry's component tuple."""
        lanes = self.lanes
        keys = []
        for j, (position, depth) in enumerate(zip(self.positions,
                                                  self.depths)):
            flat, offs = self.columns[lanes[j] if lanes else 0].flat_offs()
            start = offs[position]
            keys.append(tuple(flat[start:start + depth]))
        return keys

    def deweys(self):
        """Each entry as a ``Dewey`` label."""
        return list(map(Dewey.from_trusted, self.keys()))

    def labels(self):
        """Each entry's dotted label (``str`` of its ``Dewey``)."""
        count = len(self)
        if not count:
            return []
        lib = backend.compiled
        if lib is None:
            return [".".join(map(str, key)) for key in self.keys()]
        flats, offs = self._handles(lib)
        ffi = lib.ffi
        out = ffi.new("char[]", 21 * sum(self.depths))
        written = lib.lib.repro_render_labels(
            flats, offs, _lanes_c(lib, self.lanes), lib.i64(self.positions),
            lib.i64(self.depths), count, out,
        )
        return ffi.unpack(out, written).decode("ascii").split("\n")

    def ordered(self):
        """A record of the same nodes in document order, each once."""
        count = len(self)
        lanes = None if self.lanes is None else array("q", self.lanes)
        if count and backend.compiled is None:
            keys = self.keys()
            order = []
            for j in sorted(range(count), key=keys.__getitem__):
                if not order or keys[order[-1]] != keys[j]:
                    order.append(j)
            return HitRecord(
                self.columns,
                array("q", [self.positions[j] for j in order]),
                array("q", [self.depths[j] for j in order]),
                None if lanes is None else array("q", [lanes[j] for j in order]),
            )
        positions = array("q", self.positions)
        depths = array("q", self.depths)
        if count:
            lib = backend.compiled
            flats, offs = self._handles(lib)
            kept = lib.lib.repro_order_hits(
                flats, offs, _lanes_c(lib, lanes), lib.i64(positions),
                lib.i64(depths), count, lib.i64(_zeros(5 * count)),
            )
            if kept < count:
                positions = positions[:kept]
                depths = depths[:kept]
                lanes = None if lanes is None else lanes[:kept]
        return HitRecord(self.columns, positions, depths, lanes)

    def _handles(self, lib):
        flats = []
        offs = []
        for column in self.columns:
            flat_c, offs_c = backend.column_handles(lib, column)
            flats.append(flat_c)
            offs.append(offs_c)
        return flats, offs
