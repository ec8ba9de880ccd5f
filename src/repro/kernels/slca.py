"""Columnar batch SLCA — Scan Eager restructured column-at-a-time.

``scan_eager_slca`` walks the anchor list one label at a time, asking
every matcher for its closest element.  This kernel transposes the
loops: the anchor range's candidate **depths** are computed one whole
matcher column at a time, so the inner loop is a single galloping
sweep over two flat arrays — pure pointer arithmetic in the compiled
backend, one bisect per anchor in the Python fallback.

The transposition is exact, not approximate:

* For anchor ``a``, Scan Eager's candidate is ``lca(a, m)`` over the
  per-matcher closest elements ``m`` — always a *prefix of the
  anchor*, so only its depth matters.
* A matcher's closest element is the anchor's floor or ceiling in the
  matcher column (the forward pointer never changes which, only how
  fast it is found), and ``depth = max(lcp(floor), lcp(ceil))``
  regardless of the floor-favouring tie-break on the returned label.
* The final candidate depth is the **min** over matchers, and min is
  order-independent — the per-anchor ``depth == 1`` early exit prunes
  work, never changes the value.

Candidates then pass XKSearch's streaming ancestor filter — one pass
over the depth column holding a single candidate — and, for the
refinement routes, Definition 3.3 read from the anchor's type-id
column.  The compiled backend runs the folds, the filter and the
meaningful test in one call (``repro_slca_hits``); the pure-Python
twins are :func:`_fold_depths_python`, :func:`_emit_python` and a list
comprehension, which cut each key they compare from the column's
``(flat, offs)`` arrays and keep none.  What survives is returned as a
:class:`~repro.kernels.hits.HitRecord` (:func:`slca_hits`): results
that are still ``(position, depth)`` entries of the anchor's column,
labelled only when read; :func:`slca_ranges` / :func:`slca_columns` are
the wrappers that build every hit's ``Dewey``.

The one semantic the batch form cannot reproduce is the
``DeweyError`` raised for labels sharing no prefix (cross-document
lists): a computed depth of 0 routes the whole call back to the
classic per-node implementation, which raises identically.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right

from ..xmltree.dewey import Dewey
from . import backend
from .hits import HitRecord


def _lcp(a, b):
    shared = 0
    for x, y in zip(a, b):
        if x != y:
            break
        shared += 1
    return shared


def _key_at(column):
    """Position -> key tuple of a column, cut from its flat arrays."""
    flat, offs = column.flat_offs()

    def key(i):
        return tuple(flat[offs[i]:offs[i + 1]])

    return key


def _fold_depths_python(anchor_key, a_lo, a_hi, key, m_lo, m_hi, depths):
    """Pure-Python twin of ``repro_slca_hits``' per-matcher fold.

    ``anchor_key`` and ``key`` map a position of the anchor and of the
    matcher column to its key tuple (:func:`_key_at`)."""
    positions = range(m_hi)
    position = m_lo
    for i in range(a_lo, a_hi):
        target = anchor_key(i)
        position = bisect_right(positions, target, position, m_hi, key=key)
        depth = 0
        if position > m_lo:
            depth = _lcp(key(position - 1), target)
        if position < m_hi:
            ceil_depth = _lcp(key(position), target)
            if ceil_depth > depth:
                depth = ceil_depth
        slot = i - a_lo
        if depth < depths[slot]:
            depths[slot] = depth
    return depths


def _range_size(entry):
    return entry[2] - entry[1]


def slca_hits(column_ranges, need=None):
    """SLCAs of the key ranges ``[(ListColumns, lo, hi), ...]`` as a
    :class:`~repro.kernels.hits.HitRecord`.

    One entry per keyword.  SLCA ``j`` is the node ``depths[j]``
    components deep on the path to posting ``positions[j]`` of the
    anchor — the shortest range, the record's one column — in document
    order, the same entries from both backends.  With ``need``
    (:attr:`QueryContext.need <repro.core.common.QueryContext.need>`)
    only the meaningful SLCAs are kept (Definition 3.3: ``depth >=
    need[type id]``, read from the anchor's type-id column).
    """
    if not column_ranges:
        return HitRecord()
    # Stable: the anchor is the first shortest range, the matchers
    # follow shortest first.
    ranked = sorted(column_ranges, key=_range_size)
    anchor_columns, a_lo, a_hi = ranked[0]
    count = a_hi - a_lo
    if count <= 0:
        return HitRecord()

    lib = backend.compiled
    if lib is not None:
        # One crossing per SLCA: depth initialization, every matcher
        # fold, the ancestor filter and Definition 3.3 run inside
        # repro_slca_hits, with each column's pointer casts memoized on
        # the column.
        a_flat_c, a_offs_c = backend.column_handles(lib, anchor_columns)
        m_cols = []
        m_bounds = []
        for column, m_lo, m_hi in ranked[1:]:
            m_cols += backend.column_handles(lib, column)
            m_bounds += (m_lo, m_hi)
        ffi = lib.ffi
        if need is None:
            tids_c, width, need_c = ffi.NULL, 0, ffi.NULL
        else:
            tids_c, width = backend.type_id_handle(lib, anchor_columns)
            need_c = lib.i64(need)
        out = ffi.new("int64_t[]", 2 * count)
        kept = lib.lib.repro_slca_hits(
            a_flat_c, a_offs_c, tids_c, width, need_c, a_lo, a_hi,
            m_cols, m_bounds, len(ranked) - 1, out,
        )
        if kept >= 0:
            positions = array("q")
            positions.frombytes(ffi.buffer(out + count, 8 * kept))
            depths = array("q")
            depths.frombytes(ffi.buffer(out, 8 * kept))
            return HitRecord((anchor_columns,), positions, depths)
        emitted = None
    else:
        anchor_key = _key_at(anchor_columns)
        a_offs = anchor_columns.flat_offs()[1]
        depths = [a_offs[i + 1] - a_offs[i] for i in range(a_lo, a_hi)]
        for column, m_lo, m_hi in ranked[1:]:
            _fold_depths_python(
                anchor_key, a_lo, a_hi, _key_at(column), m_lo, m_hi, depths
            )
        emitted = _emit_python(anchor_columns, a_lo, depths)

    if emitted is None:
        # Labels from different documents: re-run the classic per-node
        # path, which raises the exact DeweyError — unless its depth-1
        # early exit never compares the unrelated pair.  What it then
        # answers are prefixes of anchor keys, like any hit.
        from ..slca.scan_eager import scan_eager_slca

        labels = scan_eager_slca([
            list(map(Dewey.from_trusted, map(_key_at(column), range(lo, hi))))
            for column, lo, hi in column_ranges
        ])
        anchor_key = _key_at(anchor_columns)
        positions = range(a_hi)
        emitted = (
            [
                bisect_left(positions, label.components, a_lo, a_hi,
                            key=anchor_key) - a_lo
                for label in labels
            ],
            [len(label.components) for label in labels],
        )
    hits = HitRecord((anchor_columns,))
    tids = anchor_columns.tids
    for slot, depth in zip(*emitted):
        position = a_lo + slot
        if need is None or depth >= need[tids[position]]:
            hits.positions.append(position)
            hits.depths.append(depth)
    return hits


def _emit_python(anchor_columns, a_lo, depths):
    """Pure-Python twin of ``repro_slca_hits``' streaming filter.

    Anchor ``a_lo + slot``'s candidate is its first ``depths[slot]``
    components.  One pass holding a single candidate: a next candidate
    that extends the held one replaces it, one that is a prefix of it
    (or equal) is dropped, an unrelated one emits it.  Exact because
    anchors are document-ordered and every candidate is a prefix of its
    anchor (see the C source for the argument); the result is the SLCAs
    in document order as ``(slots, depths)``, or ``None`` when some
    depth is 0.
    """
    flat, offs = anchor_columns.flat_offs()
    kept_slots = []
    kept_depths = []
    held = None
    held_slot = 0
    held_depth = 0
    for slot, depth in enumerate(depths):
        if depth == 0:
            return None
        start = offs[a_lo + slot]
        candidate = flat[start:start + depth]
        if held is not None:
            if depth >= held_depth:
                if candidate[:held_depth] == held:
                    if depth > held_depth:
                        held = candidate
                        held_slot = slot
                        held_depth = depth
                    continue
            elif held[:depth] == candidate:
                continue
            kept_slots.append(held_slot)
            kept_depths.append(held_depth)
        held = candidate
        held_slot = slot
        held_depth = depth
    if held is not None:
        kept_slots.append(held_slot)
        kept_depths.append(held_depth)
    return kept_slots, kept_depths


def slca_ranges(column_ranges):
    """:func:`slca_hits` as document-ordered ``Dewey`` labels,
    byte-identical to ``scan_eager_slca`` over the same label slices."""
    return slca_hits(column_ranges).deweys()


def slca_columns(columns):
    """SLCAs over whole columns (step-2 / whole-list calls)."""
    return slca_ranges([(column, 0, column.size) for column in columns])
