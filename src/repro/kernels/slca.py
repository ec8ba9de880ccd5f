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
over the depth column holding a single candidate.  The compiled backend
runs the folds and the filter in one call (``repro_slca_hits``); the
pure-Python twins are :func:`_fold_depths_python` and
:func:`_emit_python`.  What survives is returned as **hits**: ``(slot,
depth)`` pairs over the anchor's columns (:func:`slca_hits`).  A hit is
a result that is still a column entry — the refinement routes decide
Definition 3.3 on it from the anchor's type-id column and keep the
component tuples of what passes; a ``Dewey`` is built only when a
result is read; :func:`slca_ranges` / :func:`slca_columns` are the
wrappers that label every hit.

The one semantic the batch form cannot reproduce is the
``DeweyError`` raised for labels sharing no prefix (cross-document
lists): a computed depth of 0 routes the whole call back to the
classic per-node implementation, which raises identically.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from ..xmltree.dewey import Dewey
from . import backend


def _lcp(a, b):
    shared = 0
    for x, y in zip(a, b):
        if x != y:
            break
        shared += 1
    return shared


def _fold_depths_python(anchor_keys, a_lo, a_hi, keys, m_lo, m_hi, depths):
    """Pure-Python twin of ``repro_slca_hits``' per-matcher fold."""
    position = m_lo
    for i in range(a_lo, a_hi):
        target = anchor_keys[i]
        position = bisect_right(keys, target, position, m_hi)
        depth = 0
        if position > m_lo:
            depth = _lcp(keys[position - 1], target)
        if position < m_hi:
            ceil_depth = _lcp(keys[position], target)
            if ceil_depth > depth:
                depth = ceil_depth
        slot = i - a_lo
        if depth < depths[slot]:
            depths[slot] = depth
    return depths


#: ``slca_hits`` of an empty input or an empty range.
_NO_HITS = (None, 0, (), (), 0)


def _range_size(entry):
    return entry[2] - entry[1]


def slca_hits(column_ranges):
    """SLCAs of the key ranges ``[(ListColumns, lo, hi), ...]`` as hits.

    One entry per keyword.  Returns ``(anchor_columns, a_lo, slots,
    depths, count)``: SLCA ``j < count`` is the node at depth
    ``depths[j]`` above (or at) posting ``a_lo + slots[j]`` of the
    anchor — the shortest range — in document order, the same pairs
    from both backends.  ``slots`` / ``depths`` may be longer than
    ``count``; ``anchor_columns`` is ``None`` when ``count`` is 0
    because there was nothing to scan.
    """
    if not column_ranges:
        return _NO_HITS
    # Stable: the anchor is the first shortest range, the matchers
    # follow shortest first.
    ranked = sorted(column_ranges, key=_range_size)
    anchor_columns, a_lo, a_hi = ranked[0]
    count = a_hi - a_lo
    if count <= 0:
        return _NO_HITS

    lib = backend.compiled
    if lib is not None:
        # One crossing per SLCA: depth initialization, every matcher
        # fold and the ancestor filter run inside repro_slca_hits, with
        # each column's pointer casts memoized on the column.
        a_flat_c, a_offs_c = backend.column_handles(lib, anchor_columns)
        m_cols = []
        m_bounds = []
        for column, m_lo, m_hi in ranked[1:]:
            m_cols += backend.column_handles(lib, column)
            m_bounds += (m_lo, m_hi)
        ffi = lib.ffi
        out = ffi.new("int64_t[]", 2 * count)
        emitted = lib.lib.repro_slca_hits(
            a_flat_c, a_offs_c, a_lo, a_hi, m_cols, m_bounds,
            len(ranked) - 1, out,
        )
        if emitted >= 0:
            emitted = (
                ffi.unpack(out + count, emitted),
                ffi.unpack(out, emitted),
                emitted,
            )
        else:
            emitted = None
    else:
        anchor_keys = anchor_columns.keys
        depths = [len(anchor_keys[i]) for i in range(a_lo, a_hi)]
        for column, m_lo, m_hi in ranked[1:]:
            _fold_depths_python(
                anchor_keys, a_lo, a_hi, column.keys, m_lo, m_hi, depths
            )
        emitted = _emit_python(anchor_keys, a_lo, depths)

    if emitted is None:
        # Labels from different documents: re-run the classic per-node
        # path, which raises the exact DeweyError — unless its depth-1
        # early exit never compares the unrelated pair.  What it then
        # answers are prefixes of anchor keys, like any hit.
        from ..slca.scan_eager import scan_eager_slca

        labels = scan_eager_slca(
            [
                [Dewey.from_trusted(column.keys[i]) for i in range(lo, hi)]
                for column, lo, hi in column_ranges
            ]
        )
        anchor_keys = anchor_columns.keys
        emitted = (
            [
                bisect_left(anchor_keys, label.components, a_lo, a_hi) - a_lo
                for label in labels
            ],
            [len(label.components) for label in labels],
            len(labels),
        )
    return (anchor_columns, a_lo) + emitted


def _emit_python(anchor_keys, a_lo, depths):
    """Pure-Python twin of ``repro_slca_hits``' streaming filter.

    Anchor ``a_lo + slot``'s candidate is its first ``depths[slot]``
    components.  One pass holding a single candidate: a next candidate
    that extends the held one replaces it, one that is a prefix of it
    (or equal) is dropped, an unrelated one emits it.  Exact because
    anchors are document-ordered and every candidate is a prefix of its
    anchor (see the C source for the argument); the result is the SLCAs
    in document order as ``(slots, depths, count)``, or ``None`` when
    some depth is 0.
    """
    kept_slots = []
    kept_depths = []
    held = None
    held_slot = 0
    held_depth = 0
    for slot, depth in enumerate(depths):
        if depth == 0:
            return None
        candidate = anchor_keys[a_lo + slot][:depth]
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
    return kept_slots, kept_depths, len(kept_slots)


def hit_labels(hits):
    """``Dewey`` labels of every hit."""
    columns, a_lo, slots, depths, count = hits
    if not count:
        return []
    return list(map(
        Dewey.from_trusted,
        columns.hit_keys(a_lo, slots, depths, range(count)),
    ))


def slca_ranges(column_ranges):
    """:func:`slca_hits` as document-ordered ``Dewey`` labels,
    byte-identical to ``scan_eager_slca`` over the same label slices."""
    return hit_labels(slca_hits(column_ranges))


def slca_columns(columns):
    """SLCAs over whole columns (step-2 / whole-list calls)."""
    return slca_ranges([(column, 0, column.size) for column in columns])
