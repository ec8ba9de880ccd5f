"""One compiled SLCA call equals the pure-Python fold and filter.

``slca_hits`` never materializes one candidate per anchor: every
matcher column folds into the anchor range's depth column, which then
goes through a one-pass filter that holds a single candidate.  The
compiled backend does both in one call (``repro_slca_hits``); the
pure-Python reference is ``_fold_depths_python`` per matcher, then
``_emit_python``.  Held here: for *any* document-ordered key column and
*any* per-anchor prefix depths — not only the ones a matcher fold can
produce — the Python filter spells what ``remove_ancestors`` makes of
the sliced candidates, in the same order; for any anchor range and any
zero or more matcher ranges the compiled call returns the pairs the
Python twins return, and reports a depth of 0 as no survivors exactly
when they do.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.backend as backend_module
from repro.errors import DeweyError
from repro.kernels import ListColumns, slca_ranges
from repro.kernels.slca import _emit_python, _fold_depths_python
from repro.slca.lca import remove_ancestors
from repro.slca.scan_eager import scan_eager_slca
from repro.xmltree.dewey import Dewey

# Small fan-out and depth so prefixes, siblings and repeats are common.
_keys = st.lists(st.integers(0, 3), max_size=5).map(
    lambda tail: (0,) + tuple(tail)
)
# Mostly one document; a key under root 1 shares no prefix with root 0.
_any_root_keys = st.tuples(
    st.sampled_from((0, 0, 0, 1)), st.lists(st.integers(0, 3), max_size=5)
).map(lambda pair: (pair[0],) + tuple(pair[1]))


@st.composite
def _column_and_depths(draw):
    """A sorted unique key column, a sub-range, a valid depth per anchor."""
    keys = sorted(draw(st.sets(_keys, min_size=1, max_size=40)))
    a_lo = draw(st.integers(0, len(keys) - 1))
    a_hi = draw(st.integers(a_lo + 1, len(keys)))
    depths = [
        draw(st.integers(1, len(keys[position])))
        for position in range(a_lo, a_hi)
    ]
    return keys, a_lo, depths


@st.composite
def _ranges(draw, keys=_keys, min_size=1):
    """A sorted unique key column and a non-empty range over it."""
    column = sorted(draw(st.sets(keys, min_size=min_size, max_size=30)))
    lo = draw(st.integers(0, len(column) - 1))
    hi = draw(st.integers(lo + 1, len(column)))
    return column, lo, hi


def _pairs(emitted):
    slots, depths = emitted
    return list(zip(slots, depths))


def _spelled(keys, a_lo, emitted):
    return [keys[a_lo + slot][:depth] for slot, depth in _pairs(emitted)]


def _reference(keys, a_lo, depths):
    candidates = [
        Dewey.from_trusted(keys[a_lo + slot][:depth])
        for slot, depth in enumerate(depths)
    ]
    return [label.components for label in remove_ancestors(candidates)]


def _python_hits(anchor, a_lo, a_hi, matchers):
    """``_fold_depths_python`` per matcher, then ``_emit_python``."""
    depths = [len(anchor[i]) for i in range(a_lo, a_hi)]
    for keys, m_lo, m_hi in matchers:
        _fold_depths_python(anchor.__getitem__, a_lo, a_hi, keys.__getitem__,
                            m_lo, m_hi, depths)
    emitted = _emit_python(ListColumns(anchor), a_lo, depths)
    return None if emitted is None else _pairs(emitted)


def _compiled_hits(lib, anchor, a_lo, a_hi, matchers):
    """One ``repro_slca_hits`` call; its pairs, or ``None`` on -1."""
    count = a_hi - a_lo
    a_flat, a_offs = backend_module.column_handles(lib, ListColumns(anchor))
    m_cols = []
    m_bounds = []
    for keys, m_lo, m_hi in matchers:
        m_cols += backend_module.column_handles(lib, ListColumns(keys))
        m_bounds += (m_lo, m_hi)
    out = array("q", bytes(16 * count))
    ffi = lib.ffi
    emitted = lib.lib.repro_slca_hits(
        a_flat, a_offs, ffi.NULL, 0, ffi.NULL, a_lo, a_hi, m_cols, m_bounds,
        len(matchers), lib.i64(out),
    )
    if emitted < 0:
        return None
    return [
        (position - a_lo, depth)
        for position, depth in zip(out[count:count + emitted], out[:emitted])
    ]


@settings(max_examples=300, deadline=None)
@given(_column_and_depths())
def test_python_filter_equals_remove_ancestors(case):
    keys, a_lo, depths = case
    emitted = _emit_python(ListColumns(keys), a_lo, depths)
    assert _spelled(keys, a_lo, emitted) == _reference(keys, a_lo, depths)


@settings(max_examples=300, deadline=None)
@given(
    _ranges(_any_root_keys),
    st.lists(_ranges(_any_root_keys), min_size=0, max_size=3),
)
def test_compiled_filter_equals_python_filter(anchor_range, matchers):
    lib = backend_module.compiled
    if lib is None:
        pytest.skip("compiled backend unavailable on this host")
    anchor, a_lo, a_hi = anchor_range
    assert _compiled_hits(lib, anchor, a_lo, a_hi, matchers) == (
        _python_hits(anchor, a_lo, a_hi, matchers)
    )


@settings(max_examples=100, deadline=None)
@given(_column_and_depths(), _ranges(), st.data())
def test_depth_zero_reports_no_survivors(case, anchor_range, data):
    keys, a_lo, depths = case
    depths[data.draw(st.integers(0, len(depths) - 1))] = 0
    assert _emit_python(ListColumns(keys), a_lo, depths) is None
    # A matcher under another root folds every anchor's depth to 0.
    anchor, lo, hi = anchor_range
    elsewhere = [((1,) + anchor[lo][1:],), 0, 1]
    assert _python_hits(anchor, lo, hi, [elsewhere]) is None
    lib = backend_module.compiled
    if lib is not None:
        assert _compiled_hits(lib, anchor, lo, hi, [elsewhere]) is None


@pytest.mark.parametrize("masked", [False, True])
def test_cross_document_lists_raise_the_per_node_error(masked, monkeypatch):
    # Labels under different roots share no prefix: a computed depth of
    # 0 must route to scan_eager_slca and raise exactly what it raises.
    if masked:
        monkeypatch.setattr(backend_module, "compiled", None)
    elif backend_module.compiled is None:
        pytest.skip("compiled backend unavailable on this host")
    left = [(0, 1), (0, 2, 1)]
    right = [(1, 0), (1, 3)]
    with pytest.raises(DeweyError) as reference:
        scan_eager_slca([
            [Dewey.from_trusted(key) for key in left],
            [Dewey.from_trusted(key) for key in right],
        ])
    with pytest.raises(DeweyError) as batch:
        slca_ranges([(ListColumns(left), 0, 2), (ListColumns(right), 0, 2)])
    assert str(batch.value) == str(reference.value)
