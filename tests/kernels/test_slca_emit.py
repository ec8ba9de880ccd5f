"""The streaming ancestor filter equals sort-and-remove-ancestors.

``slca_hits`` never materializes one candidate per anchor: the depth
column goes through a one-pass filter that holds a single candidate
(``repro_slca_emit`` / ``_emit_python``) and returns the survivors as
``(slots, depths, count)``.  The property: for *any* document-ordered
key column and *any* per-anchor prefix depths — not only the ones a
matcher fold can produce — both filters return the same pairs, and
those spell what ``remove_ancestors`` makes of the sliced candidates,
in the same order.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.backend as backend_module
from repro.errors import DeweyError
from repro.kernels import ListColumns, slca_ranges
from repro.kernels.slca import _emit_compiled, _emit_python
from repro.slca.lca import remove_ancestors
from repro.slca.scan_eager import scan_eager_slca
from repro.xmltree.dewey import Dewey

# Small fan-out and depth so prefixes, siblings and repeats are common.
_keys = st.lists(st.integers(0, 3), max_size=5).map(
    lambda tail: (0,) + tuple(tail)
)


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


def _pairs(emitted):
    slots, depths, count = emitted
    return list(zip(slots[:count], depths[:count]))


def _spelled(keys, a_lo, emitted):
    return [keys[a_lo + slot][:depth] for slot, depth in _pairs(emitted)]


def _reference(keys, a_lo, depths):
    candidates = [
        Dewey.from_trusted(keys[a_lo + slot][:depth])
        for slot, depth in enumerate(depths)
    ]
    return [label.components for label in remove_ancestors(candidates)]


@settings(max_examples=300, deadline=None)
@given(_column_and_depths())
def test_python_filter_equals_remove_ancestors(case):
    keys, a_lo, depths = case
    emitted = _emit_python(keys, a_lo, depths)
    assert _spelled(keys, a_lo, emitted) == _reference(keys, a_lo, depths)


@settings(max_examples=300, deadline=None)
@given(_column_and_depths())
def test_compiled_filter_equals_python_filter(case):
    lib = backend_module.compiled
    if lib is None:
        pytest.skip("compiled backend unavailable on this host")
    keys, a_lo, depths = case
    emitted = _emit_compiled(lib, ListColumns(keys), a_lo, array("q", depths))
    assert _pairs(emitted) == _pairs(_emit_python(keys, a_lo, depths))
    assert _spelled(keys, a_lo, emitted) == _reference(keys, a_lo, depths)


@settings(max_examples=100, deadline=None)
@given(_column_and_depths(), st.data())
def test_depth_zero_reports_no_survivors(case, data):
    keys, a_lo, depths = case
    depths[data.draw(st.integers(0, len(depths) - 1))] = 0
    assert _emit_python(keys, a_lo, depths) is None
    lib = backend_module.compiled
    if lib is not None:
        assert _emit_compiled(
            lib, ListColumns(keys), a_lo, array("q", depths)
        ) is None


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
