"""Hit records: labels rendered in one call, order and the meaningful filter.

A :class:`~repro.kernels.hits.HitRecord` keeps SLCA results as
``(column, position, depth)`` entries until they are read.  Held here:

* ``repro_render_labels`` writes exactly ``".".join(map(str, key))``
  per entry — the pure-Python twin and ``str(Dewey)`` — for components
  of 0, past 2^31 and up to 2^63 - 1, depths 1 to 40 and an empty
  record, inside its ``21 * sum(depths)`` byte bound;
* ``repro_order_hits`` (``HitRecord.ordered``) equals ``sorted(set())``
  of the entries' keys;
* ``repro_slca_hits`` with a ``need`` column keeps exactly the SLCAs
  ``QueryContext.is_meaningful_at`` keeps — on generated adversarial
  corpora, with entries no depth reaches (``_NEVER``), and on the
  different-documents fallback.
"""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.backend as backend_module
from repro import XRefine
from repro.core.common import QueryContext
from repro.index import build_document_index
from repro.index.inverted import key_tuples
from repro.index.tokenize_text import query_terms
from repro.kernels import (
    HitRecord,
    ListColumns,
    columns_for,
    partition_view,
    slca_hits,
)
from repro.slca.meaningful import NEVER_MEANINGFUL as _NEVER
from repro.verify.generate import DocumentGenerator, QueryGenerator
from repro.xmltree.dewey import Dewey

_BIG = (1 << 63) - 1

_components = st.one_of(
    st.integers(0, 12),
    st.integers(1 << 31, _BIG),
    st.sampled_from((0, (1 << 31) - 1, 1 << 31, 1 << 32, _BIG)),
)


@pytest.fixture(params=["active", "pure-python"])
def kernel_backend(request, monkeypatch):
    if request.param == "pure-python":
        monkeypatch.setattr(backend_module, "compiled", None)
    elif backend_module.compiled is None:
        pytest.skip("compiled backend unavailable on this host")
    return request.param


def _compiled():
    lib = backend_module.compiled
    if lib is None:
        pytest.skip("compiled backend unavailable on this host")
    return lib


@st.composite
def _records(draw, max_columns=3):
    """A record over 1-3 sorted key columns, entries in any order."""
    columns = []
    for _ in range(draw(st.integers(1, max_columns))):
        keys = draw(st.sets(
            st.lists(_components, min_size=1, max_size=40).map(tuple),
            min_size=1, max_size=6,
        ))
        columns.append(ListColumns(sorted(keys)))
    entries = draw(st.lists(
        st.tuples(
            st.integers(0, len(columns) - 1), st.integers(0, 1 << 16),
            st.integers(1, 40),
        ),
        max_size=12,
    ))
    lanes, positions, depths = array("q"), array("q"), array("q")
    for lane, position, depth in entries:
        keys = key_tuples(*columns[lane].flat_offs())
        position %= len(keys)
        lanes.append(lane)
        positions.append(position)
        depths.append(1 + (depth - 1) % len(keys[position]))
    single = len(columns) == 1 and draw(st.booleans())
    return HitRecord(columns, positions, depths, None if single else lanes)


def _reference_keys(record):
    lanes = record.lanes
    keys = [key_tuples(*column.flat_offs()) for column in record.columns]
    return [
        keys[lanes[j] if lanes is not None else 0][position][:depth]
        for j, (position, depth) in enumerate(
            zip(record.positions, record.depths)
        )
    ]


def _render(lib, record, room):
    """One ``repro_render_labels`` call into ``room`` bytes followed by
    a 64-byte canary; the text written, and whether the canary held."""
    ffi = lib.ffi
    out = ffi.new("char[]", room + 64)
    ffi.memmove(out + room, b"\xa5" * 64, 64)
    flats = []
    offs = []
    for column in record.columns:
        flat_c, offs_c = backend_module.column_handles(lib, column)
        flats.append(flat_c)
        offs.append(offs_c)
    lanes = ffi.NULL if record.lanes is None else lib.i64(record.lanes)
    written = lib.lib.repro_render_labels(
        flats, offs, lanes, lib.i64(record.positions),
        lib.i64(record.depths), len(record), out,
    )
    canary = ffi.unpack(out + room, 64) == b"\xa5" * 64
    return ffi.unpack(out, written).decode("ascii"), canary


# ----------------------------------------------------------------------
# repro_render_labels
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(_records())
def test_rendered_labels_equal_the_twin_and_str_dewey(record):
    lib = _compiled()
    keys = _reference_keys(record)
    expected = [str(Dewey(key)) for key in keys]
    assert [".".join(map(str, key)) for key in keys] == expected
    assert record.keys() == keys
    assert record.labels() == expected
    text, canary = _render(lib, record, 21 * sum(record.depths))
    assert canary
    assert text == "\n".join(expected)
    saved = backend_module.compiled
    backend_module.compiled = None
    try:
        assert record.labels() == expected
    finally:
        backend_module.compiled = saved


def test_an_empty_record_renders_no_label(kernel_backend):
    empty = HitRecord([ListColumns([(0, 1)])])
    assert empty.labels() == [] and empty.keys() == []
    assert HitRecord().labels() == []
    assert len(HitRecord().ordered()) == 0
    if kernel_backend == "active":
        assert _render(backend_module.compiled, empty, 0) == ("", True)


@pytest.mark.parametrize("depth", [1, 2, 39, 40])
def test_the_widest_labels_fill_the_buffer_bound(depth):
    # Every component 2^63 - 1: 19 digits and one separator each, the
    # most a component can take.  The bound holds them with one byte
    # per component to spare, and nothing is written past it.
    lib = _compiled()
    keys = [(_BIG,) * depth, (_BIG,) * (depth + 1)]
    record = HitRecord(
        [ListColumns(keys)], array("q", [0, 1, 0]),
        array("q", [depth, depth + 1, depth]),
    )
    bound = 21 * sum(record.depths)
    text, canary = _render(lib, record, bound)
    assert canary
    assert text.split("\n") == record.labels() == [
        str(Dewey(keys[0])), str(Dewey(keys[1])), str(Dewey(keys[0]))
    ]
    assert len(text) == 20 * sum(record.depths) - 1 < bound


# ----------------------------------------------------------------------
# repro_order_hits
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(_records())
def test_ordered_equals_sorted_set(record):
    lib = _compiled()
    expected = sorted(set(_reference_keys(record)))
    ordered = record.ordered()
    assert ordered.keys() == expected
    assert ordered.labels() == [str(Dewey(key)) for key in expected]
    assert ordered.columns == record.columns
    saved = backend_module.compiled
    backend_module.compiled = None
    try:
        assert record.ordered().keys() == expected
    finally:
        backend_module.compiled = saved
    assert backend_module.compiled is lib


def test_extend_maps_each_column_to_one_lane(kernel_backend):
    first = ListColumns([(0, 1, 2), (0, 3)])
    second = ListColumns([(0, 2), (0, 4, 1)])
    record = HitRecord([first])
    record.extend(HitRecord([second], array("q", [1]), array("q", [3])))
    record.extend(HitRecord([first], array("q", [0]), array("q", [2])))
    record.extend(HitRecord(
        [second, first], array("q", [0, 1]), array("q", [2, 2]),
        array("q", [0, 1]),
    ))
    record.extend(HitRecord([second]))
    assert record.columns == (first, second)
    assert list(record.lanes) == [1, 0, 1, 0]
    assert record.labels() == ["0.4.1", "0.1", "0.2", "0.3"]
    assert record.ordered().labels() == ["0.1", "0.2", "0.3", "0.4.1"]


# ----------------------------------------------------------------------
# The meaningful filter inside repro_slca_hits
# ----------------------------------------------------------------------
def _calls(columns):
    """The whole lists, then every partition all of them share."""
    calls = [[(column, 0, column.size) for column in columns]]
    calls += [
        [(column, lo, hi) for column, (lo, hi) in zip(columns, spans)]
        for _, spans in partition_view(columns)
        if None not in spans
    ]
    return calls


def _kept_by_is_meaningful_at(context, column_ranges):
    every = slca_hits(column_ranges)
    anchor = every.columns[0] if every.columns else None
    return [
        (position, depth)
        for position, depth in zip(every.positions, every.depths)
        if context.is_meaningful_at(anchor, position, depth)
    ]


def _check_filter(context, columns):
    checked = 0
    for column_ranges in _calls(columns):
        kept, count = context.meaningful_hits(column_ranges)
        assert count == len(kept)
        assert list(zip(kept.positions, kept.depths)) == (
            _kept_by_is_meaningful_at(context, column_ranges)
        )
        assert context.any_meaningful_hit(column_ranges) == (count > 0)
        checked += 1
    return checked


@pytest.mark.parametrize("seed", range(6))
def test_filter_equals_is_meaningful_at_on_adversarial_corpora(
    seed, kernel_backend
):
    document = DocumentGenerator(seed=seed)
    queries = QueryGenerator(seed=seed + 1, vocabulary=document.words)
    rng = random.Random(seed)
    checked = 0
    for _ in range(3):
        engine = XRefine(build_document_index(document.tree()))
        for query in queries.queries(6):
            terms = query_terms(query)
            if not terms:
                continue
            context = QueryContext(
                engine.index, terms, engine.mine_rules(terms)
            )
            columns = [columns_for(context.lists[term]) for term in terms]
            if not all(column.size for column in columns):
                continue
            checked += _check_filter(context, columns)
            # Types no depth reaches, and a table of nothing else.
            context.need = array("q", [
                _NEVER if rng.random() < 0.5 else need
                for need in context.need
            ])
            checked += _check_filter(context, columns)
            context.need = array("q", [_NEVER] * len(context.need))
            for column_ranges in _calls(columns):
                assert context.meaningful_hits(column_ranges)[1] == 0
    assert checked > 0


@pytest.mark.parametrize("need, kept", [
    (1, [(1, 2)]), (2, [(1, 2)]), (3, []), (_NEVER, []),
])
def test_filter_applies_to_the_different_documents_fallback(
    need, kept, kernel_backend
):
    # The per-node path answers when its depth-1 early exit never
    # compares the unrelated pair: 0.5, two components deep on the path
    # to the anchor's second posting (type 0).
    typed = [array("H", [0, 0])] * 3
    ranges = [
        (ListColumns(keys, tids), 0, 2)
        for keys, tids in zip(
            ([(0, 1), (0, 5, 1)], [(0, 2), (0, 5, 2)], [(0, 5, 3), (1, 0)]),
            typed,
        )
    ]
    assert slca_hits(ranges).keys() == [(0, 5)]
    hits = slca_hits(ranges, array("q", [need]))
    assert list(zip(hits.positions, hits.depths)) == kept
    assert hits.labels() == ["0.5"] * len(kept)
