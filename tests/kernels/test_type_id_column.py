"""The type-id column beside the key column, and hits read through it.

``columns_for(inverted_list)`` hands the kernels each posting's interned
prefix-path id next to its Dewey key, so an SLCA that is still a
``(position, depth)`` hit can be typed — ``type_table[tids[i]][:depth]``
— without a label or a tree lookup.  Held here: the column names every
posting's own type, both backends return the same hits and render the
same labels, and a hit record's keys and labels cut from the flat
component array equal those cut from the key tuples.
"""

from __future__ import annotations

from array import array

import pytest

import repro.kernels.backend as backend_module
from repro.index import freeze_index, load_frozen_index
from repro.index.inverted import InvertedIndex, key_tuples
from repro.kernels import (
    HitRecord,
    ListColumns,
    columns_for,
    slca_columns,
    slca_hits,
)
from repro.xmltree.dewey import Dewey

KEYWORDS = ("database", "xml", "2003", "search", "inproceedings", "title")


@pytest.fixture(scope="module")
def frozen_index(dblp_index, tmp_path_factory):
    path = tmp_path_factory.mktemp("tids") / "dblp.frz"
    freeze_index(dblp_index, path)
    return load_frozen_index(path)


def test_eager_column_names_each_postings_type(dblp_index):
    table = dblp_index.inverted.node_type_table
    for keyword in KEYWORDS:
        postings = dblp_index.inverted_list(keyword)
        columns = columns_for(postings)
        assert isinstance(columns, ListColumns)
        assert columns.tids.typecode == "H"
        assert [table[tid] for tid in columns.tids] == [
            posting.node_type for posting in postings
        ], keyword


def test_bare_key_column_has_no_type_ids():
    columns = ListColumns([(0, 0, 1), (0, 1, 0)])
    assert columns.tids is None
    other = ListColumns([(0, 0, 2), (0, 1, 1)])
    assert slca_columns([columns, other]) == [Dewey((0, 0)), Dewey((0, 1))]


def test_column_widens_when_the_type_table_outgrows_uint16():
    inverted = InvertedIndex()
    for number in range(0x10000):
        inverted._intern_type(("root", f"t{number}"))
    wide_type = ("root", "wide")
    inverted.add_postings("needle", [(0, 3)], [wide_type], [1])
    decoded = inverted.get("needle")
    assert decoded.type_ids.typecode == "I"
    assert list(decoded.type_ids) == [0x10000]
    assert inverted.node_type_table[decoded.type_ids[0]] == wide_type


@pytest.mark.parametrize("pair", [
    ("database", "2003"), ("xml", "search"), ("title", "database"),
])
def test_both_backends_return_the_same_hits(
    dblp_index, frozen_index, pair, monkeypatch
):
    if backend_module.compiled is None:
        pytest.skip("compiled backend unavailable on this host")
    for index in (dblp_index, frozen_index):
        columns = [columns_for(index.inverted_list(k)) for k in pair]
        ranges = [(column, 0, column.size) for column in columns]
        compiled = slca_hits(ranges)
        with monkeypatch.context() as patch:
            patch.setattr(backend_module, "compiled", None)
            pure = slca_hits(ranges)
            pure_labels = pure.labels()
        assert len(compiled) == len(pure) > 0
        assert compiled.columns == pure.columns
        assert compiled.positions == pure.positions
        assert compiled.depths == pure.depths
        assert compiled.deweys() == pure.deweys()
        assert compiled.labels() == pure_labels == [
            str(label) for label in pure.deweys()
        ]


def test_labels_from_the_flat_array_equal_labels_from_the_keys(
    dblp_index, tmp_path
):
    path = tmp_path / "dblp.frz"
    freeze_index(dblp_index, path)
    index = load_frozen_index(path)
    built = dblp_index.inverted_list("title").arrays()
    keys = key_tuples(built.flat, built.offs)
    columns = columns_for(index.inverted_list("title"))
    positions = list(range(0, columns.size, 3))
    depths = [1 + position % len(keys[position]) for position in positions]
    hits = HitRecord(
        [columns], array("q", positions), array("q", depths)
    )
    # The hits are cut from the flat array.
    from_flat = hits.keys()
    assert from_flat == [
        keys[position][:depth] for position, depth in zip(positions, depths)
    ]
    assert hits.labels() == [".".join(map(str, key)) for key in from_flat]
    assert key_tuples(*columns.flat_offs()) == keys
    assert hits.keys() == from_flat
