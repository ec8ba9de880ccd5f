"""A posting list is its three columns; ``Posting`` is a view of them.

Random document-ordered rows go through ``add_postings`` and come back
through ``get`` — and, for the decode-once check, through
``InvertedList.open`` over the same postings' encoded payload — and
every way of reading the list (iteration, indexing, slices,
``labels()``, ``ancestor_keys()``, the raw columns) must return the
rows that went in, with the payload decoded once, at the first read of
a column, however the list is read.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.index.inverted as inverted_module
from repro.index import InvertedIndex, InvertedList, Posting
from repro.index.blocks import encode_posting_payload
from repro.xmltree import Dewey

TAGS = ("bib", "author", "name", "title", "year")

rows = st.lists(
    st.tuples(
        st.lists(st.integers(0, 5), min_size=1, max_size=5).map(tuple),
        st.lists(st.sampled_from(TAGS), min_size=1, max_size=4).map(tuple),
        st.integers(1, 1 << 40),
    ),
    max_size=24,
    unique_by=lambda row: row[0],
).map(sorted)


@settings(max_examples=120, deadline=None)
@given(table=rows, data=st.data())
def test_every_read_returns_the_rows_that_went_in(table, data):
    expected = [
        Posting(Dewey(components), node_type, count)
        for components, node_type, count in table
    ]
    size = len(table)
    index = InvertedIndex()
    index.add_postings("k", *([row[i] for row in table] for i in range(3)))
    lst = index.get("k")
    assert len(lst) == size
    assert list(lst) == expected
    assert lst.labels() == [p.dewey for p in expected]
    assert list(lst.dewey_keys) == [row[0] for row in table]
    assert list(lst.counts) == [row[2] for row in table]
    assert [lst.type_table[i] for i in lst.type_ids] == [
        row[1] for row in table
    ]
    if size:
        at = data.draw(st.integers(-size, size - 1))
        assert lst[at] == expected[at]
        assert lst[-1] == expected[-1]
        prefix = table[at][1][:data.draw(st.integers(1, 4))]
        assert lst.ancestor_keys(prefix) == [
            components[:len(prefix)]
            for components, node_type, _ in table
            if node_type[:len(prefix)] == prefix
        ]
    cut = data.draw(st.slices(size))
    assert lst[cut] == expected[cut]


@settings(max_examples=60, deadline=None)
@given(table=rows.filter(lambda t: len(t) > 1),
       column=st.sampled_from(["dewey_keys", "type_ids", "counts"]))
def test_an_opened_list_decodes_once_at_its_first_column_read(table, column):
    decodes = []
    decode = inverted_module.decode_payload

    def counting(*args):
        decodes.append(args[0])
        return decode(*args)

    index = InvertedIndex()
    index.add_postings("k", *([row[i] for row in table] for i in range(3)))
    payload = encode_posting_payload(
        "k", [row[0] for row in table],
        [index._type_ids[row[1]] for row in table],
        [row[2] for row in table],
    )
    inverted_module.decode_payload = counting
    try:
        for lst in (index.get("k"),
                    InvertedList.open("k", payload, index._type_table)):
            decodes.clear()
            assert len(lst) == len(table)
            assert decodes == [] and not lst.decoded
            getattr(lst, column)
            assert decodes == ["k"] and lst.decoded
            list(lst)
            lst.labels()
            lst[0:len(table)]
            lst.ancestor_keys(table[0][1][:1])
            assert decodes == ["k"]
    finally:
        inverted_module.decode_payload = decode
