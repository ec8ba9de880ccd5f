"""Packed posting arrays: fidelity, sharing and coherence with updates."""

from repro import XRefine
from repro.index import append_partition, build_document_index
from repro.perf import PackedListStore
from repro.slca import (
    elca,
    indexed_lookup_slca,
    multiway_slca,
    scan_eager_slca,
    stack_slca,
)
from repro.xmltree import parse

ALL_SLCA = [
    stack_slca,
    scan_eager_slca,
    indexed_lookup_slca,
    multiway_slca,
    elca,
]


def test_packed_matches_decoded_list(dblp_index):
    store = PackedListStore(dblp_index)
    for keyword in list(dblp_index.inverted.keywords())[:20]:
        packed = store.get(keyword)
        source = dblp_index.inverted.get(keyword)
        assert len(packed) == len(source)
        assert packed.labels == [p.dewey for p in source]


def test_components_are_shared_not_copied(dblp_index):
    store = PackedListStore(dblp_index)
    keyword = dblp_index.inverted.keywords()[0]
    packed = store.get(keyword)
    for label, components in zip(packed.labels, packed.components):
        assert label.components is components


def test_identity_stable_across_calls(dblp_index):
    store = PackedListStore(dblp_index)
    keyword = dblp_index.inverted.keywords()[0]
    assert store.get(keyword) is store.get(keyword)


def test_sequence_protocol(dblp_index):
    store = PackedListStore(dblp_index)
    keyword = dblp_index.inverted.keywords()[0]
    packed = store.get(keyword)
    assert bool(packed) == (len(packed) > 0)
    assert list(iter(packed)) == packed.labels
    if len(packed):
        assert packed[0] is packed.labels[0]


def test_all_algorithms_accept_packed_input(dblp_index):
    """Every SLCA variant gives identical answers on packed vs plain lists."""
    store = PackedListStore(dblp_index)
    terms = ["database", "xml", "query"]
    present = [t for t in terms if dblp_index.has_keyword(t)]
    assert len(present) >= 2
    packed_lists = [store.get(t) for t in present]
    plain_lists = [
        [p.dewey for p in dblp_index.inverted_list(t)] for t in present
    ]
    for algorithm in ALL_SLCA:
        assert algorithm(packed_lists) == algorithm(plain_lists), algorithm


def test_rebuilt_after_index_update():
    tree = parse(
        "<bib><author><name>ann</name><publications>"
        "<article><title>xml search</title><year>2001</year></article>"
        "</publications></author></bib>"
    )
    index = build_document_index(tree)
    store = PackedListStore(index)
    before = store.get("xml")
    assert len(before) == 1
    append_partition(
        index,
        (
            "author",
            None,
            [
                ("name", "bob"),
                (
                    "publications",
                    None,
                    [("article", None, [("title", "xml views"), ("year", "2002")])],
                ),
            ],
        ),
    )
    after = store.get("xml")
    assert after is not before
    assert len(after) == 2
    assert after.labels == [
        p.dewey for p in index.inverted.get("xml")
    ]


def test_engine_slca_uses_packed_store(figure1_index):
    engine = XRefine(figure1_index, cache_size=0)
    assert len(engine.packed) == 0
    engine.slca_search("database 2003")
    assert len(engine.packed) == 2
    # Second query reuses the same packed objects.
    packed = engine.packed.get("database")
    engine.slca_search("database 2003", algorithm="stack")
    assert engine.packed.get("database") is packed
