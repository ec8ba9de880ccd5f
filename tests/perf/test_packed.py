"""What ``PackedPostings`` still is: the swap warm-up's partition counter
over an inverted list's own key column, fresh by list identity."""

from repro.index import append_partition, build_document_index
from repro.perf import PackedListStore
from repro.xmltree import parse


def test_packed_matches_decoded_list(dblp_index):
    store = PackedListStore(dblp_index)
    for keyword in list(dblp_index.inverted.keywords())[:20]:
        packed = store.get(keyword)
        source = dblp_index.inverted.get(keyword)
        assert packed.keyword == keyword
        assert packed.source is source
        assert list(packed.components) == [
            p.dewey.components for p in source
        ]


def test_components_are_shared_not_copied(dblp_index):
    store = PackedListStore(dblp_index)
    keyword = dblp_index.inverted.keywords()[0]
    packed = store.get(keyword)
    assert packed.components is dblp_index.inverted.get(keyword).dewey_keys


def test_identity_stable_across_calls(dblp_index):
    store = PackedListStore(dblp_index)
    keyword = dblp_index.inverted.keywords()[0]
    assert store.get(keyword) is store.get(keyword)
    assert len(store) == 1
    store.clear()
    assert len(store) == 0


def test_partition_count_matches_a_per_posting_recount(dblp_index):
    store = PackedListStore(dblp_index)
    for keyword in list(dblp_index.inverted.keywords())[:40]:
        recount = {
            components[:2]
            for components in dblp_index.inverted.get(keyword).dewey_keys
            if len(components) >= 2
        }
        assert store.get(keyword).partition_count() == len(recount), keyword


def test_rebuilt_after_index_update():
    tree = parse(
        "<bib><author><name>ann</name><publications>"
        "<article><title>xml search</title><year>2001</year></article>"
        "</publications></author></bib>"
    )
    index = build_document_index(tree)
    store = PackedListStore(index)
    before = store.get("xml")
    assert before.partition_count() == 1
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
    assert after.source is index.inverted.get("xml")
    assert after.partition_count() == 2
