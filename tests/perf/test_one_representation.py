"""A posting list is held as arrays and nothing else, on both backends.

Section VII's inverted list ``<DeweyID, prefixPath, count>`` is decoded
once into flat ``int64`` / type-id arrays
(:class:`~repro.index.blocks.PostingArrays`), and the kernels' columns
(:class:`~repro.kernels.ListColumns`) are those same arrays.  Readers
that want a key or a partition id as a tuple cut it from the arrays for
one call.  Held here: after SLE, Partition, stack-refine, a plain SLCA
search, an ``append_partition`` and a workload-generator draw over a
frozen engine, no slot of any cached
:class:`~repro.index.inverted.InvertedList` or of its columns holds a
list, tuple or dict of tuples.  The one exception is ``type_table``, the
node-type paths the list shares with its index — one per type, not per
posting.
"""

from __future__ import annotations

from itertools import chain

import pytest

import repro.kernels.backend as backend_module
from repro import XRefine, build_document_index
from repro.datasets import generate_dblp
from repro.index import append_partition, freeze_index, load_frozen_index
from repro.index.inverted import InvertedList
from repro.kernels import ListColumns
from repro.workload import WorkloadGenerator

QUERIES = (
    ("databse", "systems"),
    ("structurl", "xml"),
    ("xml", "keyword", "search"),
    ("query",),
)

#: Shared with the index, one entry per interned node type.
SHARED_SLOTS = {"type_table"}


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("representation") / "small.frz"
    freeze_index(
        build_document_index(generate_dblp(num_authors=60, seed=7)), path
    )
    return path


@pytest.fixture(params=["compiled", "pure-python"])
def kernel_backend(request, monkeypatch):
    if request.param == "pure-python":
        monkeypatch.setattr(backend_module, "compiled", None)
    elif backend_module.compiled is None:
        pytest.skip("compiled backend unavailable on this host")
    return request.param


def _holds_tuples(value):
    if isinstance(value, dict):
        items = chain(value.keys(), value.values())
    elif isinstance(value, (list, tuple)):
        items = value
    else:
        return False
    return any(isinstance(item, tuple) for item in items)


def _tuple_slots(obj, slots):
    return sorted(
        slot for slot in slots
        if slot not in SHARED_SLOTS
        and _holds_tuples(getattr(obj, slot, None))
    )


def test_lists_and_columns_hold_no_tuples(snapshot, kernel_backend):
    index = load_frozen_index(snapshot)
    engine = XRefine(index, cache_size=0)
    for terms in QUERIES:
        for algorithm in ("sle", "partition", "stack"):
            engine.search(list(terms), k=2, algorithm=algorithm)
        engine.slca_search(list(terms))
    append_partition(index, ("author", None, [
        ("name", "ada lovelace"),
        ("publications", None, [
            ("inproceedings", None, [("title", "xml keyword search")]),
        ]),
    ]))
    for terms in QUERIES:
        engine.search(list(terms), k=2)
    WorkloadGenerator(index, seed=23).refinable_query()

    inverted = index.inverted
    lists = list(inverted._cache.values()) + [inverted._absent]
    decoded = [lst for lst in lists if lst.decoded]
    assert len(decoded) > 10
    found = {}
    for lst in decoded:
        bad = _tuple_slots(lst, InvertedList.__slots__)
        columns = lst._kernel_columns
        if columns is not None:
            bad += [f"columns.{slot}"
                    for slot in _tuple_slots(columns, ListColumns.__slots__)]
        if bad:
            found[lst.keyword] = bad
    assert found == {}
