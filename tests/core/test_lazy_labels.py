"""Results stay hit records until read; the wire renders their labels.

The routes keep each result list as the
:class:`~repro.kernels.hits.HitRecord` the SLCA kernel returned —
``(column, position, depth)`` entries, no key tuple and no ``Dewey``.
``encode_response`` renders the labels it sends from the records, one
kernel call per list; a ``Dewey`` is built only when a caller reads
``slcas`` / ``original_results``.  Held here: a search and its
encoding build no label, a read builds exactly ``result_count`` of
them, a copy builds none, results read only after the engine has
swapped to another snapshot and closed the first are still the right
answer, and ``rank_results`` still reorders the built list in place —
each under both kernel backends — and a compiled ``/search`` reads no
key tuple from search to wire body.
"""

from __future__ import annotations

import sys
import threading
from array import array

import pytest

import repro.kernels.backend as backend_module
from repro import XRefine
from repro.core import RefinedQuery
from repro.core.ranking.results import rank_results
from repro.core.result import RankedRefinement
from repro.datasets import generate_dblp
from repro.index import build_document_index, freeze_index, load_frozen_index
from repro.index.inverted import InvertedList
from repro.kernels import HitRecord, ListColumns
from repro.serve.http import encode_body
from repro.serve.wire import encode_response
from repro.workload import WorkloadGenerator
from repro.xmltree.dewey import Dewey

#: Refinable on the 120-author corpus, with a candidate beyond the Top-1.
QUERY = "online databse"


@pytest.fixture(params=["active", "pure-python"])
def kernel_backend(request, monkeypatch):
    if request.param == "pure-python":
        monkeypatch.setattr(backend_module, "compiled", None)
    elif backend_module.compiled is None:
        pytest.skip("compiled backend unavailable on this host")
    return request.param


@pytest.fixture()
def label_count(monkeypatch):
    """A counter of ``Dewey.from_trusted`` calls from here on."""
    built = [0]
    real = Dewey.from_trusted.__func__

    def counting(cls, components):
        built[0] += 1
        return real(cls, components)

    monkeypatch.setattr(Dewey, "from_trusted", classmethod(counting))
    return lambda: built[0]


def test_encoding_builds_no_label_and_a_read_builds_each_once(
    kernel_backend, dblp_index, label_count
):
    engine = XRefine(dblp_index, cache_size=0)
    response = engine.search(QUERY, k=1)
    assert response.needs_refinement
    unread = response.candidates[len(response.refinements):]
    assert unread and all(c.result_count for c in unread)
    assert label_count() == 0

    early_copy = response.copy()
    payload = encode_response(response)
    assert sum(len(r["slcas"]) for r in payload["refinements"]) > 0
    assert encode_response(early_copy) == payload
    assert label_count() == 0

    read = 0
    for refinement, sent in zip(response.refinements,
                                payload["refinements"]):
        assert [str(label) for label in refinement.slcas] == sent["slcas"]
        read += refinement.result_count
        assert label_count() == read
    assert refinement.slcas is refinement.slcas
    assert label_count() == read

    late_copy = response.copy()
    assert encode_response(late_copy) == payload
    assert encode_response(response) == payload
    assert encode_response(early_copy) == payload
    assert label_count() == read


def test_a_direct_hit_sends_its_results_unbuilt(
    kernel_backend, dblp_index, label_count
):
    engine = XRefine(dblp_index, cache_size=0)
    pool = WorkloadGenerator(dblp_index, seed=41).pool(refinable=0, clean=20)
    before = label_count()  # the pool's own
    direct = [
        response for response in (
            engine.search(list(entry.query), k=2) for entry in pool
        )
        if not response.needs_refinement
    ]
    assert direct
    payloads = [encode_response(response) for response in direct]
    assert label_count() == before
    for response, payload in zip(direct, payloads):
        labels = [str(label) for label in response.original_results]
        assert labels == payload["original_results"]
        # Document order, each node once.
        assert response.original_results == sorted(
            set(response.original_results)
        )
        assert encode_response(response) == payload
    assert label_count() - before == sum(
        len(payload["original_results"]) for payload in payloads
    )


@pytest.fixture(scope="module")
def snapshot_pair(dblp_index, tmp_path_factory):
    """A snapshot of the shared corpus and one of another corpus."""
    folder = tmp_path_factory.mktemp("lazy_labels")
    first = folder / "first.frz"
    second = folder / "second.frz"
    freeze_index(dblp_index, first)
    freeze_index(
        build_document_index(generate_dblp(num_authors=30, seed=8)), second
    )
    return first, second


def _labels(response):
    return [
        [str(label) for label in candidate.slcas]
        for candidate in response.candidates
    ]


def test_results_read_after_swap_and_close(kernel_backend, snapshot_pair):
    first, second = snapshot_pair
    engine = XRefine(load_frozen_index(first), cache_size=0)
    response = engine.search(QUERY, k=2)
    assert response.needs_refinement and len(response.candidates) > 1

    old = engine.swap_index(load_frozen_index(second))
    old.frozen_snapshot.close()
    assert old.frozen_snapshot.closed

    fresh = XRefine(load_frozen_index(first), cache_size=0)
    expected = fresh.search(QUERY, k=2)
    assert response.candidates[-1].result_count
    assert _labels(response) == _labels(expected)


def test_rank_results_reorders_the_built_list(kernel_backend, dblp_index):
    engine = XRefine(dblp_index, cache_size=0)
    plain = engine.search(QUERY, k=2)
    ranked = engine.search(QUERY, k=2, rank_results=True)
    for before, after in zip(plain.refinements, ranked.refinements):
        labels = after.slcas
        assert labels is after.slcas
        assert labels == rank_results(
            dblp_index, list(before.slcas), before.rq.keywords
        )
        assert sorted(labels) == before.slcas


def test_concurrent_first_reads_agree():
    # A cached response is shared: several threads may read one
    # candidate's results first.  Each must get the whole label list.
    keys = [(0, i, 1) for i in range(2000)]
    expected = [Dewey(key) for key in keys]
    column = ListColumns(keys)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            hits = HitRecord(
                [column], array("q", range(len(keys))),
                array("q", [3] * len(keys)),
            )
            ranked = RankedRefinement(RefinedQuery(("a",), 1), hits=hits)
            seen = []
            threads = [
                threading.Thread(target=lambda: seen.append(ranked.slcas))
                for _ in range(4)
            ] + [
                threading.Thread(target=lambda: seen.append(
                    list(map(Dewey.parse, ranked.labels()))
                ))
                for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert len(seen) == 6
            assert all(labels == expected for labels in seen)
            assert ranked.slcas == expected
            assert ranked.result_count == len(keys)
    finally:
        sys.setswitchinterval(interval)


def test_compiled_search_builds_no_key_tuple_or_label(
    dblp_index, tmp_path, monkeypatch
):
    # A cold_large-style daemon: a frozen snapshot, caches off, a mixed
    # pool at k = 2.  From engine.search to the wire body, no posting
    # list builds its key tuples, no record slices one and no Dewey is
    # built.
    if backend_module.compiled is None:
        pytest.skip("compiled backend unavailable on this host")
    path = tmp_path / "dblp.frz"
    freeze_index(dblp_index, path)
    engine = XRefine(load_frozen_index(path), cache_size=0)
    built = {"from_trusted": 0, "dewey_keys": 0, "record keys": 0}
    real_from_trusted = Dewey.from_trusted.__func__
    real_dewey_keys = InvertedList.dewey_keys
    real_keys = HitRecord.keys

    def from_trusted(cls, components):
        built["from_trusted"] += 1
        return real_from_trusted(cls, components)

    def dewey_keys(self):
        built["dewey_keys"] += 1
        return real_dewey_keys.fget(self)

    def record_keys(self):
        built["record keys"] += 1
        return real_keys(self)

    pool = WorkloadGenerator(engine.index, seed=7).pool(
        refinable=20, clean=20
    )
    monkeypatch.setattr(Dewey, "from_trusted", classmethod(from_trusted))
    monkeypatch.setattr(InvertedList, "dewey_keys", property(dewey_keys))
    monkeypatch.setattr(HitRecord, "keys", record_keys)
    sent = direct = 0
    for entry in pool:
        response = engine.search(list(entry.query), k=2)
        payload = encode_response(response)
        encode_body(payload)
        direct += not response.needs_refinement
        sent += len(payload["original_results"]) + sum(
            len(r["slcas"]) for r in payload["refinements"]
        )
    assert sent > 0 and 0 < direct < len(pool)
    assert built == {"from_trusted": 0, "dewey_keys": 0, "record keys": 0}
