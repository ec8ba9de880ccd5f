"""Result labels are built when read, from tuples sliced during the query.

The routes keep each refinement's results as the component tuples they
sliced from the posting columns; a ``Dewey`` is built the first time a
refinement's ``slcas`` is read.  Held here: a search builds no label,
encoding a response builds exactly the labels it sends, a copy builds
none, results read only after the engine has swapped to another
snapshot and closed the first are still the right answer, and
``rank_results`` still reorders the built list in place — each under
both kernel backends.
"""

from __future__ import annotations

import sys
import threading

import pytest

import repro.kernels.backend as backend_module
from repro import XRefine
from repro.core import RefinedQuery
from repro.core.ranking.results import rank_results
from repro.core.result import RankedRefinement
from repro.datasets import generate_dblp
from repro.index import build_document_index, freeze_index, load_frozen_index
from repro.serve.wire import encode_response
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


def test_labels_are_built_for_what_the_response_sends(
    kernel_backend, dblp_index, label_count
):
    engine = XRefine(dblp_index, cache_size=0)
    response = engine.search(QUERY, k=1)
    assert response.needs_refinement
    unread = response.candidates[len(response.refinements):]
    assert unread and all(c.result_count for c in unread)
    assert label_count() == 0

    early_copy = response.copy()
    assert label_count() == 0

    payload = encode_response(response)
    sent = len(payload["original_results"]) + sum(
        len(refinement["slcas"]) for refinement in payload["refinements"]
    )
    assert sent > 0
    assert label_count() == sent

    late_copy = response.copy()
    assert label_count() == sent
    assert encode_response(late_copy) == payload
    assert encode_response(early_copy) == payload


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
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            ranked = RankedRefinement(RefinedQuery(("a",), 1), keys=keys)
            seen = []
            threads = [
                threading.Thread(target=lambda: seen.append(ranked.slcas))
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert len(seen) == 4
            assert all(labels == expected for labels in seen)
            assert ranked.slcas == expected
            assert ranked.result_count == len(keys)
    finally:
        sys.setswitchinterval(interval)
