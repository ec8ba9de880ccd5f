"""Stack-refine's ``ScanStats`` are part of its contract — pinned to a golden file.

``stack_counters_golden.json`` was captured by
``capture_stack_counters.py`` while the stack walk still retired runs
of sibling leaves in one step and copied their per-frame counters by
hand.  The plain one-scan walk must reproduce those counters exactly:
every posting scanned once, one ``getOptimalRQ`` call counted per
popped witness-bearing node (memo hits included), one exact SLCA pass
per winning refined query.

Every field except ``elapsed_seconds`` and the answer digest are
compared on the eager index and on its frozen snapshot, under the
active kernel backend and with the compiled library masked off.
"""

from __future__ import annotations

import json

import pytest

import repro.kernels.backend as backend_module

from .capture_stack_counters import (
    GOLDEN_PATH,
    K,
    RECIPE,
    build_index,
    load_frozen,
    measure,
    workload,
)


@pytest.fixture(params=["active", "pure-python"])
def kernel_backend(request, monkeypatch):
    """Run the test under the active backend, then the pure fallback."""
    if request.param == "pure-python":
        monkeypatch.setattr(backend_module, "compiled", None)
    elif backend_module.compiled is None:
        pytest.skip("compiled backend unavailable on this host")
    return request.param


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        document = json.load(handle)
    assert document["recipe"] == RECIPE, "fixture and capture script drifted"
    return document["cases"]


@pytest.fixture(scope="module")
def index():
    return build_index()


@pytest.fixture(scope="module")
def queries(index, golden):
    queries = workload(index)
    assert [(query, K) for query in queries] == [
        (case["query"], case["k"]) for case in golden
    ]
    return queries


def test_fixture_pins_refinements_and_direct_answers(golden):
    # Both outcomes of the walk: a winning refined query completed by
    # an exact SLCA pass, and none (a direct hit or no refinement).
    finished = [case["counters"]["slca_invocations"] for case in golden]
    assert any(finished) and not all(finished)
    # One DP call per popped witness-bearing node outnumbers postings.
    assert sum(c["counters"]["dp_invocations"] for c in golden) > sum(
        c["counters"]["postings_scanned"] for c in golden
    )


def _assert_matches(rows, golden):
    for (query, counters, digest), case in zip(rows, golden, strict=True):
        assert counters == case["counters"], query
        assert digest == case["answer"], query


def test_eager_index_counters_equal_the_golden_file(
    index, queries, golden, kernel_backend
):
    _assert_matches(measure(index, queries), golden)


def test_frozen_index_counters_equal_the_golden_file(
    index, queries, golden, kernel_backend, tmp_path
):
    frozen = load_frozen(index, str(tmp_path))
    _assert_matches(measure(frozen, queries), golden)
