"""Partition's ``ScanStats`` are part of its contract — pinned to a golden file.

``partition_counters_golden.json`` was captured by
``capture_partition_counters.py`` while Partition still pre-filtered
each DP beam with a batch admission sweep and read a masked partition
view; the plain Algorithm 2 loop must reproduce those counters and
answers exactly, with the skip bound on and off, on the eager index
and on its frozen snapshot.
"""

from __future__ import annotations

import json

import pytest

from .capture_partition_counters import GOLDEN_PATH, SKIPS, measure
from .capture_sle_counters import RECIPE, build_index, load_frozen, workload


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
    assert [
        (query, k, skip)
        for query in queries for k in RECIPE["ks"] for skip in SKIPS
    ] == [
        (case["query"], case["k"], case["skip_optimization"])
        for case in golden
    ]
    return queries


def test_skip_bound_engages_on_this_workload(golden):
    # The fixture must exercise what it pins: partitions skipped by the
    # bound when it is on, none when it is off, and no more SLCA passes.
    on = [case["eager"] for case in golden if case["skip_optimization"]]
    off = [case["eager"] for case in golden if not case["skip_optimization"]]
    assert sum(c["partitions_skipped"] for c in on) > 0
    assert sum(c["partitions_skipped"] for c in off) == 0
    assert sum(c["slca_invocations"] for c in on) <= sum(
        c["slca_invocations"] for c in off
    )


def _check(rows, golden, view):
    for (query, k, skip, counters, digest), case in zip(rows, golden):
        assert counters == case[view], (query, k, skip)
        assert digest == case["answer"], (query, k, skip)


def test_eager_index_counters_equal_the_golden_file(index, queries, golden):
    _check(measure(index, queries), golden, "eager")


def test_frozen_index_counters_equal_the_golden_file(
    index, queries, golden, tmp_path
):
    _check(measure(load_frozen(index, str(tmp_path)), queries), golden,
           "frozen")
