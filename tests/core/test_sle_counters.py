"""SLE's ``ScanStats`` are part of its contract — pinned to a golden file.

``sle_counters_golden.json`` was captured by ``capture_sle_counters.py``
at the commit *before* step 1 left the plain per-partition loop; the
kernel round (``repro.kernels.sle_round``) must reproduce that loop's
counters exactly, not approximately.

* **Eager index** (every list a resident ``ListColumns``, always the
  batch presence path): every field except ``elapsed_seconds``.
* **Frozen index**: the golden file's ``frozen`` entry pins
  ``partitions_visited``, ``dp_invocations``, ``slca_invocations`` and
  the answer — captured from a snapshot of 16-posting blocks, when a
  multi-block list could still be screened from its block headers,
  which made ``probes`` and ``partitions_skipped`` depend on which
  lists were resident.  A list is now one run, decoded whole at its
  first read, and takes the same batch path as the eager index's, so
  the frozen run's full counters must equal the ``eager`` entry as
  well.
"""

from __future__ import annotations

import json

import pytest

from repro import XRefine

from .capture_sle_counters import (
    GOLDEN_PATH,
    PROBE_INDEPENDENT,
    RECIPE,
    build_index,
    load_frozen,
    measure,
    workload,
)


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
        (query, k) for query in queries for k in RECIPE["ks"]
    ] == [(case["query"], case["k"]) for case in golden]
    return queries


def test_memo_engages_on_this_workload(golden):
    # The fixture must exercise what it pins: many partitions per query,
    # some of them skipped.
    visited = sum(case["eager"]["partitions_visited"] for case in golden)
    skipped = sum(case["eager"]["partitions_skipped"] for case in golden)
    assert visited > 50 * len(golden)
    assert 0 < skipped < visited


def test_direct_completion_engages_on_this_workload(index, golden):
    # Once Q has an answer, step 1 finishes every remaining Q-covering
    # partition's SLCA in one kernel call; the fixture must pin that
    # path too: direct hits that run more than one partition-local SLCA.
    engine = XRefine(index, cache_size=0)
    direct = [
        case for case in golden
        if case["eager"]["slca_invocations"] > 1
        and not engine.search(
            case["query"], k=case["k"], algorithm="sle"
        ).needs_refinement
    ]
    assert len(direct) >= 60


def test_eager_index_counters_equal_the_golden_file(index, queries, golden):
    for (query, k, counters, digest), case in zip(
        measure(index, queries), golden
    ):
        assert counters == case["eager"], (query, k)
        assert digest == case["answer"], (query, k)


def test_frozen_index_probe_independent_counters(
    index, queries, golden, tmp_path
):
    for (query, k, counters, digest), case in zip(
        measure(load_frozen(index, str(tmp_path)), queries), golden
    ):
        kept = {name: counters[name] for name in PROBE_INDEPENDENT}
        assert kept == case["frozen"], (query, k)
        assert counters == case["eager"], (query, k)
        assert digest == case["answer"], (query, k)
