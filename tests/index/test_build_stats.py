"""The build's output is pinned to a golden file.

``build_stats_golden.json`` was captured by ``capture_build_stats.py``
while :func:`repro.index.builder.subtree_contribution` still updated
``f_k^T`` and ``tf(k, T)`` per occurrence and per ancestor type.  The
per-keyword passes over the posting columns must reproduce its
frequency rows, its type statistics and every inverted list exactly,
under the active kernel backend and with the compiled library masked
off.
"""

from __future__ import annotations

import json

import pytest

import repro.kernels.backend as backend_module
from repro.index import build_document_index

from .capture_build_stats import GOLDEN_PATH, RECIPE, make_tree, measure


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
    return document["corpora"]


@pytest.fixture(scope="module")
def trees():
    return {corpus: make_tree(corpus) for corpus in RECIPE}


@pytest.mark.parametrize("corpus", sorted(RECIPE))
def test_build_output_equals_the_golden_file(
    corpus, trees, golden, kernel_backend
):
    assert measure(build_document_index(trees[corpus])) == golden[corpus]
