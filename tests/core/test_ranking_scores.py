"""The ranking model's scores are pinned bit for bit to a golden file.

``ranking_scores_golden.json`` was captured by
``capture_ranking_scores.py`` while the served path still scored
through a term-for-term replay of Formulas 2–9 beside the paper-named
formulas.  The formulas alone, reading the index's score memo, must
reproduce every ``float.hex`` of every ranked candidate for all nine
model variants on both corpora — on the eager index and on its frozen
snapshot, under the active kernel backend and with the compiled
library masked off.
"""

from __future__ import annotations

import json

import pytest

import repro.kernels.backend as backend_module

from .capture_ranking_scores import (
    CORPORA,
    GOLDEN_PATH,
    RECIPE,
    VARIANTS,
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
    """``{corpus: {variant: rows}}`` as ``measure`` returns them."""
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        document = json.load(handle)
    assert document["recipe"] == RECIPE, "fixture and capture script drifted"
    scores = {corpus: {name: [] for name in VARIANTS} for corpus in CORPORA}
    for corpus, name, row in document["rows"]:
        scores[corpus][name].append(row)
    return scores


def test_fixture_covers_every_variant_and_distinguishes_them(golden):
    for corpus, variants in golden.items():
        scored = {
            name: [candidate for row in rows for candidate in row[1]]
            for name, rows in variants.items()
        }
        assert all(scored.values()), corpus
        # Each ablation moves some score away from RS0's — RS3 only
        # where a query infers several search-for types.
        for name in VARIANTS:
            if name != "RS0" and (name, corpus) != ("RS3", "dblp"):
                assert scored[name] != scored["RS0"], (corpus, name)


@pytest.mark.parametrize("corpus", list(CORPORA))
@pytest.mark.parametrize("view", ["eager", "frozen"])
def test_scores_equal_the_golden_file(
    corpus, view, golden, kernel_backend, tmp_path
):
    index = build_index(corpus)
    queries = workload(index)
    if view == "frozen":
        index = load_frozen(index, str(tmp_path))
    assert measure(index, queries) == golden[corpus]
