"""Formula 1 over the keywords' frequency rows equals the all-types scan.

``infer_search_for`` scores only the node types some query keyword
occurs under (``FrequencyTable.types_for``): every other type sums
``f_k^T = 0`` and scores ``ln(1) = 0``, which is never kept.  Over the
2,000 queries of the replay benchmark's universe — once as their terms
and once as the keyword space their mined rules give, which is what the
engine infers over — it must return the same candidates with the same
confidences, bit for bit, as scoring every type of the document, on the
eager index and its frozen snapshot, under the active kernel backend
and with the compiled library masked off.
"""

from __future__ import annotations

import pytest

import repro.kernels.backend as backend_module
from repro.index import freeze_index, load_frozen_index
from repro.index.tokenize_text import query_terms
from repro.lexicon import RuleMiner
from repro.slca.meaningful import (
    DEFAULT_COMPARABLE_FRACTION,
    DEFAULT_REDUCTION,
    SearchForCandidate,
    confidence,
    infer_search_for,
)

from ..lexicon.capture_mined_rules import build_index, replay_universe


@pytest.fixture(params=["active", "pure-python"])
def kernel_backend(request, monkeypatch):
    """Run the test under the active backend, then the pure fallback."""
    if request.param == "pure-python":
        monkeypatch.setattr(backend_module, "compiled", None)
    elif backend_module.compiled is None:
        pytest.skip("compiled backend unavailable on this host")
    return request.param


@pytest.fixture(scope="module")
def small_index():
    return build_index("small")


@pytest.fixture(scope="module")
def keyword_lists(small_index):
    """Each universe query's terms, then its keyword space."""
    miner = RuleMiner(small_index.inverted.keywords())
    lists = []
    for query in replay_universe(small_index):
        terms = list(query_terms(query))
        lists.append(terms)
        generated = miner.mine(terms).generated_keywords()
        lists.append(terms + sorted(generated - set(terms)))
    return lists


def all_types_scan(index, keywords, max_candidates=3):
    """Formula 1 for every node type of the document (the reference)."""
    root_type = index.tree.root.node_type
    scored = []
    for node_type, _ in index.statistics.items():
        if node_type == root_type:
            continue
        score = confidence(index, node_type, keywords, DEFAULT_REDUCTION)
        if score > 0.0:
            scored.append(SearchForCandidate(node_type, score))
    if not scored:
        return []
    scored.sort(key=lambda c: (-c.confidence, c.node_type))
    threshold = scored[0].confidence * DEFAULT_COMPARABLE_FRACTION
    return [c for c in scored if c.confidence >= threshold][:max_candidates]


def _rows(candidates):
    return [(c.node_type, c.confidence.hex()) for c in candidates]


@pytest.mark.parametrize("view", ["eager", "frozen"])
def test_rows_equal_the_all_types_scan(
    view, small_index, keyword_lists, kernel_backend, tmp_path
):
    index = small_index
    if view == "frozen":
        path = tmp_path / "small.frz"
        freeze_index(small_index, path)
        index = load_frozen_index(path)
    inferred = 0
    for keywords in keyword_lists:
        got = _rows(infer_search_for(index, keywords))
        assert got == _rows(all_types_scan(index, keywords)), keywords
        inferred += bool(got)
    # Most universe queries have a present keyword to infer from.
    assert inferred > len(keyword_lists) // 2
