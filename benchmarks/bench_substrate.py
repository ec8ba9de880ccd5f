"""Substrate micro-benchmarks (pytest-benchmark).

Not paper tables; these keep the building blocks honest so regressions
in the substrate do not masquerade as algorithmic effects in the
figure benches: XML parsing, index construction, and the stack-slca /
scan-slca baselines of Fig. 4 on identical inputs.
"""

from __future__ import annotations

import pytest

from repro.slca import scan_eager_slca, stack_slca
from repro.xmltree import parse, serialize


@pytest.fixture(scope="module")
def dblp_xml(dblp_tree):
    return serialize(dblp_tree)


@pytest.fixture(scope="module")
def slca_lists(dblp_index):
    terms = ["database", "query", "2005"]
    return [dblp_index.inverted_list(term).labels() for term in terms]


def test_xml_parse(benchmark, dblp_xml):
    tree = benchmark.pedantic(
        lambda: parse(dblp_xml), rounds=3, iterations=1
    )
    assert tree.root.tag == "bib"


def test_index_build(benchmark, dblp_tree):
    from repro.index import build_document_index

    index = benchmark.pedantic(
        lambda: build_document_index(dblp_tree), rounds=3, iterations=1
    )
    assert index.inverted.vocabulary_size() > 0


@pytest.mark.parametrize(
    "name, algorithm",
    [
        ("stack", stack_slca),
        ("scan_eager", scan_eager_slca),
    ],
)
def test_slca_baselines(benchmark, slca_lists, name, algorithm):
    reference = stack_slca(slca_lists)
    result = benchmark.pedantic(
        lambda: algorithm(slca_lists), rounds=5, iterations=1
    )
    assert result == reference
