"""SLE over a keyword space wider than one 64-lane presence mask.

A presence mask is one ``int64``; a query whose rules generate more
in-data keywords than that has more lanes than a mask holds.  Such a
query must still get Partition's answer, and every ``ScanStats`` counter
must agree between the compiled and the pure-Python backend.
"""

from __future__ import annotations

import random

import pytest

import repro.kernels.backend as backend_module
from repro.core.common import QueryContext
from repro.core.partition_refine import partition_refine
from repro.core.short_list_eager import short_list_eager
from repro.lexicon.rules import RuleSet, substitution_rule
from repro.verify.oracle import response_fingerprint

#: Distinct in-data keywords the rules generate: past one mask's lanes.
GENERATED = 70


def _wide_rules(index, sources, seed):
    """Substitution rules from ``sources`` onto ``GENERATED`` in-data
    words, with dissimilarities 1-3."""
    rng = random.Random(seed)
    vocabulary = sorted(
        keyword for keyword in index.inverted.keywords()
        if keyword.isalpha() and keyword not in sources
    )
    return RuleSet(
        substitution_rule(rng.choice(sources), target, ds=rng.randint(1, 3))
        for target in rng.sample(vocabulary, GENERATED)
    )


def _counters(response):
    counters = response.stats.as_dict()
    del counters["elapsed_seconds"]
    return counters


#: A misspelled keyword beside a real one (refinement needed), and two
#: real keywords (an original answer may exist).
QUERIES = (("databse", "xml"), ("database", "query"))


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("query", QUERIES, ids="-".join)
def test_wide_keyword_space(dblp_index, monkeypatch, query, k):
    rules = _wide_rules(dblp_index, list(query), seed=len(query[0]) + k)
    context = QueryContext(dblp_index, query, rules)
    in_data = {
        keyword for keyword in context.keyword_space
        if len(context.lists[keyword]) > 0
    }
    assert len(in_data) >= 65

    active = short_list_eager(dblp_index, query, rules, k=k)
    assert response_fingerprint(active) == response_fingerprint(
        partition_refine(dblp_index, query, rules, k=k)
    )
    monkeypatch.setattr(backend_module, "compiled", None)
    pure = short_list_eager(dblp_index, query, rules, k=k)
    assert response_fingerprint(pure) == response_fingerprint(active)
    assert _counters(pure) == _counters(active)
