"""The mined ``RuleSet``s are pinned to a golden file.

``mined_rules_golden.json`` was captured by ``capture_mined_rules.py``
from the rule miner that scanned the whole vocabulary for spelling
candidates.  Any faster way of mining must produce the same rules in
the same order for every query the wire benchmark sends: the rule set
decides which refined queries exist and how much each costs, so an
equal rule set is what keeps every ranked answer where it was.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.lexicon import RuleMiner

from .capture_mined_rules import (
    GOLDEN_PATH,
    RECIPE,
    SETS,
    build_index,
    mine,
    queries_for,
    queries_sha,
)

#: The e2e benchmark's pinned input digests.
EXPECTED_DIGESTS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir, os.pardir, "benchmarks", "e2e", "expected_digests.json",
)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        document = json.load(handle)
    assert document["recipe"] == RECIPE, "fixture and capture script drifted"
    return document["sets"]


@pytest.fixture(scope="module")
def indexes():
    return {corpus: build_index(corpus) for corpus in set(SETS.values())}


def test_pools_are_the_benchmarks():
    # The pools here are the ones the wire benchmark pins by digest.
    with open(EXPECTED_DIGESTS, encoding="utf-8") as handle:
        pinned = json.load(handle)["pool"]
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        sets = json.load(handle)["sets"]
    assert sets["small_pool"]["queries_sha"] == pinned["small"]
    assert sets["large_pool"]["queries_sha"] == pinned["large"]


@pytest.mark.parametrize("name", sorted(SETS))
def test_mined_rules_match_golden(name, golden, indexes):
    index = indexes[SETS[name]]
    queries = queries_for(name, index)
    assert queries_sha(queries) == golden[name]["queries_sha"]
    expected = golden[name]["cases"]
    got = mine(RuleMiner(index.inverted.keywords()), queries)
    assert len(got) == len(expected)
    for case, want in zip(got, expected):
        assert case == want, case[0]


def test_golden_exercises_spelling_rules(golden):
    # The fixture must pin what the spelling index serves: many
    # substitutions at both distances the default limit allows.
    distances = {1: 0, 2: 0}
    for entry in golden.values():
        for _terms, _cost, rules in entry["cases"]:
            for lhs, rhs, operation, ds in rules:
                if operation == "substitution" and ds in distances:
                    distances[ds] += 1
    assert distances[1] > 100 and distances[2] > 100
