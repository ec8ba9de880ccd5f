"""Tests for the rule miner (the automated annotator)."""

import pytest

from repro.lexicon import (
    OP_MERGING,
    OP_SPLIT,
    OP_SUBSTITUTION,
    RuleMiner,
    Thesaurus,
)

VOCAB = [
    "online", "on", "line", "database", "machine", "learning",
    "inproceedings", "article", "world", "wide", "web", "keyword",
    "key", "word", "matching", "match", "skyline", "computation",
]


@pytest.fixture
def miner():
    return RuleMiner(VOCAB)


class TestMergingRules:
    def test_adjacent_pair(self, miner):
        rules = miner.mine(["on", "line", "database"])
        merges = [r for r in rules if r.operation == OP_MERGING]
        assert any(r.lhs == ("on", "line") and r.rhs == ("online",) for r in merges)

    def test_non_adjacent_not_merged(self, miner):
        rules = miner.mine(["on", "database", "line"])
        merges = [r for r in rules if r.operation == OP_MERGING]
        assert not any(r.rhs == ("online",) for r in merges)

    def test_merge_target_must_exist(self):
        miner = RuleMiner(["on", "line"])  # no "online" in corpus
        rules = miner.mine(["on", "line"])
        assert not any(r.operation == OP_MERGING for r in rules)


class TestSplitRules:
    def test_compound_split(self, miner):
        rules = miner.mine(["keyword"])
        splits = [r for r in rules if r.operation == OP_SPLIT]
        assert any(r.rhs == ("key", "word") for r in splits)

    def test_fragments_must_exist(self):
        miner = RuleMiner(["online"])  # no "on"/"line"
        rules = miner.mine(["online"])
        assert not any(r.operation == OP_SPLIT for r in rules)


class TestSpellingRules:
    def test_typo_correction(self, miner):
        rules = miner.mine(["machin"])
        subs = [r for r in rules if r.operation == OP_SUBSTITUTION]
        assert any(
            r.lhs == ("machin",) and r.rhs == ("machine",) and r.ds == 1
            for r in subs
        )

    def test_distance_is_the_score(self, miner):
        rules = miner.mine(["mchine"])
        subs = [r for r in rules if r.rhs == ("machine",)]
        assert subs and subs[0].ds == 1

    def test_in_corpus_word_not_spellchecked(self, miner):
        rules = miner.mine(["machine"])
        assert not any(
            r.lhs == ("machine",) and len(r.rhs) == 1 and r.ds >= 1
            and r.operation == OP_SUBSTITUTION
            and r.rhs[0] not in ("matching", "match", "learning")
            # stemming/synonym rules are fine; spelling ones are not
            and r.rhs[0] in ("machine",)
            for r in rules
        )

    def test_cap_respected(self):
        vocab = ["wordaa", "wordab", "wordac", "wordad", "wordae"]
        miner = RuleMiner(vocab, max_spelling=2)
        rules = miner.mine(["wordax"])
        spelling = [
            r for r in rules
            if r.operation == OP_SUBSTITUTION and r.lhs == ("wordax",)
        ]
        assert len(spelling) <= 2


class TestSynonymAndAcronymRules:
    def test_synonym_substitution(self, miner):
        rules = miner.mine(["publication"])
        assert any(
            r.rhs in (("article",), ("inproceedings",)) for r in rules
        )

    def test_synonym_must_be_in_corpus(self):
        miner = RuleMiner(["machine"])  # no synonyms present
        rules = miner.mine(["publication"])
        assert len([r for r in rules if r.lhs == ("publication",)]) == 0

    def test_acronym_expansion(self, miner):
        rules = miner.mine(["www"])
        assert any(
            r.lhs == ("www",) and r.rhs == ("world", "wide", "web")
            for r in rules
        )

    def test_acronym_contraction_needs_adjacency(self, miner):
        vocab = VOCAB + ["www"]
        miner = RuleMiner(vocab)
        rules = miner.mine(["world", "wide", "web"])
        assert any(
            r.lhs == ("world", "wide", "web") and r.rhs == ("www",)
            for r in rules
        )
        # Runs are matched case-insensitively, as the table does.
        rules = miner.mine(["World", "Wide", "Web"])
        assert any(
            r.lhs == ("World", "Wide", "Web") and r.rhs == ("www",)
            for r in rules
        )
        assert not any(r.rhs == ("www",) for r in miner.mine(["wide", "world"]))

    def test_stemming_substitution(self, miner):
        rules = miner.mine(["match"])
        assert any(r.rhs == ("matching",) for r in rules)


class TestMinedRuleSet:
    def test_deletion_cost_propagates(self):
        miner = RuleMiner(VOCAB, deletion_cost=3)
        assert miner.mine(["online"]).deletion_cost == 3

    def test_paper_example_qx1(self, miner):
        """'eficient, key, word, search' needs spelling + merging."""
        vocab = VOCAB + ["efficient", "search"]
        miner = RuleMiner(vocab)
        rules = miner.mine(["eficient", "key", "word", "search"])
        assert any(r.rhs == ("efficient",) for r in rules)
        assert any(
            r.lhs == ("key", "word") and r.rhs == ("keyword",) for r in rules
        )
