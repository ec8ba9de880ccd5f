"""Lexical substrate: refinement rules and the knowledge to mine them.

Covers Section III-B (the four refinement operations with their
dissimilarity scores) plus the supporting machinery the paper
outsources — edit distance, a Porter stemmer, a WordNet-style
thesaurus, an acronym table, and a rule miner standing in for the
paper's human annotators.
"""

from .acronyms import ACRONYM_SCORE, DEFAULT_ACRONYMS, AcronymTable
from .edit_distance import (
    SpellingIndex,
    bounded_distance,
    levenshtein,
    spelling_candidates,
    within_distance,
)
from .mining import RuleMiner
from .rules import (
    DEFAULT_DELETION_COST,
    OP_DELETION,
    OP_MERGING,
    OP_SPLIT,
    OP_SUBSTITUTION,
    RefinementRule,
    RuleSet,
    acronym_rules,
    merging_rule,
    split_rule,
    substitution_rule,
)
from .stemming import share_stem, stem
from .synonyms import DEFAULT_GROUPS, Thesaurus

__all__ = [
    "RefinementRule",
    "RuleSet",
    "RuleMiner",
    "merging_rule",
    "split_rule",
    "substitution_rule",
    "acronym_rules",
    "OP_DELETION",
    "OP_MERGING",
    "OP_SPLIT",
    "OP_SUBSTITUTION",
    "DEFAULT_DELETION_COST",
    "levenshtein",
    "within_distance",
    "bounded_distance",
    "spelling_candidates",
    "SpellingIndex",
    "stem",
    "share_stem",
    "Thesaurus",
    "DEFAULT_GROUPS",
    "AcronymTable",
    "DEFAULT_ACRONYMS",
    "ACRONYM_SCORE",
]
