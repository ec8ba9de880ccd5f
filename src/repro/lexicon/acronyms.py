"""Acronym expansion table (rule r6 of Table II: WWW <-> world wide web).

Acronym rules are bidirectional multi-word substitutions with a fixed
dissimilarity of 1 (Section III-B "for acronym expansion ... a score of
1 is designated").  The default table covers the computing and baseball
vocabulary the synthetic corpora use.
"""

from __future__ import annotations

#: acronym -> expansion word sequence.
DEFAULT_ACRONYMS = {
    "www": ("world", "wide", "web"),
    "ml": ("machine", "learning"),
    "ir": ("information", "retrieval"),
    "ai": ("artificial", "intelligence"),
    "db": ("data", "base"),
    "dbms": ("database", "management", "system"),
    "xml": ("extensible", "markup", "language"),
    "sql": ("structured", "query", "language"),
    "olap": ("online", "analytical", "processing"),
    "nlp": ("natural", "language", "processing"),
    "mlb": ("major", "league", "baseball"),
    "era": ("earned", "run", "average"),
    "rbi": ("runs", "batted", "in"),
}

#: Dissimilarity of any acronym expansion/contraction.
ACRONYM_SCORE = 1


class AcronymTable:
    """Bidirectional acronym <-> expansion lookup."""

    def __init__(self, table=None):
        self._expansions = {}
        self._contractions = {}
        #: The last word of every expansion: a run of words ending in
        #: any other word contracts to nothing.
        self.last_words = set()
        for acronym, expansion in (
            table if table is not None else DEFAULT_ACRONYMS
        ).items():
            self.add(acronym, expansion)

    def add(self, acronym, expansion):
        """Register one acronym with its expansion word sequence."""
        acronym = acronym.lower()
        expansion = tuple(word.lower() for word in expansion)
        self._expansions[acronym] = expansion
        self._contractions[expansion] = acronym
        self.last_words.add(expansion[-1])

    def expand(self, acronym):
        """Expansion tuple for an acronym, or ``None``."""
        return self._expansions.get(acronym.lower())

    def contract(self, words):
        """Acronym for a word sequence, or ``None``."""
        return self._contractions.get(tuple(w.lower() for w in words))

    def __contains__(self, acronym):
        return acronym.lower() in self._expansions

    def __len__(self):
        return len(self._expansions)

    def items(self):
        return self._expansions.items()
