"""Query pool generation with ground-truth intents (Section VIII).

The paper draws 219 empty-result queries (average length 3.92) plus 100
queries with results from a live demo log.  This module reconstructs
that pool synthetically with a crucial bonus the real log lacks:
**ground truth**.  Each pool entry records

* ``intent`` — a clean query sampled from one entity subtree of the
  corpus (so it is guaranteed to have a meaningful result);
* ``query`` — the intent after one (or several mixed) corruption(s);
* ``kinds`` — which corruption classes were applied;
* the intent's meaningful SLCA results, for effectiveness scoring.

A :class:`PoolQuery` whose corrupted form *accidentally* still has a
meaningful result is rejected and regenerated, keeping the "needs
refinement" pool pure, exactly as the paper filtered its log down to
the empty-result queries.
"""

from __future__ import annotations

import random

from ..errors import DatasetError
from ..index.tokenize_text import extract_terms
from ..kernels.columns import columns_for
from ..kernels.slca import slca_columns
from ..lexicon.acronyms import AcronymTable
from ..lexicon.synonyms import Thesaurus
from ..slca.meaningful import infer_search_for, meaningful_slcas
from .corruption import ALL_KINDS, CORRUPTORS, OVERCONSTRAIN


class PoolQuery:
    """One workload query with its ground truth."""

    __slots__ = ("query", "intent", "kinds", "intent_results", "refinable")

    def __init__(self, query, intent, kinds, intent_results, refinable):
        self.query = tuple(query)
        self.intent = tuple(intent)
        self.kinds = tuple(kinds)
        self.intent_results = list(intent_results)
        self.refinable = refinable

    @property
    def length(self):
        return len(self.query)

    def __repr__(self):
        status = "refinable" if self.refinable else "clean"
        return (
            f"PoolQuery({' '.join(self.query)!r} <- "
            f"{' '.join(self.intent)!r}, {status}, kinds={self.kinds})"
        )


class WorkloadGenerator:
    """Samples intents from a corpus and corrupts them deterministically.

    Parameters
    ----------
    index:
        The corpus :class:`~repro.index.builder.DocumentIndex`.
    entity_tags:
        Tags of the entity subtrees intents are sampled from (defaults
        suit the bundled DBLP/Baseball generators).
    seed:
        Master seed; the generator is fully deterministic (its output
        never depends on ``PYTHONHASHSEED``).
    rng:
        A pre-seeded :class:`random.Random` to draw from instead of
        building one from ``seed`` — lets a caller thread one master
        RNG through every layer of a composite workload.
    """

    def __init__(
        self,
        index,
        entity_tags=("inproceedings", "article", "book", "player", "team"),
        seed=23,
        thesaurus=None,
        acronyms=None,
        rng=None,
    ):
        self.index = index
        self.rng = rng if rng is not None else random.Random(seed)
        self.thesaurus = thesaurus if thesaurus is not None else Thesaurus()
        self.acronyms = acronyms if acronyms is not None else AcronymTable()
        self.vocabulary = set(index.inverted.keywords())
        self._entities = [
            node
            for node in index.tree.iter_nodes()
            if node.tag in set(entity_tags)
        ]
        if not self._entities:
            raise DatasetError(
                f"no entity nodes with tags {entity_tags} in the corpus"
            )
        # Stranger terms for over-constraining: rare corpus keywords.
        # The sort key must be total — list length alone leaves ties at
        # the cutoff to set-iteration order, which varies per process
        # with hash randomization and silently changed the "fully
        # deterministic" workload between runs.
        lengths = [
            (keyword, index.inverted.list_length(keyword))
            for keyword in self.vocabulary
        ]
        lengths.sort(key=lambda pair: (pair[1], pair[0]))
        self._rare_terms = [keyword for keyword, _ in lengths[:50]]

    # ------------------------------------------------------------------
    def sample_intent(self, min_terms=2, max_terms=4):
        """A clean query drawn from one entity subtree.

        All keywords come from the same subtree, so the intent has at
        least one non-root SLCA by construction.
        """
        for _ in range(64):
            entity = self.rng.choice(self._entities)
            terms = sorted(
                {
                    term
                    for term in extract_terms(entity.subtree_text())
                    if len(term) >= 2
                }
            )
            if len(terms) < min_terms:
                continue
            count = self.rng.randint(min_terms, min(max_terms, len(terms)))
            return self.rng.sample(terms, count)
        raise DatasetError("could not sample an intent; corpus too sparse")

    # ------------------------------------------------------------------
    def _meaningful_results(self, terms):
        """The meaningful SLCAs of ``terms`` (Definition 3.3)."""
        lists = [self.index.inverted_list(term) for term in terms]
        if not all(map(len, lists)):
            return []
        slcas = slca_columns(list(map(columns_for, lists)))
        if not slcas:
            return []
        search_for = infer_search_for(self.index, list(terms))
        return meaningful_slcas(self.index, slcas, search_for)

    def _corruption_context(self):
        return {
            "thesaurus": self.thesaurus,
            "vocabulary": self.vocabulary,
            "acronyms": self.acronyms,
            "extra_terms": self._rare_terms,
        }

    def _sample_acronym_intent(self, extra_terms=2):
        """An intent containing acronym material (expansion run or acronym).

        Scans a few random entities for one whose vocabulary contains a
        known acronym or a full expansion; the acronym-relevant words
        are force-included so the acronym corruptor always applies.
        """
        for _ in range(16):
            entity = self.rng.choice(self._entities)
            terms = {
                term
                for term in extract_terms(entity.subtree_text())
                if len(term) >= 2
            }
            seeds = []
            for acronym, expansion in self.acronyms.items():
                if acronym in terms:
                    seeds.append([acronym])
                if all(word in terms for word in expansion):
                    seeds.append(list(expansion))
            if not seeds:
                continue
            intent = self.rng.choice(seeds)
            others = sorted(terms - set(intent))
            if others:
                intent += self.rng.sample(
                    others, min(extra_terms, len(others))
                )
            return intent
        return None

    def _arrange_for_acronym(self, intent):
        """Reorder an intent so known acronym expansions are adjacent.

        A keyword query is a set (Section III), so its presentation
        order is free; placing e.g. ``machine learning`` contiguously
        lets the acronym corruptor contract the run.
        """
        remaining = list(intent)
        arranged = []
        for expansion in self.acronyms._expansions.values():
            if all(word in remaining for word in expansion):
                for word in expansion:
                    remaining.remove(word)
                arranged.extend(expansion)
        return arranged + remaining

    def corrupt(self, intent, kinds):
        """Apply the given corruption kinds in order; None on failure."""
        context = self._corruption_context()
        if "acronym" in kinds:
            intent = self._arrange_for_acronym(intent)
        query = list(intent)
        applied = []
        for kind in kinds:
            corrupted = CORRUPTORS[kind](query, self.rng, context)
            if corrupted is None:
                return None, applied
            query = corrupted
            applied.append(kind)
        return query, applied

    # ------------------------------------------------------------------
    def refinable_query(self, kinds=None, max_attempts=80):
        """One pool query guaranteed to need refinement.

        ``kinds`` restricts the corruption classes (a single class for
        the per-operation query sets of Tables III-VI; mixtures for the
        QX queries); when omitted a random class is drawn per attempt.
        """
        choices = list(kinds) if kinds else None
        for _ in range(max_attempts):
            if choices and "acronym" in choices:
                intent = self._sample_acronym_intent()
                if intent is None:
                    continue
            else:
                intent = self.sample_intent()
            intent_results = self._meaningful_results(intent)
            if not intent_results:
                continue
            drawn = choices or [self.rng.choice(ALL_KINDS)]
            query, applied = self.corrupt(intent, drawn)
            if query is None or tuple(query) == tuple(intent):
                continue
            # Over-constrained queries may legitimately keep partial
            # matches; every other class must yield no meaningful result.
            if OVERCONSTRAIN not in applied and self._meaningful_results(
                query
            ):
                continue
            if OVERCONSTRAIN in applied and self._meaningful_results(query):
                continue
            return PoolQuery(query, intent, applied, intent_results, True)
        raise DatasetError(
            f"failed to generate a refinable query for kinds={kinds}"
        )

    def clean_query(self, max_attempts=40):
        """One pool query that already has meaningful results."""
        for _ in range(max_attempts):
            intent = self.sample_intent()
            intent_results = self._meaningful_results(intent)
            if intent_results:
                return PoolQuery(intent, intent, (), intent_results, False)
        raise DatasetError("failed to sample a clean query")

    # ------------------------------------------------------------------
    def pool(self, refinable=219, clean=100, kinds=None):
        """The full experimental pool (defaults match Section VIII)."""
        queries = [
            self.refinable_query(kinds=kinds) for _ in range(refinable)
        ]
        queries.extend(self.clean_query() for _ in range(clean))
        return queries


def pool_statistics(queries):
    """Aggregate pool statistics (the Table VIII quantities)."""
    refinable = [q for q in queries if q.refinable]
    clean = [q for q in queries if not q.refinable]
    total_terms = sum(q.length for q in queries)
    kind_counts = {}
    for query in refinable:
        for kind in query.kinds:
            kind_counts[kind] = kind_counts.get(kind, 0) + 1
    return {
        "total": len(queries),
        "refinable": len(refinable),
        "clean": len(clean),
        "avg_length": total_terms / len(queries) if queries else 0.0,
        "kind_counts": dict(sorted(kind_counts.items())),
    }
