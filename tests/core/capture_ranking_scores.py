"""Capture script for ``ranking_scores_golden.json`` (Formula 2–10 floats).

The ranking model of Section IV is pure arithmetic over index
statistics, so its scores are pinned bit for bit: ``float.hex`` of
every ranked candidate's ``rank_score``, ``similarity_score`` and
``dependence_score``, for each of nine model variants — RS0–RS4
(Table IX), similarity-only and dependence-only (Table X), a 0.5
decay and the literal Formula-4 domain.  Two corpora are scored: the
synthetic DBLP one, where every query infers one search-for type, and
the Baseball one, where most infer several (so Guideline 3's
confidence-weighted sum, and RS3, are exercised).
``test_ranking_scores.py`` replays the recipe and compares.  Re-run
it only at a commit whose scores are the intended contract::

    PYTHONPATH=src python -m tests.core.capture_ranking_scores

The eager index and its frozen snapshot are both scored, under the
active kernel backend and with the compiled library masked off; all
four must agree before anything is written.
"""

from __future__ import annotations

import json
import os
import tempfile

import repro.kernels.backend as backend_module
from repro import XRefine
from repro.core.ranking import RankingModel, variant_without_guideline
from repro.datasets import generate_baseball, generate_dblp
from repro.index import build_document_index, freeze_index, load_frozen_index
from repro.workload import WorkloadGenerator

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "ranking_scores_golden.json"
)

RECIPE = {
    "dblp": {"num_authors": 120, "seed": 5},
    "baseball": {"players_per_team": 10, "seed": 5},
    "workload_seed": 5, "refinable": 40, "clean": 10, "k": 3,
}

#: The corpus generators, by ``RECIPE`` key.
CORPORA = {"dblp": generate_dblp, "baseball": generate_baseball}

#: ``name -> RankingModel`` for every variant the paper's tables use.
VARIANTS = {
    "RS0": lambda: RankingModel(),
    **{f"RS{i}": (lambda i=i: variant_without_guideline(i))
       for i in (1, 2, 3, 4)},
    "alpha1_beta0": lambda: RankingModel(alpha=1.0, beta=0.0),
    "alpha0_beta1": lambda: RankingModel(alpha=0.0, beta=1.0),
    "decay0.5": lambda: RankingModel(decay=0.5),
    "sym_diff": lambda: RankingModel(g2_domain="sym_diff"),
}


def build_index(corpus):
    return build_document_index(CORPORA[corpus](**RECIPE[corpus]))


def load_frozen(index, directory):
    """``index`` frozen and loaded back."""
    path = os.path.join(directory, "scores.frz")
    freeze_index(index, path)
    return load_frozen_index(path)


def workload(index):
    generator = WorkloadGenerator(index, seed=RECIPE["workload_seed"])
    return [
        list(entry.query) for entry in generator.pool(
            refinable=RECIPE["refinable"], clean=RECIPE["clean"]
        )
    ]


def measure(index, queries):
    """``{variant: [[query, [[keywords, rank, sim, dep], ...]], ...]}``.

    Scores are ``float.hex`` strings; candidates keep the response's
    ranked order.
    """
    scores = {}
    for name, make in VARIANTS.items():
        engine = XRefine(index, model=make(), cache_size=0)
        rows = []
        for query in queries:
            response = engine.search(query, k=RECIPE["k"])
            rows.append([query, [
                [list(candidate.rq.keywords),
                 candidate.rank_score.hex(),
                 candidate.similarity_score.hex(),
                 candidate.dependence_score.hex()]
                for candidate in response.candidates
            ]])
        scores[name] = rows
    return scores


def measure_views(index, queries, directory):
    """``measure`` over the eager and the frozen view, which must agree."""
    eager = measure(index, queries)
    frozen = measure(load_frozen(index, directory), queries)
    assert frozen == eager, "frozen and eager views disagree"
    return eager


def capture(corpus, directory):
    """One corpus's scores; both backends must agree."""
    index = build_index(corpus)
    queries = workload(index)
    active = measure_views(index, queries, directory)
    compiled, backend_module.compiled = backend_module.compiled, None
    try:
        pure = measure_views(build_index(corpus), queries, directory)
    finally:
        backend_module.compiled = compiled
    assert pure == active, "kernel backends disagree"
    return active


def main():
    with tempfile.TemporaryDirectory() as directory:
        scores = {corpus: capture(corpus, directory) for corpus in CORPORA}
    lines = [
        json.dumps([corpus, name, row])
        for corpus, variants in scores.items()
        for name, rows in variants.items()
        for row in rows
    ]
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        # One (corpus, variant, query) row per line keeps it diffable.
        handle.write('{"recipe": %s,\n"rows": [\n' % json.dumps(RECIPE))
        handle.write(",\n".join(lines))
        handle.write("\n]}\n")
    total = sum(
        len(row[1]) for variants in scores.values()
        for rows in variants.values() for row in rows
    )
    print(f"wrote {total} candidate scores to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
