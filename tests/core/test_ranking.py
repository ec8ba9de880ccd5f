"""Tests for the ranking model (Formulas 2-10) and its variants."""

import math
import os
import subprocess
import sys

import pytest

from repro.core import RefinedQuery, full_model, variant_without_guideline
from repro.core.ranking import (
    dependence_for_type,
    importance,
    keyword_importance,
    similarity_for_type,
)
from repro.core.ranking.model import RankingModel
from repro.slca import infer_search_for

T_INPROC = ("bib", "author", "publications", "inproceedings")
T_AUTHOR = ("bib", "author")


class TestFormula2:
    def test_by_hand(self, figure1_index):
        rq = ("database", "2003")
        total = sum(figure1_index.tf(k, T_INPROC) for k in rq)
        g = figure1_index.distinct_keywords(T_INPROC)
        assert importance(figure1_index, rq, T_INPROC) == pytest.approx(
            total / g
        )

    def test_unknown_type(self, figure1_index):
        assert importance(figure1_index, ("xml",), ("nope",)) == 0.0

    def test_more_frequent_scores_higher(self, dblp_index):
        types = dblp_index.statistics.types()
        t = next(t for t in types if t[-1] == "inproceedings")
        frequent = importance(dblp_index, ("query",), t)
        rare = importance(dblp_index, ("dewey",), t)
        assert frequent > rare


class TestFormula3:
    def test_monotone_in_df(self, dblp_index):
        t = next(
            t for t in dblp_index.statistics.types() if t[-1] == "author"
        )
        values = {
            k: keyword_importance(dblp_index, k, t)
            for k in ("query", "skyline")
        }
        df = {k: dblp_index.xml_df(k, t) for k in ("query", "skyline")}
        # Rarer keyword (smaller XML DF) is more discriminative.
        assert df["skyline"] < df["query"]
        assert values["skyline"] > values["query"]

    def test_smoothed_positive(self, figure1_index):
        # Even a keyword under every node keeps a positive importance.
        assert keyword_importance(figure1_index, "author", ("bib",)) > 0

    def test_unknown_type_zero(self, figure1_index):
        assert keyword_importance(figure1_index, "xml", ("nope",)) == 0.0


class TestFormula4:
    def test_guideline2_example2_direction(self, dblp_index):
        """Keeping the discriminative keyword must outrank losing it."""
        t = next(
            t for t in dblp_index.statistics.types()
            if t[-1] == "inproceedings"
        )
        original = ("xml", "twig", "pattern", "join")
        # Identify the most/least discriminative of the two dropped.
        df_pattern = dblp_index.xml_df("pattern", t)
        df_join = dblp_index.xml_df("join", t)
        if df_pattern == df_join:
            pytest.skip("corpus drew equal DFs; direction untestable")
        keep_discriminative = ("xml", "twig") + (
            ("join",) if df_join < df_pattern else ("pattern",)
        )
        keep_common = ("xml", "twig") + (
            ("pattern",) if df_join < df_pattern else ("join",)
        )
        s_disc = similarity_for_type(dblp_index, keep_discriminative, original, t)
        s_comm = similarity_for_type(dblp_index, keep_common, original, t)
        # Guideline 2's IDF factor favours the discriminative keep; the
        # TF factor may disagree, so compare with G1 neutralized.
        s_disc_idf = similarity_for_type(
            dblp_index, keep_discriminative, original, t, use_g1=False
        )
        s_comm_idf = similarity_for_type(
            dblp_index, keep_common, original, t, use_g1=False
        )
        assert s_disc_idf > s_comm_idf

    def test_literal_domain_optional(self, figure1_index):
        rq = ("online", "database")
        original = ("on", "line", "data", "base")
        literal = similarity_for_type(
            figure1_index, rq, original, T_AUTHOR, domain="sym_diff"
        )
        consistent = similarity_for_type(
            figure1_index, rq, original, T_AUTHOR, domain="rq"
        )
        assert literal >= 0 and consistent >= 0

    def test_unknown_domain_rejected(self, figure1_index):
        with pytest.raises(ValueError):
            similarity_for_type(
                figure1_index, ("x",), ("x",), T_AUTHOR, domain="bogus"
            )


class TestFormulas5and6:
    def test_decay_guideline4(self, figure1_index):
        model = full_model()
        search_for = infer_search_for(figure1_index, ["online", "database"])
        near = RefinedQuery(("online", "database"), 1)
        far = RefinedQuery(("online", "database"), 6)
        s_near = model.similarity_score(
            figure1_index, near, ("on", "line"), search_for
        )
        s_far = model.similarity_score(
            figure1_index, far, ("on", "line"), search_for
        )
        assert s_near > s_far
        assert s_far == pytest.approx(s_near * 0.8 ** 5)

    def test_no_search_for_zero(self, figure1_index):
        model = full_model()
        rq = RefinedQuery(("online",), 1)
        assert model.similarity_score(figure1_index, rq, ("x",), []) == 0.0


class TestDependence:
    def test_cooccurring_pair_positive(self, figure1_index):
        assert dependence_for_type(
            figure1_index, ("database", "2003"), T_INPROC
        ) > 0

    def test_single_keyword_zero(self, figure1_index):
        assert dependence_for_type(figure1_index, ("xml",), T_INPROC) == 0.0

    def test_duplicates_collapsed(self, figure1_index):
        assert dependence_for_type(
            figure1_index, ("xml", "xml"), T_INPROC
        ) == 0.0

    def test_cooccurring_beats_disjoint(self, dblp_index):
        t = next(
            t for t in dblp_index.statistics.types()
            if t[-1] == "inproceedings"
        )
        # Same-area terms co-occur in titles; cross-area mostly don't.
        same_area = dependence_for_type(dblp_index, ("machine", "learning"), t)
        cross = dependence_for_type(dblp_index, ("machine", "slca"), t)
        assert same_area > cross


class TestFormula10:
    def test_alpha_beta_weighting(self, figure1_index):
        search_for = infer_search_for(figure1_index, ["online", "database"])
        rq = RefinedQuery(("online", "database"), 2)
        query = ("on", "line", "data", "base")
        sim_only = RankingModel(alpha=1.0, beta=0.0)
        dep_only = RankingModel(alpha=0.0, beta=1.0)
        both = RankingModel(alpha=1.0, beta=1.0)
        s = sim_only.rank(figure1_index, rq, query, search_for)
        d = dep_only.rank(figure1_index, rq, query, search_for)
        b = both.rank(figure1_index, rq, query, search_for)
        assert b == pytest.approx(s + d)

    def test_rank_all_sorted(self, figure1_index):
        search_for = infer_search_for(figure1_index, ["online", "database"])
        model = full_model()
        rqs = [
            RefinedQuery(("online", "database"), 2),
            RefinedQuery(("online",), 4),
            RefinedQuery(("database",), 4),
        ]
        ranked = model.rank_all(
            figure1_index, rqs, ("on", "line", "data", "base"), search_for
        )
        scores = [score for score, _ in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_invalid_decay(self):
        with pytest.raises(ValueError):
            RankingModel(decay=1.0)
        with pytest.raises(ValueError):
            RankingModel(decay=0.0)


class TestVariants:
    def test_rs_variants_differ_from_rs0(self, figure1_index):
        search_for = infer_search_for(figure1_index, ["online", "database"])
        rq = RefinedQuery(("online", "database"), 2)
        query = ("on", "line", "data", "base")
        base = full_model().similarity_score(
            figure1_index, rq, query, search_for
        )
        for i in (1, 2, 4):
            variant = variant_without_guideline(i)
            value = variant.similarity_score(
                figure1_index, rq, query, search_for
            )
            assert value != base, f"RS{i} should change the score"

    def test_rs3_uses_single_type(self, dblp_index):
        search_for = infer_search_for(
            dblp_index, ["database", "query"],
        )
        if len(search_for) < 2:
            pytest.skip("corpus inferred a single search-for type")
        rq = RefinedQuery(("database", "query"), 1)
        rs0 = full_model().similarity_score(
            dblp_index, rq, ("database", "queri"), search_for
        )
        rs3 = variant_without_guideline(3).similarity_score(
            dblp_index, rq, ("database", "queri"), search_for
        )
        assert rs3 != rs0

    def test_invalid_variant_index(self):
        with pytest.raises(ValueError):
            variant_without_guideline(5)


_SCORES_SCRIPT = """
from repro import XRefine
from repro.datasets import generate_dblp
from repro.index.builder import build_document_index
from repro.workload import WorkloadGenerator

index = build_document_index(generate_dblp(num_authors=40, seed=7))
generator = WorkloadGenerator(index, seed=23)
engine = XRefine(index, cache_size=0)
for _ in range(12):
    response = engine.search(generator.refinable_query().query, k=3)
    print([
        (r.rq.keywords, repr(r.rank_score), repr(r.similarity_score))
        for r in response.refinements
    ])
"""


class TestDeterminism:
    def test_scores_are_identical_across_hash_seeds(self):
        """Formula 4 must not add floats in set-iteration order.

        The Guideline-2 domain used to be a ``set`` of keyword strings
        that both scorers summed over, so ranked scores moved in the
        last ulp from one interpreter to the next.  Two interpreters
        with different hash seeds must print the same ``repr()``.
        """
        outputs = []
        for hash_seed in ("101", "202"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
            env["PYTHONPATH"] = os.path.abspath(src)
            result = subprocess.run(
                [sys.executable, "-c", _SCORES_SCRIPT],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.append(result.stdout)
        assert "(" in outputs[0], "no refinement was scored"
        assert outputs[0] == outputs[1]
