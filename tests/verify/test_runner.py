"""Smoke tests for the verify-diff sweep driver and its CLI entry."""

import io

from repro.cli import main
from repro.verify.generate import DocumentGenerator, QueryGenerator
from repro.verify.oracle import TABLE, Divergence, DocumentOracle, QueryMemo
from repro.verify.runner import CHECKS_PER_QUERY, VerifyReport, verify_diff


class TestVerifyDiff:
    def test_small_sweep_is_clean(self):
        report = verify_diff(seeds=3, queries_per_doc=2)
        assert report.ok
        assert report.seeds == 3
        assert report.documents == 3
        assert report.queries == 6
        assert report.checks > 0
        assert "OK" in report.summary()

    def test_counts_the_comparisons_made_not_the_rows_tried(self):
        # Rows that do not apply to a query (an absent term, a document
        # with one partition, ...) compare nothing and are not counted.
        report = verify_diff(seeds=4, base_seed=0, shrink=False)
        assert report.queries == 16
        assert report.checks == 16 * CHECKS_PER_QUERY == 784
        assert report.compared == 698
        assert "698 comparisons made of 784 rows tried" in report.summary()

    def test_compared_is_the_rows_whose_pair_applied(self):
        spec = DocumentGenerator(0).spec()
        oracle = DocumentOracle(spec)
        vocabulary = list(oracle.index.inverted.keywords())
        queries = QueryGenerator(0, vocabulary).queries(4)
        applied = 0
        for query in queries:
            memo = QueryMemo(oracle, query)
            if memo.terms:
                applied += sum(row.pair(memo) is not None for row in TABLE)
        assert oracle.compared == 0
        for query in queries:
            oracle.check(query)
        assert oracle.compared == applied < len(queries) * len(TABLE)

    def test_sweep_is_deterministic(self):
        first = verify_diff(seeds=2, queries_per_doc=2)
        second = verify_diff(seeds=2, queries_per_doc=2)
        assert first.ok == second.ok
        assert first.queries == second.queries

    def test_report_flags_divergences(self):
        report = VerifyReport()
        assert report.ok
        report.divergences.append(
            Divergence("demo:kind", "detail", ("root", None, []),
                       ("q",), 1, 2)
        )
        assert not report.ok
        assert "DIVERGED" in report.summary()
        assert "demo:kind" in report.summary()


class TestVerifyDiffCli:
    def test_cli_smoke(self):
        out = io.StringIO()
        code = main(["verify-diff", "--seeds", "2", "--queries", "2"],
                    out=out)
        assert code == 0
        assert "verify-diff: OK" in out.getvalue()

    def test_cli_no_shrink_flag(self):
        out = io.StringIO()
        code = main(
            ["verify-diff", "--seeds", "1", "--no-shrink"], out=out
        )
        assert code == 0
