"""Seed-sweep driver for the differential harness.

``verify_diff(seeds=N)`` replays N seeded (document, queries) batches
through every row of the oracle's table, shrinks the first divergence
of each kind with the delta-debugging reducer, and (optionally) writes
the reduced fixtures to disk for committing as regression tests.  The
CLI entry ``python -m repro verify-diff`` and the fixed-seed CI smoke
job are thin wrappers over this function.
"""

from __future__ import annotations

import time

from .generate import DocumentGenerator, QueryGenerator
from .oracle import TABLE, DocumentOracle, select
from .shrink import shrink_divergence, write_fixture

#: Queries evaluated per generated document.
DEFAULT_QUERIES_PER_DOC = 4
#: Divergence kinds shrunk+written per run (keeps worst case bounded).
MAX_SHRINKS = 8
#: Rows each query is tried against: every row of the table.  A row
#: that does not apply to a query (its ``pair`` is ``None``) compares
#: nothing, so fewer comparisons are made than rows are tried.
CHECKS_PER_QUERY = len(TABLE)


class VerifyReport:
    """Outcome of one ``verify_diff`` sweep."""

    __slots__ = (
        "seeds",
        "documents",
        "queries",
        "checks",
        "compared",
        "divergences",
        "fixtures",
        "elapsed_seconds",
    )

    def __init__(self):
        self.seeds = 0
        self.documents = 0
        self.queries = 0
        #: Rows tried: ``CHECKS_PER_QUERY`` for every query.
        self.checks = 0
        #: Comparisons made: the tried rows that applied.
        self.compared = 0
        self.divergences = []
        self.fixtures = []
        self.elapsed_seconds = 0.0

    @property
    def ok(self):
        return not self.divergences

    def summary(self):
        status = "OK" if self.ok else "DIVERGED"
        lines = [
            f"verify-diff: {status} — {self.seeds} seeds, "
            f"{self.documents} documents, {self.queries} queries, "
            f"{self.compared} comparisons made of {self.checks} rows "
            f"tried ({CHECKS_PER_QUERY} per query) "
            f"in {self.elapsed_seconds:.1f}s"
        ]
        kinds = {}
        for divergence in self.divergences:
            kinds.setdefault(divergence.kind, []).append(divergence)
        for kind in sorted(kinds):
            lines.append(f"  {kind}: {len(kinds[kind])} divergence(s)")
        for name in self.fixtures:
            lines.append(f"  fixture written: {name}")
        return "\n".join(lines)


def _check_document(oracle, queries, report):
    found = []
    for query in queries:
        report.queries += 1
        report.checks += CHECKS_PER_QUERY
        found.extend(oracle.check(query))
    report.compared += oracle.compared
    return found


def verify_diff(seeds=50, base_seed=0, k=2, queries_per_doc=DEFAULT_QUERIES_PER_DOC,
                shrink=True, fixtures_dir=None, out=None):
    """Run the harness over ``seeds`` seeded batches; returns a report.

    Parameters
    ----------
    seeds, base_seed:
        Seeds ``base_seed .. base_seed + seeds - 1`` are swept; a CI
        job pins both for reproducibility.
    k:
        Top-K requested from the refinement algorithms.
    queries_per_doc:
        Random queries evaluated against each generated document.
    shrink:
        Delta-debug the first divergence of each kind down to a
        minimal (document, query) pair.
    fixtures_dir:
        When set (and ``shrink``), reduced fixtures are written here.
    out:
        Optional callable for progress lines (e.g. ``print``).
    """
    report = VerifyReport()
    started = time.perf_counter()
    shrunk_kinds = set()

    for offset in range(seeds):
        seed = base_seed + offset
        report.seeds += 1
        generator = DocumentGenerator(seed)
        spec = generator.spec()
        oracle = DocumentOracle(spec, k=k)
        report.documents += 1
        vocabulary = list(oracle.index.inverted.keywords())
        queries = QueryGenerator(seed, vocabulary).queries(queries_per_doc)
        divergences = _check_document(oracle, queries, report)
        report.divergences.extend(divergences)

        for divergence in divergences:
            if not shrink or divergence.kind in shrunk_kinds:
                continue
            if len(shrunk_kinds) >= MAX_SHRINKS:
                break
            shrunk_kinds.add(divergence.kind)
            if out:
                out(f"shrinking {divergence.kind} (seed {seed}) ...")
            reduced_spec, reduced_query = shrink_divergence(
                divergence.spec,
                divergence.query,
                _kind_predicate(divergence.kind, k),
            )
            divergence.spec = reduced_spec
            divergence.query = reduced_query
            if fixtures_dir:
                name = write_fixture(
                    fixtures_dir,
                    divergence.kind,
                    reduced_spec,
                    reduced_query,
                    detail=divergence.detail,
                )
                report.fixtures.append(name)
                if out:
                    out(f"  wrote fixture {name}")
        if out and (offset + 1) % 25 == 0:
            out(
                f"... {offset + 1}/{seeds} seeds, "
                f"{len(report.divergences)} divergence(s)"
            )

    report.elapsed_seconds = time.perf_counter() - started
    return report


def _kind_predicate(kind, k):
    """Does ``(spec, query)`` still show a divergence of ``kind``?

    Only that kind's row runs, so no other layer (a freeze, a delta
    chain) is built for each of the shrinker's evaluations.
    """

    def predicate(spec, query):
        found = DocumentOracle(spec, k=k).check(query, select(kind))
        return any(d.kind == kind for d in found)

    return predicate


def replay_fixture(spec, query, k=2):
    """Re-run every row on a committed fixture pair.

    Returns the divergence list — empty on a healthy build.  The
    regression tests in ``tests/verify/test_fixtures.py`` assert
    emptiness for every committed fixture.
    """
    return DocumentOracle(spec, k=k).check(query)
