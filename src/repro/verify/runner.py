"""Seed-sweep driver for the differential harness.

``verify_diff(seeds=N)`` replays N seeded (document, queries) batches
through the full oracle + metamorphic invariant suite, shrinks the
first divergence of each kind with the delta-debugging reducer, and
(optionally) writes the reduced fixtures to disk for committing as
regression tests.  The CLI entry ``python -m repro verify-diff`` and
the fixed-seed CI smoke job are thin wrappers over this function.
"""

from __future__ import annotations

import time

from .generate import DocumentGenerator, QueryGenerator
from .invariants import check_invariants
from .oracle import DocumentOracle
from .shrink import shrink_divergence, write_fixture

#: Queries evaluated per generated document.
DEFAULT_QUERIES_PER_DOC = 4
#: Divergence kinds shrunk+written per run (keeps worst case bounded).
MAX_SHRINKS = 8
#: Comparisons each query is counted for (see ``_check_document``);
#: moves only when a layer is added to or removed from the oracle.
CHECKS_PER_QUERY = 42


class VerifyReport:
    """Outcome of one ``verify_diff`` sweep."""

    __slots__ = (
        "seeds",
        "documents",
        "queries",
        "checks",
        "divergences",
        "fixtures",
        "elapsed_seconds",
    )

    def __init__(self):
        self.seeds = 0
        self.documents = 0
        self.queries = 0
        self.checks = 0
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
            f"{self.checks} comparisons ({CHECKS_PER_QUERY} per query) "
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
        divergences = oracle.check_query(query)
        divergences += check_invariants(oracle, query)
        # Each query exercises every SLCA variant on plain label
        # lists, the engine's SLCA search cold and warm, the ELCA
        # adjacency laws, the three refinement algorithms x
        # {cold, warm}, the skip ablation, the five
        # metamorphic invariants, the default-algorithm layer (auto
        # cold/warm), the frozen-snapshot layer (posting lists, SLCA,
        # four refinement algorithms), the kernel layer (batch SLCA,
        # emit-filtered partition SLCA, LCP table, partition view,
        # presence bound vs per-node recomputation, the type-id
        # column's Definition 3.3 verdicts vs the tree's, SLE's answer
        # and counters compiled vs pure-Python, the posting codec's bytes
        # and arrays compiled vs pure-Python), the wire layer (the
        # labels encode_response sends vs str() of the Dewey lists),
        # and the cache layer (the query and each of its refinements
        # re-issued through sub-result assembly and diffed against a
        # cache-disabled engine — counted at its one-comparison
        # floor; refinable queries contribute several more).
        report.checks += CHECKS_PER_QUERY
        found.extend(divergences)
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
    """Does ``(spec, query)`` still show a divergence of ``kind``?"""

    def predicate(spec, query):
        oracle = DocumentOracle(spec, k=k)
        found = oracle.check_query(query)
        found += check_invariants(oracle, query)
        return any(d.kind == kind for d in found)

    return predicate


def replay_fixture(spec, query, k=2):
    """Re-run the full check suite on a committed fixture pair.

    Returns the divergence list — empty on a healthy build.  The
    regression tests in ``tests/verify/test_fixtures.py`` assert
    emptiness for every committed fixture.
    """
    oracle = DocumentOracle(spec, k=k)
    return oracle.check_query(query) + check_invariants(oracle, query)
