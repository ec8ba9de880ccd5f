"""The oracle must pass on healthy code and catch planted faults."""

import glob
import json
import os
from array import array

import repro.verify.oracle as oracle_module
from repro.slca.meaningful import NEVER_MEANINGFUL as _NEVER
from repro.verify.oracle import TABLE, DocumentOracle, select
from repro.verify.runner import CHECKS_PER_QUERY, _kind_predicate, verify_diff
from repro.verify.shrink import shrink_divergence

SPEC = (
    "root",
    None,
    [
        ("item", "xml database", [("a", "query index", [])]),
        ("item", "xml", [("b", "database", [])]),
        ("c", "tree web data", []),
    ],
)


def check(query, group=""):
    """Divergences of the rows in ``group`` ("" = every row) on SPEC."""
    return DocumentOracle(SPEC).check(query, select(group) if group else None)


class TestHealthyOracle:
    def test_no_divergences_on_hit_query(self):
        assert check(("xml", "database")) == []

    def test_no_divergences_on_typo_query(self):
        assert check(("xml", "databse")) == []

    def test_no_divergences_on_absent_term(self):
        assert check(("zzzq",)) == []

    def test_invariants_clean(self):
        assert check(("xml", "database"), "invariant") == []

    def test_empty_query_is_skipped(self):
        assert check(("", "  ")) == []


class TestTable:
    def test_row_kinds_are_unique(self):
        kinds = [row.kind for row in TABLE]
        assert len(kinds) == len(set(kinds))

    def test_checks_per_query_is_the_table(self):
        assert CHECKS_PER_QUERY == len(TABLE)
        report = verify_diff(seeds=1, queries_per_doc=1, shrink=False)
        assert f"({len(TABLE)} per query)" in report.summary()

    def test_every_fixture_kind_is_a_row(self):
        kinds = {row.kind for row in TABLE}
        pattern = os.path.join(os.path.dirname(__file__), "fixtures", "*.json")
        paths = glob.glob(pattern)
        assert paths
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                assert json.load(handle)["kind"] in kinds, path

    def test_select_picks_a_group_or_one_kind(self):
        assert {row.kind for row in select("slca:scan:cold")} == {
            "slca:scan:cold"
        }
        assert select("kernel") and all(
            row.kind.startswith("kernel:") for row in select("kernel")
        )


class TestPlantedFaults:
    def test_slca_fault_detected(self, monkeypatch):
        # Plant: the "scan" variant silently drops its last answer.
        real = oracle_module.SLCA_VARIANTS["scan"]
        monkeypatch.setitem(
            oracle_module.SLCA_VARIANTS, "scan",
            lambda lists: real(lists)[:-1],
        )
        kinds = {d.kind for d in check(("xml", "database"), "slca")}
        assert "slca:scan:cold" in kinds
        # The other variants stay clean: the diff localizes the fault.
        assert not any(k.startswith("slca:stack") for k in kinds)

    def test_refinement_fault_detected(self, monkeypatch):
        # Plant: Algorithm 2 drops its lowest-ranked refined query.
        real = oracle_module.partition_refine

        def faulty(index, terms, **kwargs):
            response = real(index, terms, **kwargs)
            if response.refinements:
                del response.refinements[-1]
            return response

        monkeypatch.setattr(oracle_module, "partition_refine", faulty)
        divergences = check(("xml", "databse"), "refine")
        assert "refine:partition-vs-sle" in {d.kind for d in divergences}

    def test_route_disagreement_reports_algorithm_2s_value(
        self, monkeypatch
    ):
        # Plant: stack-refine flips its flag and loses its candidates.
        real = oracle_module.stack_refine

        def faulty(index, terms, **kwargs):
            response = real(index, terms, **kwargs)
            response.needs_refinement = not response.needs_refinement
            return response

        monkeypatch.setattr(oracle_module, "stack_refine", faulty)
        (flag,) = check(("xml", "databse"), "refine:needs-flag")
        assert flag.expected != flag.actual
        assert flag.expected == {"stack": True}
        assert flag.actual == {"stack": False}

        def emptied(index, terms, **kwargs):
            response = real(index, terms, **kwargs)
            response.candidates = []
            return response

        monkeypatch.setattr(oracle_module, "stack_refine", emptied)
        (dsim,) = check(("xml", "databse"), "refine:optimal-dsim")
        assert dsim.expected != dsim.actual
        assert dsim.actual == {"stack": None}
        assert set(dsim.expected) == {"stack"}
        assert dsim.expected["stack"] is not None

    def test_type_column_fault_detected(self, monkeypatch):
        # Plant: a context whose per-type depth table admits nothing.
        class Faulty(oracle_module.QueryContext):
            def __init__(self, index, query, rules):
                super().__init__(index, query, rules)
                self.need = array("q", [_NEVER] * len(self.need))

        monkeypatch.setattr(oracle_module, "QueryContext", Faulty)
        oracle = DocumentOracle(SPEC)
        assert [name for name, _ in oracle.column_views] == [
            "built", "frozen", "updated", "chain",
        ]
        found = oracle.check(("xml", "database"), select("kernel"))
        kinds = {d.kind for d in found}
        assert kinds == {"kernel:meaningful-column"}

    def test_wire_label_fault_detected(self, monkeypatch):
        # Plant: the record renderer drops each list's last label.  Only
        # responses whose results are still records reach it.
        from repro.kernels import HitRecord

        real = HitRecord.labels
        monkeypatch.setattr(HitRecord, "labels", lambda self: real(self)[:-1])
        kinds = {d.kind for d in check(("xml", "database"), "wire")}
        assert kinds == {"wire:labels"}

    def test_divergence_carries_repro_context(self, monkeypatch):
        real = oracle_module.SLCA_VARIANTS["scan"]
        monkeypatch.setitem(
            oracle_module.SLCA_VARIANTS, "scan",
            lambda lists: real(lists)[:-1],
        )
        (divergence, *_) = check(("xml", "database"), "slca")
        # Everything the shrinker needs to reproduce the failure.
        assert divergence.spec == SPEC
        assert divergence.query == ("xml", "database")
        assert divergence.expected != divergence.actual
        assert "scan" in divergence.describe()


class TestShrinkPredicate:
    def test_shrinks_running_only_the_diverged_row(self, monkeypatch):
        # The planted scan fault, shrunk through the runner's predicate:
        # no evaluation may build the frozen snapshot or the delta chain.
        real = oracle_module.SLCA_VARIANTS["scan"]
        monkeypatch.setitem(
            oracle_module.SLCA_VARIANTS, "scan",
            lambda lists: real(lists)[:-1],
        )
        freezes = []
        freeze = oracle_module.freeze_index
        monkeypatch.setattr(
            oracle_module, "freeze_index",
            lambda *args: freezes.append(args) or freeze(*args),
        )
        evaluations = []
        predicate = _kind_predicate("slca:scan:cold", 2)

        def counted(spec, query):
            evaluations.append(query)
            return predicate(spec, query)

        spec, query = shrink_divergence(SPEC, ("xml", "database"), counted)
        assert len(evaluations) > 1
        assert freezes == []
        found = DocumentOracle(spec).check(query, select("slca:scan:cold"))
        assert [d.kind for d in found] == ["slca:scan:cold"]


class TestChainLayer:
    def test_chain_state_builds_for_multi_partition_docs(self):
        oracle = DocumentOracle(SPEC)
        assert oracle.chain_state is not None
        assert oracle.check(("xml", "database"), select("chain")) == []

    def test_single_partition_docs_are_skipped(self):
        oracle = DocumentOracle(
            ("root", None, [("only", "xml database", [])])
        )
        assert oracle.chain_state is None
        assert oracle.check(("xml",), select("chain")) == []

    def test_compaction_mismatch_reported_once(self):
        oracle = DocumentOracle(SPEC)
        chain_engine, _ = oracle.chain_state
        oracle._chain_state = (chain_engine, False)
        first = oracle.check(("xml", "database"), select("chain"))
        assert "chain:compaction" in {d.kind for d in first}
        again = oracle.check(("xml", "database"), select("chain"))
        assert "chain:compaction" not in {d.kind for d in again}


class TestFrozenLayer:
    def test_frozen_posting_fault_detected(self):
        oracle = DocumentOracle(SPEC)
        frozen_engine = oracle.frozen_engine
        # Plant: the frozen view serves a truncated posting list.
        term = "xml"
        lists = frozen_engine.index.inverted
        real = lists.get

        class Truncated:
            def __init__(self, source):
                self._source = source

            def labels(self):
                return self._source.labels()[:-1]

            def __len__(self):
                return len(self._source)

            def __getattr__(self, name):
                return getattr(self._source, name)

        class Faulty:
            def get(self, keyword):
                found = real(keyword)
                return Truncated(found) if keyword == term else found

            def __getattr__(self, name):
                return getattr(lists, name)

        frozen_engine.index.inverted = Faulty()
        try:
            divergences = oracle.check(("xml", "database"), select("frozen"))
        finally:
            frozen_engine.index.inverted = lists
        assert "frozen:postings" in {d.kind for d in divergences}
