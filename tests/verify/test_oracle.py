"""The oracle must pass on healthy code and catch planted faults."""

from array import array

import repro.verify.oracle as oracle_module
from repro.slca.meaningful import NEVER_MEANINGFUL as _NEVER
from repro.verify.invariants import check_invariants
from repro.verify.oracle import DocumentOracle, run_oracle

SPEC = (
    "root",
    None,
    [
        ("item", "xml database", [("a", "query index", [])]),
        ("item", "xml", [("b", "database", [])]),
        ("c", "tree web data", []),
    ],
)


class TestHealthyOracle:
    def test_no_divergences_on_hit_query(self):
        assert run_oracle(SPEC, ("xml", "database")) == []

    def test_no_divergences_on_typo_query(self):
        assert run_oracle(SPEC, ("xml", "databse")) == []

    def test_no_divergences_on_absent_term(self):
        assert run_oracle(SPEC, ("zzzq",)) == []

    def test_invariants_clean(self):
        oracle = DocumentOracle(SPEC)
        assert check_invariants(oracle, ("xml", "database")) == []

    def test_empty_query_is_skipped(self):
        assert run_oracle(SPEC, ("", "  ")) == []


class TestPlantedFaults:
    def test_slca_fault_detected(self, monkeypatch):
        # Plant: the "scan" variant silently drops its last answer.
        real = oracle_module.SLCA_VARIANTS["scan"]
        monkeypatch.setitem(
            oracle_module.SLCA_VARIANTS, "scan",
            lambda lists: real(lists)[:-1],
        )
        oracle = DocumentOracle(SPEC)
        divergences = oracle.check_slca(("xml", "database"))
        kinds = {d.kind for d in divergences}
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
        oracle = DocumentOracle(SPEC)
        divergences = oracle.check_refinement(("xml", "databse"))
        assert "refine:partition-vs-sle" in {d.kind for d in divergences}

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
        kinds = {d.kind for d in oracle.check_kernels(("xml", "database"))}
        assert kinds == {"kernel:meaningful-column"}

    def test_wire_label_fault_detected(self, monkeypatch):
        # Plant: the record renderer drops each list's last label.  Only
        # responses whose results are still records reach it.
        from repro.kernels import HitRecord

        real = HitRecord.labels
        monkeypatch.setattr(HitRecord, "labels", lambda self: real(self)[:-1])
        oracle = DocumentOracle(SPEC)
        kinds = {d.kind for d in oracle.check_wire(("xml", "database"))}
        assert kinds == {"wire:labels"}

    def test_divergence_carries_repro_context(self, monkeypatch):
        real = oracle_module.SLCA_VARIANTS["indexed"]
        monkeypatch.setitem(
            oracle_module.SLCA_VARIANTS, "indexed",
            lambda lists: real(lists)[:-1],
        )
        (divergence, *_) = DocumentOracle(SPEC).check_slca(
            ("xml", "database")
        )
        # Everything the shrinker needs to reproduce the failure.
        assert divergence.spec == SPEC
        assert divergence.query == ("xml", "database")
        assert divergence.expected != divergence.actual
        assert "indexed" in divergence.describe()


class TestChainLayer:
    def test_chain_state_builds_for_multi_partition_docs(self):
        oracle = DocumentOracle(SPEC)
        assert oracle.chain_state is not None
        assert oracle.check_chain(("xml", "database")) == []

    def test_single_partition_docs_are_skipped(self):
        oracle = DocumentOracle(
            ("root", None, [("only", "xml database", [])])
        )
        assert oracle.chain_state is None
        assert oracle.check_chain(("xml",)) == []

    def test_compaction_mismatch_reported_once(self):
        oracle = DocumentOracle(SPEC)
        chain_engine, _ = oracle.chain_state
        oracle._chain_state = (chain_engine, False)
        first = oracle.check_chain(("xml", "database"))
        assert "chain:compaction" in {d.kind for d in first}
        again = oracle.check_chain(("xml", "database"))
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
            divergences = oracle.check_frozen(("xml", "database"))
        finally:
            frozen_engine.index.inverted = lists
        assert "frozen:postings" in {d.kind for d in divergences}
