"""Delta snapshots: chains, merge-on-demand reads, compaction.

A delta file stacks one session's mutations over a base snapshot (or
an earlier delta).  The invariants: a chain-loaded index answers
exactly like a freshly built index of the mutated document; parent
binding refuses a swapped-out base; and compaction folds the whole
chain into a monolithic snapshot byte-identical to refreezing the
chain-loaded index.
"""

from __future__ import annotations

import os
import struct

import pytest

from repro import XRefine, build_document_index
from repro.errors import IndexingError
from repro.index import (
    compact,
    freeze_index,
    load_frozen_index,
    load_index_chain,
    open_index_source,
    resolve_chain,
    save_delta,
)
from repro.index.delta import DELTA_MAGIC, DELTA_VERSION
from repro.storage import SortedKVBlock
from repro.xmltree import parse, serialize

# Every mutation below goes through the checked wrappers: check_tree
# and the posting-side invariant run after each one.
from .consistency import append_partition, check_index, remove_partition

QUERIES = ("database systems", "xml search", "stream joins", "skyline")


def author_spec(name, titles):
    return (
        "author",
        None,
        [
            ("name", name),
            (
                "publications",
                None,
                [("inproceedings", None, [("title", t)]) for t in titles],
            ),
        ],
    )


@pytest.fixture(scope="module")
def chain(tmp_path_factory, figure1_index):
    """``(base, delta1, delta2)`` paths for a two-delta chain."""
    root = tmp_path_factory.mktemp("chain")
    base = root / "base.frz"
    freeze_index(figure1_index, base)

    first = load_frozen_index(base)
    append_partition(first, author_spec("carol", ["stream joins tuning"]))
    delta1 = root / "delta1.dlt"
    save_delta(first, delta1, base)

    second = load_index_chain(delta1)
    append_partition(
        second, author_spec("dave", ["adaptive skyline maintenance"])
    )
    remove_partition(second, second.tree.partitions()[0].dewey)
    delta2 = root / "delta2.dlt"
    save_delta(second, delta2, delta1)
    return base, delta1, delta2


@pytest.fixture()
def chain_index(chain):
    return load_index_chain(chain[2])


@pytest.fixture()
def rebuilt(chain_index):
    """A from-scratch index over the chain's final document."""
    return build_document_index(parse(serialize(chain_index.tree)))


class TestChainResolution:
    def test_resolve_walks_to_the_base(self, chain):
        base, delta1, delta2 = chain
        resolved_base, deltas = resolve_chain(str(delta2))
        assert resolved_base == str(base.resolve())
        assert deltas == [str(delta1.resolve()), str(delta2.resolve())]

    def test_plain_snapshot_resolves_to_itself(self, chain):
        base, _delta1, _delta2 = chain
        resolved_base, deltas = resolve_chain(str(base))
        assert resolved_base == str(base.resolve())
        assert deltas == []

    def test_swapped_parent_is_refused(self, chain, tmp_path):
        """The stored parent-header CRC binds the chain together."""
        base, delta1, _delta2 = chain
        imposter_index = build_document_index(
            parse("<bib><author><name>eve</name></author></bib>")
        )
        fake_base = tmp_path / base.name
        freeze_index(imposter_index, fake_base)
        moved = tmp_path / delta1.name
        moved.write_bytes(delta1.read_bytes())
        with pytest.raises(IndexingError, match="parent"):
            resolve_chain(str(moved))

    def test_older_delta_version_is_refused(self, chain, tmp_path):
        """A delta of an earlier layout names the rebuild, not a crash."""
        base, delta1, _delta2 = chain
        old = tmp_path / delta1.name
        blob = bytearray(delta1.read_bytes())
        struct.pack_into("<H", blob, len(DELTA_MAGIC), DELTA_VERSION - 1)
        old.write_bytes(bytes(blob))
        (tmp_path / base.name).write_bytes(base.read_bytes())
        with pytest.raises(IndexingError) as err:
            load_index_chain(str(old))
        message = str(err.value)
        assert f"format version {DELTA_VERSION - 1};" in message
        assert f"only version {DELTA_VERSION}" in message
        assert "repro index" in message


class TestChainAnswers:
    def test_postings_match_rebuild(self, chain_index, rebuilt):
        assert chain_index.inverted.keywords() == (
            rebuilt.inverted.keywords()
        )
        for keyword in rebuilt.inverted.keywords():
            assert chain_index.inverted.list_length(keyword) == (
                rebuilt.inverted.list_length(keyword)
            ), keyword

    def test_statistics_match_rebuild(self, chain_index, rebuilt):
        for node_type, stats in rebuilt.statistics.items():
            assert chain_index.node_count(node_type) == stats.node_count

    def test_replayed_tree_and_merged_postings_are_consistent(
        self, chain, chain_index, tmp_path
    ):
        """A chain load mutates too: it replays the tree log over the
        base and serves postings merged across layers."""
        check_index(chain_index)
        compacted = tmp_path / "compacted.frz"
        compact(str(chain[2]), str(compacted))
        check_index(load_frozen_index(compacted))

    def test_search_matches_rebuild(self, chain_index, rebuilt):
        over_chain = XRefine(chain_index, cache_size=0)
        reference = XRefine(rebuilt, cache_size=0)
        for query in QUERIES:
            a = over_chain.search(query, k=2)
            b = reference.search(query, k=2)
            assert a.needs_refinement == b.needs_refinement, query
            assert [r.rq.key for r in a.refinements] == [
                r.rq.key for r in b.refinements
            ], query

    def test_untouched_base_lists_stay_lazy(self, chain, chain_index):
        """Posting payloads no delta touched still serve through the
        base's payloads, opened lazily (no eager merge)."""
        tree = chain_index.tree
        loaded_before = getattr(
            tree, "loaded_partition_count", lambda: None
        )()
        if loaded_before is None:
            pytest.skip("chain tree is not paged on this build")
        assert chain_index.has_keyword("skyline")


class TestChainOpenIsLazy:
    def test_no_whole_section_sweep_until_the_count_is_asked_for(
        self, chain, rebuilt, monkeypatch
    ):
        """Opening a chain and answering a query merge no keyed section.

        The stacked key count is the one number that needs a full k-way
        merge of a section; it is computed on the first ``len()``, not
        at open (where every ``/reload`` of a ``.dlt`` would pay it).
        """
        swept = []

        def spy(name):
            original = getattr(SortedKVBlock, name)

            def whole_section(self):
                swept.append(self)
                return original(self)

            monkeypatch.setattr(SortedKVBlock, name, whole_section)

        spy("keys")
        spy("items")
        original_range = SortedKVBlock.range

        def range_spy(self, low=None, high=None):
            if low is None and high is None:
                swept.append(self)
            return original_range(self, low, high)

        monkeypatch.setattr(SortedKVBlock, "range", range_spy)

        index = load_index_chain(chain[2])
        opened = len(swept)
        # The engine's one legitimate vocabulary sweep (its miner reads
        # the vocabulary) is left out, so what remains is open + query.
        engine = XRefine(index, cache_size=0)
        del swept[opened:]
        assert engine.search("stream joins", k=2).refinements is not None

        stacks = (index.inverted._store._base, index.frequency._store._base)
        keyed = [stack._bottom for stack in stacks] + [
            puts for stack in stacks for puts, _deleted in stack._layers
        ]
        assert len(keyed) == 6
        assert not [b for b in swept if any(b is k for k in keyed)]

        assert index.inverted.vocabulary_size() == (
            rebuilt.inverted.vocabulary_size()
        )
        assert any(b is stacks[0]._bottom for b in swept)


class TestCompaction:
    def test_compact_matches_refreeze(self, chain, chain_index, tmp_path):
        compacted = tmp_path / "compacted.frz"
        layers = compact(str(chain[2]), str(compacted))
        assert layers >= 2
        refrozen = tmp_path / "refrozen.frz"
        freeze_index(load_index_chain(chain[2]), refrozen)
        assert compacted.read_bytes() == refrozen.read_bytes()

    def test_compacting_a_plain_snapshot_rewrites_its_bytes(
        self, figure1_index, tmp_path
    ):
        """A snapshot folds to itself: every payload is copied as
        stored, a function of its postings alone."""
        direct = tmp_path / "direct.frz"
        freeze_index(figure1_index, direct)
        refolded = tmp_path / "refolded.frz"
        assert compact(str(direct), str(refolded)) == 0
        assert refolded.read_bytes() == direct.read_bytes()

    def test_compacted_answers_match_chain(self, chain, tmp_path):
        compacted = tmp_path / "compacted.frz"
        compact(str(chain[2]), str(compacted))
        mono = XRefine(load_frozen_index(compacted), cache_size=0)
        over_chain = XRefine(load_index_chain(chain[2]), cache_size=0)
        for query in QUERIES:
            a = mono.search(query, k=2)
            b = over_chain.search(query, k=2)
            assert [r.rq.key for r in a.refinements] == [
                r.rq.key for r in b.refinements
            ], query


class TestOpenIndexSource:
    def test_dispatches_on_content(self, chain, tmp_path, figure1_index):
        base, _delta1, delta2 = chain
        from_base = open_index_source(str(base))
        from_chain = open_index_source(str(delta2))
        assert from_base.inverted.keywords()
        assert "skyline" in from_chain.inverted.keywords()

    def test_directory_is_refused_with_a_typed_error(self, tmp_path):
        """The index-directory format is gone; say so, and what to do."""
        (tmp_path / "corpus.idx").mkdir()
        (tmp_path / "corpus.idx" / "document.xml").write_text("<a/>")
        with pytest.raises(IndexingError) as err:
            open_index_source(str(tmp_path / "corpus.idx"))
        assert "is a directory" in str(err.value)
        assert "repro index" in str(err.value)

    def test_xml_fallback(self, tmp_path):
        doc = tmp_path / "doc.xml"
        doc.write_text(
            "<bib><author><name>zoe</name></author></bib>",
            encoding="utf-8",
        )
        index = open_index_source(str(doc))
        assert index.has_keyword("zoe")


class TestSaveDeltaNeedsALoadedIndex:
    def test_built_index_is_refused(self, tmp_path, figure1_tree):
        """A built index has the same store class as a loaded one but no
        mutation log and no parent: the guard is the log, not the type."""
        base = tmp_path / "base.frz"
        built = build_document_index(parse(serialize(figure1_tree)))
        freeze_index(built, base)
        with pytest.raises(IndexingError, match="loaded from a frozen"):
            save_delta(built, tmp_path / "bad.dlt", base)
        assert not (tmp_path / "bad.dlt").exists()


class TestCrashSafety:
    """A failed save leaves no debris and never harms the file in place.

    ``freeze_index`` and ``save_delta`` share one writer (temp file,
    fsync, atomic rename); both entry points are held to it.
    """

    @pytest.fixture()
    def saved(self, tmp_path, figure1_tree):
        """A ``.frz``, a ``.dlt`` on it, and an index to overwrite with."""
        base = tmp_path / "base.frz"
        freeze_index(
            build_document_index(parse(serialize(figure1_tree))), base
        )
        index = load_frozen_index(base)
        append_partition(index, author_spec("carol", ["stream joins"]))
        delta = tmp_path / "delta.dlt"
        save_delta(index, delta, base)
        append_partition(index, author_spec("dave", ["doomed words"]))
        return base, delta, index

    @pytest.mark.parametrize("broken", ["replace", "fsync"])
    @pytest.mark.parametrize("target", ["existing", "new"])
    @pytest.mark.parametrize("kind", ["frz", "dlt"])
    def test_failed_save_changes_nothing_on_disk(
        self, saved, tmp_path, monkeypatch, kind, target, broken
    ):
        base, delta, index = saved
        path = {"frz": base, "dlt": delta}[kind]
        if target == "new":
            path = tmp_path / f"new.{kind}"
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def boom(*args, **kwargs):
            raise OSError("disk full (simulated)")

        monkeypatch.setattr(os, broken, boom)
        with pytest.raises(OSError, match="simulated"):
            if kind == "frz":
                freeze_index(index, path)
            else:
                save_delta(index, path, base)
        monkeypatch.undo()

        # No ``*.tmp*`` sibling, no half-written target, old bytes intact.
        assert {
            p.name: p.read_bytes() for p in tmp_path.iterdir()
        } == before
        # Both pre-existing files still open and answer.
        survivor = load_index_chain(delta)
        assert survivor.has_keyword("carol")
        assert not survivor.has_keyword("doomed")
