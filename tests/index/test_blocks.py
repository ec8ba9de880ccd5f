"""Blocked posting payloads: block-boundary parity and decode-once.

The block geometry must never change an answer.  These tests pin that
down at the awkward geometries: blocks of one posting, lists whose
length divides the block size exactly (an empty-tail trap), ranges
that straddle block boundaries, and binary search over the decoded key
column against the eager one — with the search parity run under both
kernel backends, whose decoders both read these payloads.
"""

from __future__ import annotations

import bisect

import pytest

import repro.kernels.backend as backend_module
from repro import XRefine
from repro.datasets import generate_dblp
from repro.index import (
    append_partition,
    build_document_index,
    freeze_index,
    load_frozen_index,
    load_index_chain,
    save_delta,
)

BLOCK_SIZES = (1, 2, 3, 7)

QUERIES = (
    "query database",
    "index search performance",
    "xml keyword",
    "join stream",
)


@pytest.fixture(params=["active", "pure-python"])
def kernel_backend(request, monkeypatch):
    """Run the test under the active backend, then the pure fallback."""
    if request.param == "pure-python":
        monkeypatch.setattr(backend_module, "compiled", None)
    elif backend_module.compiled is None:
        pytest.skip("compiled backend unavailable on this host")
    return request.param


@pytest.fixture(scope="module")
def eager_index():
    return build_document_index(generate_dblp(num_authors=30, seed=11))


@pytest.fixture(scope="module")
def frozen_paths(tmp_path_factory, eager_index):
    """One frozen snapshot per block size under test."""
    root = tmp_path_factory.mktemp("blocked_sizes")
    paths = {}
    for block_size in BLOCK_SIZES:
        path = root / f"bs{block_size}.frz"
        freeze_index(eager_index, path, block_size=block_size)
        paths[block_size] = path
    return paths


def _multiblock_keywords(index, block_size, minimum=2):
    return [
        keyword
        for keyword in index.inverted.keywords()
        if index.inverted.list_length(keyword) > block_size
    ][: max(minimum, 12)]


class TestListParity:
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_postings_identical_at_every_block_size(
        self, eager_index, frozen_paths, block_size
    ):
        loaded = load_frozen_index(frozen_paths[block_size])
        for keyword in eager_index.inverted.keywords():
            assert list(loaded.inverted_list(keyword)) == list(
                eager_index.inverted_list(keyword)
            ), (keyword, block_size)

    def test_exact_divide_tail(self, eager_index, tmp_path):
        """A list length divisible by the block size has a full tail
        block — the off-by-one trap for the decoders' per-block
        posting count."""
        lengths = {
            keyword: eager_index.inverted.list_length(keyword)
            for keyword in eager_index.inverted.keywords()
        }
        block_size, keyword = next(
            (size, kw)
            for size in (2, 3, 4, 5)
            for kw, length in sorted(lengths.items())
            if length > size and length % size == 0
        )
        path = tmp_path / "exact.frz"
        freeze_index(eager_index, path, block_size=block_size)
        loaded = load_frozen_index(path)
        lazy = loaded.inverted_list(keyword)
        assert lazy.block_count > 1
        assert len(lazy) == lazy.block_count * block_size
        assert list(lazy) == list(eager_index.inverted_list(keyword))

    def test_single_posting_blocks(self, eager_index, frozen_paths):
        loaded = load_frozen_index(frozen_paths[1])
        keyword = max(
            eager_index.inverted.keywords(),
            key=eager_index.inverted.list_length,
        )
        lazy = loaded.inverted_list(keyword)
        assert lazy.block_count == eager_index.inverted.list_length(
            keyword
        )
        assert not lazy.decoded
        assert list(lazy) == list(eager_index.inverted_list(keyword))
        assert lazy.decoded


class TestLazyBinarySearch:
    @pytest.mark.parametrize("block_size", (2, 7))
    def test_bisect_matches_reference(
        self, eager_index, frozen_paths, block_size
    ):
        loaded = load_frozen_index(frozen_paths[block_size])
        for keyword in _multiblock_keywords(eager_index, block_size):
            eager_keys = [
                posting.dewey.components
                for posting in eager_index.inverted_list(keyword)
            ]
            lazy = loaded.inverted_list(keyword)
            assert lazy.block_count > 1
            decoded_keys = lazy.dewey_keys
            probes = list(eager_keys)
            probes += [key + (0,) for key in eager_keys]
            probes += [(), (999,), eager_keys[0][:-1]]
            for probe in probes:
                assert bisect.bisect_left(decoded_keys, probe) == (
                    bisect.bisect_left(eager_keys, probe)
                ), (keyword, probe)
                assert bisect.bisect_right(decoded_keys, probe) == (
                    bisect.bisect_right(eager_keys, probe)
                ), (keyword, probe)

    @pytest.mark.parametrize("block_size", (2, 7))
    def test_range_indices_straddling_blocks(
        self, eager_index, frozen_paths, block_size
    ):
        """Partition ranges that span a block boundary resolve exactly
        as the eager binary search does."""
        from repro.xmltree.dewey import Dewey, descendant_range_key

        loaded = load_frozen_index(frozen_paths[block_size])
        for keyword in _multiblock_keywords(eager_index, block_size):
            eager_keys = [
                posting.dewey.components
                for posting in eager_index.inverted_list(keyword)
            ]
            lazy = loaded.inverted_list(keyword)
            partitions = sorted({key[:2] for key in eager_keys})
            for pid in partitions:
                root = Dewey(pid)
                lo, hi = lazy.range_indices(root)
                assert lo == bisect.bisect_left(eager_keys, root.components)
                assert hi == bisect.bisect_left(
                    eager_keys, descendant_range_key(root)
                )


class TestSearchParity:
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_all_algorithms_all_block_sizes(
        self, eager_index, frozen_paths, block_size, kernel_backend
    ):
        reference = XRefine(eager_index, cache_size=0)
        frozen = XRefine(
            load_frozen_index(frozen_paths[block_size]), cache_size=0
        )
        for algorithm in ("partition", "sle", "stack"):
            for query in QUERIES:
                a = reference.search(query, k=2, algorithm=algorithm)
                b = frozen.search(query, k=2, algorithm=algorithm)
                assert a.needs_refinement == b.needs_refinement, (
                    query, algorithm, block_size,
                )
                assert [r.rq.key for r in a.refinements] == [
                    r.rq.key for r in b.refinements
                ], (query, algorithm, block_size)
                assert a.original_results == b.original_results


class TestMutatedListsStayPaged:
    """A list rewritten by a mutation, or served by a delta layer, opens
    through the same path as a list of the base snapshot: the header at
    open, the whole payload at the first read."""

    BLOCK_SIZE = 4

    @staticmethod
    def assert_paged(index, keyword, partition):
        lst = index.inverted.get(keyword)
        assert lst.block_count > 1
        assert not lst.decoded
        assert len(lst) == index.inverted.list_length(keyword)
        assert not lst.decoded
        lo, hi = lst.range_indices(partition)
        assert lst.decoded
        assert hi - lo >= 1
        return lst

    def test_appended_and_delta_layered_lists_stay_paged(
        self, eager_index, tmp_path
    ):
        base = tmp_path / "base.frz"
        freeze_index(eager_index, base, block_size=self.BLOCK_SIZE)
        loaded = load_frozen_index(base)
        keyword = "ranking"
        before = loaded.inverted.list_length(keyword)
        assert before > 2 * self.BLOCK_SIZE
        node = append_partition(loaded, (
            "author", None, [
                ("name", "paged writer"),
                ("publications", None, [
                    ("inproceedings", None, [("title", "ranking pages")]),
                ]),
            ],
        ))
        partition = node.dewey
        appended = self.assert_paged(loaded, keyword, partition)
        assert len(appended) == before + 1
        assert appended.block_size == self.BLOCK_SIZE
        assert list(appended)[-1].dewey.components[:2] == (
            partition.components
        )

        delta = tmp_path / "base.d1.dlt"
        save_delta(loaded, delta, base)
        chained = load_index_chain(delta)
        layered = self.assert_paged(chained, keyword, partition)
        assert list(layered) == list(appended)
