"""Refinement search never faults the document tree.

Definition 3.3 is decided from the postings' type-id column, so over a
frozen snapshot — whose tree is partition-paged — answering a query
leaves every partition on the mmap: ``loaded_partition_count() == 0``
and the tree's node table exactly as it was at open.  Nor does it build
a single ``Posting``: the routes read the lists' columns.  The tree is
presentation: ``rank_results=True`` and ``engine.node(label)`` fault in
the partitions of the labels they are given, and nothing else.
"""

from __future__ import annotations

import pytest

from repro import XRefine
from repro.index import Posting, freeze_index, load_frozen_index
from repro.workload import WorkloadGenerator


@pytest.fixture(scope="module")
def pool(dblp_index):
    """Refinable and clean queries, three to two (the e2e pool recipe)."""
    generator = WorkloadGenerator(dblp_index, seed=23)
    return [
        list((generator.refinable_query() if position % 5 < 3
              else generator.clean_query()).query)
        for position in range(20)
    ]


@pytest.fixture(scope="module")
def snapshot(dblp_index, tmp_path_factory):
    path = tmp_path_factory.mktemp("no_tree") / "dblp.frz"
    freeze_index(dblp_index, path)
    return path


def labels_of(response):
    labels = list(response.original_results)
    for candidate in response.candidates:
        labels.extend(candidate.slcas)
    return labels


@pytest.mark.parametrize("algorithm", ["auto", "sle", "partition", "stack"])
def test_search_leaves_every_partition_on_the_mmap(
    snapshot, pool, algorithm, monkeypatch
):
    postings_built = []
    init = Posting.__init__

    def counting_init(self, *args):
        postings_built.append(args)
        init(self, *args)

    monkeypatch.setattr(Posting, "__init__", counting_init)
    index = load_frozen_index(snapshot)
    tree = index.tree
    nodes_at_open = len(tree._by_dewey)
    engine = XRefine(index, cache_size=0)
    refined = direct = labels = 0
    for k in (1, 2, 5):
        for query in pool:
            response = engine.search(query, k=k, algorithm=algorithm)
            refined += response.needs_refinement
            direct += not response.needs_refinement
            labels += len(labels_of(response))
    assert refined and direct and labels
    assert postings_built == []
    assert tree.loaded_partition_count() == 0
    assert len(tree._by_dewey) == nodes_at_open
    assert engine.cache_stats()["tree_partitions_loaded"] == 0
    assert engine.cache_stats()["tree_partitions"] == tree.partition_count()


def test_rank_results_faults_the_partitions_it_ranks(snapshot, pool):
    index = load_frozen_index(snapshot)
    tree = index.tree
    engine = XRefine(index, cache_size=0)
    ranked_partitions = set()
    for query in pool:
        response = engine.search(query, k=2, rank_results=True)
        ranked = list(response.original_results)
        for refinement in response.refinements:
            ranked.extend(refinement.slcas)
        ranked_partitions.update(label.components[:2] for label in ranked)
        assert tree.loaded_partition_count() == len(ranked_partitions)
    assert 0 < len(ranked_partitions) < tree.partition_count()


def test_node_lookup_faults_the_partition_it_names(snapshot, pool):
    index = load_frozen_index(snapshot)
    tree = index.tree
    engine = XRefine(index, cache_size=0)
    named = set()
    for query in pool[:8]:
        for label in labels_of(engine.search(query, k=2)):
            assert tree.loaded_partition_count() == len(named)
            assert engine.node(label).dewey == label
            # A partition root is served shallow; deeper nodes need
            # their partition's body.
            if len(label.components) > 2:
                named.add(label.components[:2])
            assert tree.loaded_partition_count() == len(named)
    assert 0 < len(named) < tree.partition_count()
