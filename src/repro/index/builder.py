"""One-pass index construction (Section VII).

:func:`build_document_index` walks the parsed tree once, in document
order, and produces everything the search engine needs:

* the keyword inverted lists (:class:`~repro.index.inverted.InvertedIndex`);
* the frequent table ``f_k^T`` / ``tf(k,T)``
  (:class:`~repro.index.frequency.FrequencyTable`);
* the per-type statistics ``N_T`` / ``G_T`` / depth
  (:class:`~repro.index.statistics.StatisticsTable`);
* the (lazy) co-occurrence table
  (:class:`~repro.index.cooccur.CooccurrenceTable`).

``f_k^T`` counts *distinct* T-typed nodes containing ``k``.  Because a
pre-order walk visits all nodes of one T-typed subtree contiguously,
the pass (:func:`subtree_contribution`) needs only the last-counted
T-ancestor per (keyword, type) — no per-subtree keyword sets — making
it O(occurrences x depth).
"""

from __future__ import annotations

from collections import Counter

from ..perf.stats_cache import SearchForCache
from .cooccur import CooccurrenceTable
from .frequency import FrequencyTable
from .inverted import InvertedIndex
from .statistics import StatisticsTable
from .tokenize_text import node_keywords


class DocumentIndex:
    """The full index bundle for one document."""

    def __init__(self, tree, inverted, frequency, statistics, cooccurrence):
        self.tree = tree
        self.inverted = inverted
        self.frequency = frequency
        self.statistics = statistics
        self.cooccurrence = cooccurrence
        #: Monotonic content version.  Bumped by every index update so
        #: that engine-level caches (query results, packed lists) can
        #: detect staleness with one integer comparison.
        self.version = 0
        #: Memoized Formula-1 search-for inference (repro.perf).
        self.search_for_cache = SearchForCache(self)
        #: The ranking model's Formula 2-9 statistics memo
        #: (repro.core.ranking.memo), built on the first score.
        self.score_memo = None

    def freeze(self, path):
        """Write this index as a frozen single-file snapshot.

        See :mod:`repro.index.frozen`; reopen with
        :func:`repro.index.load_frozen_index`.
        """
        from .frozen import freeze_index

        return freeze_index(self, path)

    def invalidate_caches(self):
        """Bump the version and drop every derived-statistics cache.

        The single entry point index mutations must call; anything
        keyed on the old version (engine result caches) self-evicts on
        its next read.
        """
        self.version += 1
        self.frequency.clear_memo()
        self.search_for_cache.clear()
        self.score_memo = None
        self.cooccurrence.invalidate()

    # Convenience passthroughs used throughout the engine -------------
    def inverted_list(self, keyword):
        return self.inverted.get(keyword)

    def has_keyword(self, keyword):
        return len(self.inverted.get(keyword)) > 0

    def xml_df(self, keyword, node_type):
        return self.frequency.xml_df(keyword, node_type)

    def tf(self, keyword, node_type):
        return self.frequency.tf(keyword, node_type)

    def node_count(self, node_type):
        return self.statistics.node_count(node_type)

    def distinct_keywords(self, node_type):
        return self.statistics.distinct_keywords(node_type)

    def partitions(self):
        return self.tree.partitions()

    def partition_count(self):
        return self.tree.partition_count()

    def __repr__(self):
        return (
            f"DocumentIndex(nodes={len(self.tree)}, "
            f"vocabulary={self.inverted.vocabulary_size()})"
        )


def subtree_contribution(nodes):
    """What a document-ordered run of whole subtrees adds to the index.

    The one per-node loop behind both the full build (every node of
    the tree) and the incremental updates (one partition's nodes).
    Returns ``(df, tf, postings, type_counts)``: ``f_k^T`` and
    ``tf(k, T)`` per ``(keyword, node_type)`` pair, the posting columns
    per keyword — ``(keys, node_types, counts)`` in document order, as
    :meth:`~repro.index.inverted.InvertedIndex.add_postings` takes
    them — and the node count per type.
    """
    df = Counter()
    tf = Counter()
    last_ancestor = {}  # (keyword, node_type) -> last counted ancestor
    postings = {}
    type_counts = Counter()
    for node in nodes:
        node_type = node.node_type
        type_counts[node_type] += 1
        occurrences = Counter(node_keywords(node))
        if not occurrences:
            continue
        components = node.dewey.components
        prefixes = [
            (node_type[:i], components[:i])
            for i in range(1, len(node_type) + 1)
        ]
        for keyword, count in occurrences.items():
            columns = postings.get(keyword)
            if columns is None:
                columns = postings[keyword] = ([], [], [])
            columns[0].append(components)
            columns[1].append(node_type)
            columns[2].append(count)
            for ancestor_type, ancestor_dewey in prefixes:
                pair = (keyword, ancestor_type)
                tf[pair] += count
                if last_ancestor.get(pair) != ancestor_dewey:
                    last_ancestor[pair] = ancestor_dewey
                    df[pair] += 1
    return df, tf, postings, type_counts


def build_document_index(tree, eager_cooccurrence_types=None):
    """Build the complete :class:`DocumentIndex` in one document-order pass.

    Parameters
    ----------
    tree:
        The parsed :class:`~repro.xmltree.tree.XMLTree`.
    eager_cooccurrence_types:
        Optional iterable of node types for which the co-occurrence
        table is fully materialized at build time over the whole
        vocabulary — the paper's eager configuration (Section VII notes
        the worst-case ``O(K^2 T)`` space, which is why the default is
        lazy memoization).  Queries behave identically either way.
    """
    inverted = InvertedIndex()
    statistics = StatisticsTable()
    frequency = FrequencyTable(
        type_ids=inverted._type_ids, type_table=inverted._type_table
    )

    df_counts, tf_counts, postings, type_counts = subtree_contribution(
        tree.iter_nodes()
    )
    for node_type, count in type_counts.items():
        statistics.adjust_node_count(node_type, count)

    for keyword in sorted(postings):
        inverted.add_postings(keyword, *postings[keyword])

    distinct_per_type = Counter()
    for (keyword, node_type), df in df_counts.items():
        frequency.accumulate(keyword, node_type, df_delta=df)
        distinct_per_type[node_type] += 1
    for (keyword, node_type), tf in tf_counts.items():
        frequency.accumulate(keyword, node_type, tf_delta=tf)
        statistics.add_terms(node_type, tf)
    frequency.finalize()

    for node_type, distinct in distinct_per_type.items():
        statistics.set_distinct_keywords(node_type, distinct)

    cooccurrence = CooccurrenceTable(inverted, frequency)
    if eager_cooccurrence_types:
        vocabulary = sorted(postings)
        cooccurrence.build_pairs(vocabulary, list(eager_cooccurrence_types))
    return DocumentIndex(tree, inverted, frequency, statistics, cooccurrence)
