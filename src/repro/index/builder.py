"""Index construction (Section VII).

:func:`build_document_index` walks the parsed tree once, in document
order, and produces everything the search engine needs:

* the keyword inverted lists (:class:`~repro.index.inverted.InvertedIndex`);
* the frequent table ``f_k^T`` / ``tf(k,T)``
  (:class:`~repro.index.frequency.FrequencyTable`);
* the per-type statistics ``N_T`` / ``G_T`` / depth
  (:class:`~repro.index.statistics.StatisticsTable`);
* the (lazy) co-occurrence table
  (:class:`~repro.index.cooccur.CooccurrenceTable`).

The walk (:func:`subtree_contribution`) only appends each node's
postings to its keywords' ``(keys, node_types, counts)`` columns.  The
frequent table then comes from each keyword's columns: ``tf(k, T)``
sums the counts of the postings whose type extends ``T``, and
``f_k^T`` — *distinct* T-typed nodes containing ``k`` — counts those
postings whose key shares fewer than ``len(T)`` components with the
key before it, the shared-prefix length the payload encoder writes
(:func:`_keyword_statistics`).  That is one step per posting plus a few
per ``(node_type, lcp, count)`` group, not one per occurrence and
ancestor type.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from ..xmltree.dewey import shared_prefix_length
from .cooccur import CooccurrenceTable
from .derived import DerivedState
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
        #: that engine-level caches (query results) can detect staleness
        #: with one integer comparison.
        self.version = 0
        self._derived = None

    @property
    def derived(self):
        """This version's miner and memos (repro.index.derived)."""
        if self._derived is None:
            self._derived = DerivedState(self)
        return self._derived

    @property
    def score_memo(self):
        return self.derived.score_memo

    def freeze(self, path):
        """Write this index as a frozen single-file snapshot.

        See :mod:`repro.index.frozen`; reopen with
        :func:`repro.index.load_frozen_index`.
        """
        from .frozen import freeze_index

        return freeze_index(self, path)

    def invalidate_caches(self):
        """Bump the version and drop everything derived from the old one.

        The single entry point index mutations must call; anything
        keyed on the old version (engine result caches) self-evicts on
        its next read.
        """
        self.version += 1
        self.cooccurrence.invalidate()
        if self._derived is not None:
            self._derived = self._derived.updated(self)

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

    The one pass behind both the full build (every node of the tree)
    and the incremental updates (one partition's nodes).  Returns
    ``(df, tf, postings, type_counts)``: ``f_k^T`` and ``tf(k, T)`` per
    ``(keyword, node_type)`` pair, the posting columns per keyword —
    ``(keys, node_types, counts)`` in document order, as
    :meth:`~repro.index.inverted.InvertedIndex.add_postings` takes
    them — and the node count per type.

    The node pass only fills the columns; both statistics then come
    from each keyword's columns (:func:`_keyword_statistics`).
    """
    postings = {}
    type_counts = Counter()
    for node in nodes:
        node_type = node.node_type
        type_counts[node_type] += 1
        key = node.dewey.components
        for keyword in node_keywords(node):
            columns = postings.get(keyword)
            if columns is None:
                postings[keyword] = ([key], [node_type], [1])
            elif columns[0][-1] is key:
                # The keyword again, at the node it was last seen at.
                columns[2][-1] += 1
            else:
                columns[0].append(key)
                columns[1].append(node_type)
                columns[2].append(1)
    df = {}
    tf = {}
    for keyword, columns in postings.items():
        _keyword_statistics(keyword, *columns, df, tf)
    return df, tf, postings, type_counts


def _keyword_statistics(keyword, keys, node_types, counts, df, tf):
    """Add one keyword's ``f_k^T`` and ``tf(k, T)`` to ``df`` and ``tf``.

    Posting ``i`` lies in a T-typed ancestor iff ``T`` is a prefix of
    its node type.  ``tf``: its count goes to every such ``T``.
    ``f_k^T``: that ancestor is one no earlier posting lay in iff
    ``len(T) > lcp(key[i - 1], key[i])`` (the first key is compared
    with the empty one) — a pre-order visits a subtree contiguously, so
    had an earlier posting lain in it, the one just before posting
    ``i`` would too.  So the postings are counted per
    ``(node_type, lcp, count)`` and each group is spread over the
    type's prefixes at once.
    """
    shared = map(shared_prefix_length, chain(((),), keys), keys)
    groups = Counter(zip(node_types, shared, counts))
    for (node_type, lcp, count), size in groups.items():
        occurrences = size * count
        for depth in range(1, len(node_type) + 1):
            pair = (keyword, node_type[:depth])
            tf[pair] = tf.get(pair, 0) + occurrences
            if depth > lcp:
                df[pair] = df.get(pair, 0) + size


def build_document_index(tree, eager_cooccurrence_types=None):
    """Build the complete :class:`DocumentIndex` from one document-order walk.

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
