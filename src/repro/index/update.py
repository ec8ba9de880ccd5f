"""Incremental index maintenance: append / remove document partitions.

The paper builds its indexes once at parse time; a production search
engine also has to absorb new entities (a new author with their
publications) and retire old ones without a full rebuild.  Document
partitions (Definition 6.1) are the natural update granularity — every
statistic in Section VII decomposes over partitions:

* inverted lists: a new partition's postings all sort after existing
  ones (append); a removed partition's postings form one contiguous
  Dewey range (splice out);
* ``tf(k, T)`` and ``f_k^T`` for types at depth >= 2 change only by the
  partition's own contribution;
* at depth 1 (the document root type) ``f_k^T`` is simply "does any
  posting remain";
* ``N_T`` / ``G_T`` adjust by the same deltas;
* memoized co-occurrence counts are invalidated (they are lazily
  recomputed on demand).

``append_partition(index, spec)`` takes the same nested
``(tag, text, children)`` spec as
:func:`repro.xmltree.build.build_tree`; ``remove_partition(index,
dewey)`` takes the partition root's label.  Both leave the index in a
state indistinguishable (statistics-wise) from a fresh build of the
updated document — the equivalence the test suite asserts.
"""

from __future__ import annotations

from collections import Counter

from ..errors import IndexingError
from ..xmltree.build import _attach_children, _normalize_spec
from ..xmltree.dewey import Dewey
from ..xmltree.tree import XMLNode, build_node_type
from .builder import subtree_contribution


def _subtree_spec(node):
    """A built subtree as a fully normalized ``(tag, text, children)``
    spec — the replayable form :mod:`repro.index.delta` persists.

    Derived from the constructed nodes rather than the caller's input
    spec, so short forms (omitted text/children) come out canonical
    and replay rebuilds byte-identical Dewey assignments.
    """
    spec = (node.tag, node.text, [])
    stack = [(node, spec[2])]
    while stack:
        current, children_out = stack.pop()
        for child in current.children:
            child_spec = (child.tag, child.text, [])
            children_out.append(child_spec)
            stack.append((child, child_spec[2]))
    return spec


def _apply_deltas(index, df, tf, type_counts, sign):
    """Apply signed df/tf/N_T/G_T deltas; fixes up root-level DF."""
    root_type = index.tree.root.node_type
    distinct_delta = Counter()
    for (keyword, node_type), delta in df.items():
        if node_type == root_type:
            continue  # handled below from actual list emptiness
        before = index.frequency.xml_df(keyword, node_type)
        after = before + sign * delta
        if after < 0:
            raise IndexingError(
                f"negative XML DF for {keyword!r} at {node_type}"
            )
        index.frequency.adjust(keyword, node_type, df_delta=sign * delta)
        if before == 0 and after > 0:
            distinct_delta[node_type] += 1
        elif before > 0 and after == 0:
            distinct_delta[node_type] -= 1
    for (keyword, node_type), delta in tf.items():
        if node_type == root_type:
            continue
        index.frequency.adjust(keyword, node_type, tf_delta=sign * delta)
        index.statistics.add_terms(node_type, sign * delta)

    # Root-level statistics: derived from what actually remains.
    root_keywords = {
        keyword for (keyword, node_type) in df if node_type == root_type
    }
    for keyword in root_keywords:
        remaining = len(index.inverted.get(keyword))
        had = index.frequency.xml_df(keyword, root_type)
        now = 1 if remaining > 0 else 0
        if now != had:
            index.frequency.adjust(keyword, root_type, df_delta=now - had)
            distinct_delta[root_type] += now - had
    for (keyword, node_type), delta in tf.items():
        if node_type == root_type:
            index.frequency.adjust(keyword, node_type, tf_delta=sign * delta)
            index.statistics.add_terms(node_type, sign * delta)

    for node_type, count in type_counts.items():
        index.statistics.adjust_node_count(node_type, sign * count)
    for node_type, delta in distinct_delta.items():
        index.statistics.adjust_distinct_keywords(node_type, delta)


def append_partition(index, spec):
    """Add a new document partition from a build spec; returns its node."""
    tree = index.tree
    tag, text, children = _normalize_spec(spec)
    dewey = Dewey((0, tree.next_partition_ordinal()))
    node = XMLNode(
        tag, dewey, build_node_type(tree.root.node_type, tag), text or ""
    )
    _attach_children(node, children)
    nodes = list(node.iter_subtree())

    df, tf, postings, type_counts = subtree_contribution(nodes)
    tree.append_partition(node)
    for keyword, columns in postings.items():
        index.inverted.append_postings(keyword, *columns)
    _apply_deltas(index, df, tf, type_counts, sign=+1)
    # Snapshot-backed indexes log the operation so save_delta() can
    # replay it over the base at chain-load time (repro.index.delta).
    log = getattr(index, "delta_log", None)
    if log is not None:
        log.append(("append", dewey.components[1], _subtree_spec(node)))
    # Bumps the index version: every query-result / statistics cache
    # keyed on the old state self-invalidates (includes co-occurrence).
    index.invalidate_caches()
    return node


def remove_partition(index, dewey):
    """Remove the partition rooted at ``dewey``; returns its node."""
    tree = index.tree
    node = tree.node(dewey)
    nodes = list(node.iter_subtree())
    df, tf, postings, type_counts = subtree_contribution(nodes)

    tree.remove_partition(dewey)
    for keyword in postings:
        index.inverted.remove_postings_under(keyword, dewey)
    _apply_deltas(index, df, tf, type_counts, sign=-1)
    log = getattr(index, "delta_log", None)
    if log is not None:
        log.append(("remove", dewey.components))
    index.invalidate_caches()
    return node
