"""LCA primitives shared by the SLCA algorithms.

Everything here works on :class:`~repro.xmltree.dewey.Dewey` labels —
the algorithms never need the tree itself, only label arithmetic plus
sorted keyword lists.
"""

from __future__ import annotations

import bisect

from ..errors import QueryError
from ..xmltree.dewey import Dewey, shared_prefix_length


def label_components(labels):
    """Doc-ordered component tuples for a label list."""
    return [label.components for label in labels]


def remove_ancestors(candidates):
    """Keep only the smallest (deepest) candidates.

    Given candidate LCA labels, drop every label that has a proper
    descendant in the set — the final step that turns LCA candidates
    into SLCAs.  Returns labels sorted in document order.
    """
    ordered = sorted(set(candidates))
    kept = []
    for label in ordered:
        while kept and kept[-1].is_ancestor_of(label):
            kept.pop()
        kept.append(label)
    # After the single pass, an earlier entry can never be a descendant
    # of a later one (document order), so `kept` is exactly the SLCAs.
    return kept


def closest_match(sorted_components, target):
    """Best match for ``target`` in a doc-ordered list of component tuples.

    Returns the element of the list whose LCA with ``target`` is
    deepest — the ``max(lm, rm)`` choice of XKSearch's Indexed Lookup
    Eager, by binary search.  ``None`` for an empty list.  Scan
    Eager's forward matcher is held to it element for element.
    """
    if not sorted_components:
        return None
    target_key = target.components
    idx = bisect.bisect_left(sorted_components, target_key)
    left = sorted_components[idx - 1] if idx > 0 else None
    right = sorted_components[idx] if idx < len(sorted_components) else None
    if left is None:
        return Dewey.from_trusted(right)
    if right is None:
        return Dewey.from_trusted(left)
    left_depth = shared_prefix_length(left, target_key)
    right_depth = shared_prefix_length(right, target_key)
    if left_depth >= right_depth:
        return Dewey.from_trusted(left)
    return Dewey.from_trusted(right)


def merge_lists(lists):
    """Merge doc-ordered posting label lists into one sorted stream.

    Yields ``(Dewey, list_index)`` pairs; duplicates across lists are
    preserved (each carries its own list index).
    """
    import heapq

    def stream(index, labels):
        for label in labels:
            yield label.components, index, label

    streams = [stream(index, labels) for index, labels in enumerate(lists)]
    for _, index, label in heapq.merge(*streams):
        yield label, index


def brute_force_slca(tree, keyword_lists):
    """Reference SLCA computation by exhaustive subtree checks.

    Only used by the test suite to validate the real algorithms on
    small documents.  ``keyword_lists`` is a list of doc-ordered label
    lists (one per keyword).
    """
    if not keyword_lists:
        raise QueryError("brute_force_slca needs at least one keyword list")
    if any(not labels for labels in keyword_lists):
        return []
    sorted_lists = [
        sorted(label.components for label in labels)
        for labels in keyword_lists
    ]
    containing = []
    for node in tree.iter_nodes():
        if all(
            _contains_under(components, node.dewey)
            for components in sorted_lists
        ):
            containing.append(node.dewey)
    return remove_ancestors(containing)


def _contains_under(sorted_components, root):
    from ..xmltree.dewey import descendant_range_key

    lo = bisect.bisect_left(sorted_components, root.components)
    return (
        lo < len(sorted_components)
        and sorted_components[lo] < descendant_range_key(root)
    )
