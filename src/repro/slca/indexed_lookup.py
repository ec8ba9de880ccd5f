"""Indexed Lookup Eager SLCA (the `IL` algorithm of XKSearch [3]).

Iterates the nodes of the **shortest** keyword list; for each node the
closest match in every other list is found by binary search (the
``max(lm, rm)`` rule) and the candidate SLCA is the shallowest of the
per-list LCAs.  A streaming ancestor filter turns candidates into the
final SLCA set.  Runtime ``O(|S1| * m * log|Smax|)`` — sub-linear in
the long lists, which is why the paper's Fig. 4 baselines include it.
"""

from __future__ import annotations

from .lca import label_components, lca_candidate, remove_ancestors


def indexed_lookup_slca(keyword_label_lists):
    """SLCAs via XKSearch Indexed Lookup Eager.

    Parameters mirror :func:`repro.slca.stack.stack_slca`.
    """
    if not keyword_label_lists:
        return []
    if any(not labels for labels in keyword_label_lists):
        return []

    shortest_index = min(
        range(len(keyword_label_lists)),
        key=lambda i: len(keyword_label_lists[i]),
    )
    anchor_list = keyword_label_lists[shortest_index]
    # Input lists are doc-ordered (== sorted); sorted() guards ad-hoc
    # input.
    other_lists = [
        sorted(label_components(labels))
        for i, labels in enumerate(keyword_label_lists)
        if i != shortest_index
    ]

    candidates = []
    for anchor in anchor_list:
        candidate = lca_candidate(anchor, other_lists)
        if candidate is not None:
            candidates.append(candidate)
    return remove_ancestors(candidates)
