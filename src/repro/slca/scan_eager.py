"""Scan Eager SLCA (the `scan-slca` baseline of [3]).

Like XKSearch's Indexed Lookup Eager it anchors on the shortest list,
but the closest matches in the other lists are found by advancing
forward pointers instead of binary searching — better when keyword
frequencies are of similar magnitude, and the variant the paper's
Partition and SLE algorithms delegate their per-partition SLCA
computation to.

Each list pointer only ever moves forward, so a query costs one scan of
every list: ``O(sum |Si|)`` plus the candidate filtering.
"""

from __future__ import annotations

from bisect import bisect_right

from ..xmltree.dewey import Dewey
from .lca import label_components, remove_ancestors


class _ForwardMatcher:
    """Forward-only closest-match finder over one label list."""

    __slots__ = ("components", "position")

    def __init__(self, labels):
        self.components = label_components(labels)
        self.position = 0

    def match(self, target):
        """Element with the deepest LCA vs ``target``; pointer moves forward.

        Correct as long as successive targets are non-decreasing in
        document order (they are: the anchor list is scanned in order).
        The pointer advances by galloping — exponential probing followed
        by a binary search inside the final bracket — so matching a long
        list against a short anchor costs O(log gap) per step instead of
        walking every skipped posting.
        """
        components = self.components
        target_key = target.components
        pos = self.position
        size = len(components)
        if pos + 1 < size and components[pos + 1] <= target_key:
            # Gallop: double the step until we overshoot (or run off
            # the end), then binary-search the bracket.  Lands on the
            # last element <= target, exactly where the former linear
            # "advance while next <= target" walk stopped.
            step = 1
            while pos + step < size and components[pos + step] <= target_key:
                step <<= 1
            pos = (
                bisect_right(
                    components,
                    target_key,
                    pos + (step >> 1),
                    min(pos + step, size),
                )
                - 1
            )
            self.position = pos
        current = components[pos]
        if current > target_key and pos > 0:
            # current is the right match; previous is the left match.
            left = components[pos - 1]
            if _shared(left, target_key) >= _shared(current, target_key):
                return Dewey.from_trusted(left)
            return Dewey.from_trusted(current)
        if current <= target_key:
            nxt = components[pos + 1] if pos + 1 < size else None
            if nxt is not None and _shared(nxt, target_key) > _shared(
                current, target_key
            ):
                return Dewey.from_trusted(nxt)
            return Dewey.from_trusted(current)
        return Dewey.from_trusted(current)


def _shared(a, b):
    shared = 0
    for x, y in zip(a, b):
        if x != y:
            break
        shared += 1
    return shared


def scan_eager_slca(keyword_label_lists):
    """SLCAs via XKSearch Scan Eager; parameters as in ``stack_slca``."""
    if not keyword_label_lists:
        return []
    if any(not labels for labels in keyword_label_lists):
        return []

    shortest_index = min(
        range(len(keyword_label_lists)),
        key=lambda i: len(keyword_label_lists[i]),
    )
    anchor_list = keyword_label_lists[shortest_index]
    # Shortest lists first: their matches tend to produce the shallow
    # LCAs that trigger the depth-1 early exit below, and the order is
    # output-invariant (equal-depth LCAs of one anchor are the same
    # label, so the min-depth winner does not depend on the order).
    matchers = [
        _ForwardMatcher(labels)
        for labels in sorted(
            (
                labels
                for i, labels in enumerate(keyword_label_lists)
                if i != shortest_index
            ),
            key=len,
        )
    ]

    candidates = []
    for anchor in anchor_list:
        candidate = anchor
        for matcher in matchers:
            lca = anchor.lca(matcher.match(anchor))
            if lca.depth < candidate.depth:
                candidate = lca
                if candidate.depth == 1:
                    break
        candidates.append(candidate)
    return remove_ancestors(candidates)
