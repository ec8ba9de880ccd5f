"""Structural validation of a built or mutated :class:`XMLTree`.

The invariants every other subsystem assumes:

* each child's Dewey label extends its parent's by exactly one
  component, and sibling ordinals are strictly increasing;
* each node's type (prefix path) extends its parent's by its own tag;
* the tree's Dewey lookup table contains exactly the reachable nodes,
  and its ordered label list is sorted document order.

:func:`check_tree` raises :class:`~repro.errors.XMLError` on the first
violation; the incremental-update and delta tests run it after every
mutation (``tests/index/consistency.py``, with the posting-side half:
every posting carries its node's type).
"""

from __future__ import annotations

from ..errors import XMLError
from .dewey import Dewey


def check_tree(tree):
    """Verify all structural invariants; returns the node count.

    A partition-paged tree is loaded in full first: its lookup table
    and ordered list only claim to be complete once it is.
    """
    tree.ensure_loaded()
    seen = {}
    stack = [(tree.root, None)]
    while stack:
        node, parent = stack.pop()
        if parent is None:
            if node.dewey != Dewey.root():
                raise XMLError(f"root must be labeled 0, got {node.dewey}")
            if node.node_type != (node.tag,):
                raise XMLError(
                    f"root type must be ({node.tag},), got {node.node_type}"
                )
        else:
            if node.dewey.parent != parent.dewey:
                raise XMLError(
                    f"{node.label()} is not a Dewey child of {parent.label()}"
                )
            if node.node_type != parent.node_type + (node.tag,):
                raise XMLError(
                    f"{node.label()} type {node.node_type} does not extend "
                    f"its parent's {parent.node_type}"
                )
        if node.dewey in seen:
            raise XMLError(f"duplicate Dewey label {node.dewey}")
        seen[node.dewey] = node
        ordinals = [child.dewey.components[-1] for child in node.children]
        if ordinals != sorted(ordinals) or len(set(ordinals)) != len(ordinals):
            raise XMLError(
                f"children of {node.label()} have non-increasing ordinals"
            )
        for child in node.children:
            stack.append((child, node))

    if set(seen) != set(tree._by_dewey):
        missing = set(seen) ^ set(tree._by_dewey)
        raise XMLError(f"lookup table out of sync at {sorted(missing)[:3]}")
    ordered = tree._ordered
    if ordered != sorted(ordered):
        raise XMLError("ordered label list is not in document order")
    if len(ordered) != len(seen):
        raise XMLError("ordered label list size mismatch")
    return len(seen)
