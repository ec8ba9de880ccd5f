"""The tree / posting invariant the type-id column rests on.

A node's type extends its parent's by its own tag
(:func:`repro.xmltree.check_tree`), so the node ``depth`` components
deep on the path to a posting has type ``posting.node_type[:depth]`` —
which is how the refinement routes decide Definition 3.3 without the
tree.  That only holds while every posting carries its own node's type
and the id column beside it names the same type; the update and delta
tests mutate through the checked :func:`append_partition` /
:func:`remove_partition` below, so it is held after every mutation.
"""

from __future__ import annotations

from repro import index as index_module
from repro.xmltree import check_tree


def check_index(index):
    """``check_tree`` plus the posting-side half; returns the index."""
    tree = index.tree
    check_tree(tree)
    type_table = index.inverted.node_type_table
    for keyword in index.inverted.keywords():
        postings = index.inverted.get(keyword)
        type_ids = postings.type_ids
        assert len(type_ids) == len(postings), keyword
        for posting, type_id in zip(postings, type_ids):
            assert posting.node_type == tree.node(posting.dewey).node_type, (
                keyword, posting
            )
            assert len(posting.node_type) == len(posting.dewey.components), (
                keyword, posting
            )
            assert type_table[type_id] == posting.node_type, (
                keyword, posting
            )
    return index


def append_partition(index, spec):
    """``repro.index.append_partition``, then :func:`check_index`."""
    node = index_module.append_partition(index, spec)
    check_index(index)
    return node


def remove_partition(index, dewey):
    """``repro.index.remove_partition``, then :func:`check_index`."""
    node = index_module.remove_partition(index, dewey)
    check_index(index)
    return node
