"""Co-occurrence counts as one forward merge of two posting columns.

``f_{ki,kj}^T`` (Section VII, index 3) is the number of T-typed nodes
whose subtree holds both keywords.  A posting at node v lies under a
T-typed node iff v's prefix path starts with T, and that node's key is
v's cut to ``len(T)`` components.  Both lists are in document order,
so their cut keys never decrease: one pass over the two columns,
skipping postings not under T, counts every cut key the two share —
once, however many postings of either list sit under it.  Nothing is
kept but the count.

``repro_common_ancestors`` runs the pass in C; :func:`_common_python`
is its pure-Python twin and the reference.
"""

from __future__ import annotations

from . import backend
from .columns import columns_for


def under_table(type_table, node_type):
    """One byte per interned type id: 1 when the type's path starts
    with ``node_type``."""
    depth = len(node_type)
    return bytes(path[:depth] == node_type for path in type_table)


def common_ancestors(a, b, node_type):
    """``f_{ki,kj}^T`` of two :class:`~repro.index.inverted.InvertedList`
    objects: the ``node_type``-typed nodes holding a posting of each."""
    under = under_table(a.type_table, node_type)
    depth = len(node_type)
    a_columns = columns_for(a)
    b_columns = columns_for(b)
    lib = backend.compiled
    if lib is None:
        return _common_python(a_columns, b_columns, under, depth)
    a_flat, a_offs = backend.column_handles(lib, a_columns)
    a_tids, a_width = backend.type_id_handle(lib, a_columns)
    b_flat, b_offs = backend.column_handles(lib, b_columns)
    b_tids, b_width = backend.type_id_handle(lib, b_columns)
    return lib.lib.repro_common_ancestors(
        a_flat, a_offs, a_tids, a_width, a_columns.size,
        b_flat, b_offs, b_tids, b_width, b_columns.size,
        under, depth,
    )


def _cut_keys(columns, under, depth):
    """The cut keys of a column's postings under the type, in order."""
    flat, offs = columns.flat_offs()
    return [
        tuple(flat[start:start + depth])
        for start, type_id in zip(offs, columns.tids)
        if under[type_id]
    ]


def _common_python(a_columns, b_columns, under, depth):
    """Pure-Python twin of ``repro_common_ancestors``."""
    a_keys = _cut_keys(a_columns, under, depth)
    b_keys = _cut_keys(b_columns, under, depth)
    i = j = count = 0
    last = None
    while i < len(a_keys) and j < len(b_keys):
        a_key = a_keys[i]
        b_key = b_keys[j]
        if a_key < b_key:
            i += 1
        elif b_key < a_key:
            j += 1
        else:
            if a_key != last:
                count += 1
                last = a_key
            i += 1
            j += 1
    return count
