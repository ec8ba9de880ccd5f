"""Merged Dewey scan with an adjacent-LCP table.

The stack route (Algorithm 1) consumes the KS inverted lists as one
merged document-ordered stream and, for every posting, compares its
label against the current stack to find the shared prefix length.
Because the stack always holds exactly the previous posting's
components, that shared length **is** the LCP of adjacent labels in
the merged stream — a pure function of the posting columns that can
be tabulated up front, turning the per-posting prefix comparison into
an indexed lookup.

:func:`merged_lcp` produces the table: per merged posting, the source
lane (list index) and the LCP against the previous merged label.
Ties between lanes break toward the lowest lane, byte-identical to
the strict-``<`` cursor merge it replaces.  The per-lane
``(key, lane)`` runs — key tuples cut from each column's ``(flat,
offs)`` arrays for this call only — are concatenated and Timsort's
galloping merge sorts them (the runs are already sorted); one adjacent
pass fills the LCP column.  This is the only implementation: stack-refine is
reference code, not a served path.
"""

from __future__ import annotations

from ..index.inverted import key_tuples


def _lcp(a, b):
    shared = 0
    for x, y in zip(a, b):
        if x != y:
            break
        shared += 1
    return shared


def merged_lcp(columns):
    """``(lanes, lcps)`` for the merged stream over ``columns``.

    ``lanes[i]`` is the column index that produced merged posting
    ``i``; ``lcps[i]`` is the component LCP between merged postings
    ``i - 1`` and ``i`` (0 for the first).  The caller reconstructs
    each posting's key by keeping one counter per lane — the streams
    inside each lane come out in their original order.
    """
    entries = []
    for lane, column in enumerate(columns):
        entries.extend((key, lane) for key in key_tuples(*column.flat_offs()))
    # Sorting (key, lane) pairs both merges the runs and breaks key
    # ties toward the lowest lane in one go.
    entries.sort()
    lanes = [0] * len(entries)
    lcps = [0] * len(entries)
    previous = None
    for i, (key, lane) in enumerate(entries):
        lanes[i] = lane
        if previous is not None:
            lcps[i] = _lcp(previous, key)
        previous = key
    return lanes, lcps
