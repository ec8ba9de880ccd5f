"""SLCA substrate: baseline algorithms plus meaningful-SLCA semantics.

Implements the SLCA machinery the paper builds on — the stack-based
and scan eager algorithms of XKSearch [3], the two Fig. 4 times, plus
a brute-force reference — together with the paper's own Section III-A
extensions: search-for node inference (Formula 1) and the meaningful
SLCA test (Definitions 3.3 and 3.4).
"""

from .lca import (
    brute_force_slca,
    closest_match,
    label_components,
    merge_lists,
    remove_ancestors,
)
from .meaningful import (
    DEFAULT_COMPARABLE_FRACTION,
    DEFAULT_REDUCTION,
    SearchForCandidate,
    confidence,
    infer_search_for,
    is_meaningful,
    meaningful_slcas,
    needs_refinement,
)
from .scan_eager import scan_eager_slca
from .stack import stack_slca

__all__ = [
    "stack_slca",
    "scan_eager_slca",
    "brute_force_slca",
    "remove_ancestors",
    "closest_match",
    "label_components",
    "merge_lists",
    "SearchForCandidate",
    "confidence",
    "infer_search_for",
    "is_meaningful",
    "meaningful_slcas",
    "needs_refinement",
    "DEFAULT_REDUCTION",
    "DEFAULT_COMPARABLE_FRACTION",
]
